import hashlib
import itertools
import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrggsim import (
    ConnectionModel,
    ConnectivityGraph,
    RandomStream,
    build_connectivity_graph,
    cut_capacity,
    edge_disjoint_paths,
    from_edges,
    graph_from_json,
    graph_to_json,
    load_graph,
    min_cut,
    multicast_capacity,
    save_graph,
)
from qrggsim import graph as graph_module
from qrggsim.graph import (
    _bitset_flow,
    _csr_flow,
    _key_shift,
    _max_flow,
    _near_pairs,
    _residual_rows,
    write_text_atomic,
)
from qrggsim.model import kernel_probability

from oracles import brute_force_min_cut, butterfly_graph, wheatstone_graph

FIG3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
FLOW_PIN = "8d16df39d7082cd8b5782647f5ce4251a1a6ff6f2fd444cd36f8db8ff4e2915e"
SCALE_FLOW_PIN = "aef235f8a835c7674bd650e23d86f364d91470c8d0890de33c4dade9e6652c5d"
ORACLE_PIN = "b818323739b493d439c50c78fcf16dabcc94f933b513e9acca4c9de61b3878f6"


def random_graph(seed, n_relays=None, n_terminals=None):
    rng = RandomStream.from_seed(seed)
    pick = rng.child("shape")
    n = n_relays if n_relays is not None else int(pick.integers(4, 13))
    tau = n_terminals if n_terminals is not None else int(pick.integers(1, 4))
    model = ConnectionModel(
        r=0.05 + (0.3 - 0.05) * pick.random(),
        r_prime=0.3 + (0.6 - 0.3) * pick.random(),
        kernel="fixed",
        p=pick.random(),
    )
    return build_connectivity_graph(n, tau, model, rng)


class TestBuild:
    def test_rejects_invalid_radii_model(self):
        with pytest.raises(ValueError):
            ConnectionModel(r=1.0, r_prime=1.5, kernel="fixed", p=1.0)

    def test_source_terminal_forced_absent_even_at_full_connectivity(self):
        model = ConnectionModel(r=1.0, r_prime=1.0, kernel="fixed", p=1.0)
        g = build_connectivity_graph(1, 1, model, RandomStream.from_seed(0))
        # (0, 1) and (1, 2) are the only pairs the roles allow
        assert set(g.edge_list()) <= {(0, 1), (1, 2)}

    def test_deterministic_under_seed(self):
        a = build_connectivity_graph(20, 2, FIG3, RandomStream.from_seed(5))
        b = build_connectivity_graph(20, 2, FIG3, RandomStream.from_seed(5))
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.positions, b.positions)

    def test_mean_relay_degree_matches_pair_probability(self):
        g = build_connectivity_graph(200, 5, FIG3, RandomStream.from_seed(7))
        i, j = g.edges.T
        relay_pairs = g.edges[(i > 0) & (j <= g.n_relays)]
        degrees = np.bincount(relay_pairs.ravel(), minlength=g.n_nodes)[g.relay_ids]
        assert abs(degrees.mean() - 199 * 0.0669648) < 2.0

    def test_terminal_terminal_forced_absent(self):
        model = ConnectionModel(r=1.0, r_prime=1.0, kernel="fixed", p=1.0)
        g = build_connectivity_graph(3, 3, model, RandomStream.from_seed(1))
        terminals = set(g.terminal_ids)
        assert not [e for e in g.edge_list() if set(e) <= terminals]

    def test_needs_relay_and_terminal(self):
        with pytest.raises(ValueError):
            build_connectivity_graph(0, 1, FIG3, RandomStream.from_seed(0))

    def test_graphs_compare_and_hash_by_identity(self):
        # A graph is its arrays, which == cannot compare: like a Flow, two
        # graphs of the same edges are two objects, and a graph can key a
        # dict or sit in a set.
        a, b = butterfly_graph(), butterfly_graph()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        assert {a: 1}[a] == 1


def _all_pairs_within(positions, radius):
    """Reference for the near-pair search: every pair (i < j) in row-major
    order, kept iff its np.hypot distance is at most radius."""
    iu, ju = np.triu_indices(len(positions), k=1)
    d = np.hypot(*(positions[iu] - positions[ju]).T)
    return iu[d <= radius], ju[d <= radius]


def _reference_build(g, model, seed):
    """The all-pairs build: each role-allowed pair in row-major order, with
    one draw of the edge stream per pair of probability strictly in (0, 1)."""
    iu, ju = np.triu_indices(g.n_nodes, k=1)
    first_t = 1 + g.n_relays
    allowed = (ju < first_t) | ((iu > 0) & (iu < first_t))
    iu, ju = iu[allowed], ju[allowed]
    probs = kernel_probability(np.hypot(*(g.positions[iu] - g.positions[ju]).T), model)
    accept = probs >= 1.0
    stochastic = (probs > 0.0) & (probs < 1.0)
    draws = RandomStream.from_seed(seed).child("edges").random(int(stochastic.sum()))
    accept[stochastic] = draws < probs[stochastic]
    return np.stack([iu[accept], ju[accept]], 1)


def _split_keys(keys, n):
    shift = _key_shift(n)
    return keys >> shift, keys & ((1 << shift) - 1)


def _near_pair_classes(positions, radius, inner):
    """_near_pairs' sorted keys split into (iu, ju, annulus) arrays."""
    keys = _near_pairs(positions, radius, inner)
    return (*_split_keys(keys >> 1, len(positions)), (keys & 1).astype(bool))


def _near_pair_ids(positions, radius):
    """The (iu, ju) arrays of the pairs within radius, class bit shifted off."""
    return _near_pair_classes(positions, radius, radius)[:2]


# Pairs about 0.2 apart on which sqrt(dx*dx + dy*dy) and np.hypot fall on
# opposite sides of 0.2: the first two are within 0.2 by the squared sum
# only, the last by np.hypot only.
HYPOT_SPLIT = [
    ((0.4045785445665906, 0.33087978308736854), (0.5933706487334925, 0.2648681068154115)),
    ((0.6499478649078705, 0.4486574540636491), (0.6276636986903239, 0.6474121167410031)),
    ((0.6714184134021534, 0.6633277969688907), (0.48027995081303665, 0.7222012894682222)),
]

# The same about 0.1 apart: the first two are within 0.1 by the squared sum
# only, the last by np.hypot only.
INNER_SPLIT = [
    ((0.7069560808841662, 0.42072844334691006), (0.8022583897235578, 0.3904386772553533)),
    ((0.4876926510565173, 0.7751137998796229), (0.44666847535935866, 0.8663114808170714)),
    ((0.23901055406205823, 0.3915518285711568), (0.1482326139866947, 0.34960703633572293)),
]

# 49 points on the lines of a 7 x 7 grid of cells, which is the grid that
# r' = 0.25 gets (side 1/7 > r' / 2), and pairs at distance exactly 0.25 that
# lie 2 cells apart: across x, across y, and diagonally from the corner.
LATTICE = [(k / 7, l / 7) for k in range(7) for l in range(7)]
AT_RADIUS = [(0.125, 0.5), (0.375, 0.5), (0.5, 0.125), (0.5, 0.375), (0.0, 0.0), (0.15, 0.2)]


class TestNearPairs:
    @pytest.mark.parametrize("radius, extra, some_pairs", [
        (0.25, [], {(49, 50), (51, 52), (53, 54), (0, 54)}),  # the pairs at 0.25
        (1 / 7, [], set()),
        (1.0, [(0.6, 0.8)], {(0, 55)}),  # r' = 1 is one cell; the pair is at 1.0
        # The x difference rounds to 0.5 though the exact one is larger: in
        # cells of side exactly r' / 2 these two would lie 3 cells apart.
        (0.5, [(0.25 - 2**-55, 0.5), (0.75, 0.5)], {(55, 56)}),
        # Only coincident points pair; (0, 0) is point 0 and point 53.
        (0.0, [(0.3, 0.3), (0.3, 0.3)], {(0, 53), (55, 56)}),
        (1e-9, [(0.5, 0.5), (0.5 + 2**-31, 0.5), (0.7, 0.7), (0.7, 0.7)],
         {(0, 53), (55, 56), (57, 58)}),
        (0.2, [p for pair in HYPOT_SPLIT for p in pair], {(59, 60)}),
        # r'**2 underflows to 0 and the squares of these gaps are subnormal.
        (1e-170, [(1e-160, 0.0), (0.0, 1e-170), (2e-170, 3e-170)], {(0, 53), (0, 56), (53, 56)}),
    ])
    def test_hand_placed_points_match_all_pairs(self, radius, extra, some_pairs):
        positions = np.array(LATTICE + AT_RADIUS + extra)
        iu, ju = _near_pair_ids(positions, radius)
        ref_i, ref_j = _all_pairs_within(positions, radius)
        np.testing.assert_array_equal(iu, ref_i)
        np.testing.assert_array_equal(ju, ref_j)
        assert some_pairs <= set(zip(iu.tolist(), ju.tolist()))

    def test_split_pairs_straddle_the_radius(self):
        # The premise of the 0.2 case above.
        for pair, by_hypot in zip(HYPOT_SPLIT, (False, False, True)):
            dx, dy = np.subtract(*pair)
            assert (np.hypot(dx, dy) <= 0.2) == by_hypot
            assert (np.sqrt(dx * dx + dy * dy) <= 0.2) != by_hypot

    def test_inner_split_pairs_straddle_the_inner_radius(self):
        # The premise of the r = 0.1 case below.
        for pair, by_hypot in zip(INNER_SPLIT, (False, False, True)):
            dx, dy = np.subtract(*pair)
            assert (np.hypot(dx, dy) <= 0.1) == by_hypot
            assert (np.sqrt(dx * dx + dy * dy) <= 0.1) != by_hypot

    @pytest.mark.parametrize("radius, inner, extra, annulus_pairs, inner_pairs", [
        # The squared sum and np.hypot disagree on these pairs at r = 0.1.
        (0.2, 0.1, [p for pair in INNER_SPLIT for p in pair], {(55, 56), (57, 58)}, {(59, 60)}),
        # Pairs at exactly r stay inside.
        (0.3, 0.25, [], set(), {(49, 50), (51, 52), (53, 54), (0, 54)}),
        # r == r': no kept pair is in the annulus.
        (0.25, 0.25, [], set(), {(49, 50), (0, 54)}),
        (0.2, 0.2, [p for pair in HYPOT_SPLIT for p in pair], set(), {(59, 60)}),
        # r = 0: only coincident points are inside; (0, 0) is point 0 and point 53.
        (0.25, 0.0, [(0.3, 0.3), (0.3, 0.3), (0.3, 0.3 + 2**-53)], {(55, 57), (49, 50)},
         {(0, 53), (55, 56)}),
        (0.0, 0.0, [(0.3, 0.3), (0.3, 0.3)], set(), {(0, 53), (55, 56)}),
        # r**2 underflows to 0 and the squares of these gaps are subnormal.
        (0.25, 1e-170, [(1e-160, 0.0), (0.0, 1e-170), (2e-170, 3e-170)],
         {(0, 55), (0, 57), (53, 55)}, {(0, 53), (0, 56), (53, 56)}),
        (1e-170, 1e-170, [(0.0, 1e-170), (1e-170, 1e-170)], set(), {(0, 55), (53, 55)}),
    ])
    def test_class_bit_is_hypot_beyond_inner(self, radius, inner, extra, annulus_pairs,
                                             inner_pairs):
        positions = np.array(LATTICE + AT_RADIUS + extra)
        iu, ju, annulus = _near_pair_classes(positions, radius, inner)
        ref_i, ref_j = _all_pairs_within(positions, radius)
        np.testing.assert_array_equal(iu, ref_i)
        np.testing.assert_array_equal(ju, ref_j)
        d = np.hypot(*(positions[iu] - positions[ju]).T)
        np.testing.assert_array_equal(annulus, d > inner)
        marked = dict(zip(zip(iu.tolist(), ju.tolist()), annulus.tolist()))
        assert all(marked[pair] for pair in annulus_pairs)
        assert not any(marked[pair] for pair in inner_pairs)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_have_no_pairs(self, n):
        keys = _near_pairs(np.full((n, 2), 0.5), 0.2, 0.1)
        assert keys.dtype == np.int64 and keys.shape == (0,)

    def test_tiny_radius_keeps_the_grid_small(self):
        # 2 / r' would be 2e9 cells a side; the grid keeps about N cells.
        positions = RandomStream.from_seed(4).random((1000, 2))
        positions[1] = positions[0]
        tracemalloc.start()
        try:
            iu, ju = _near_pair_ids(positions, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(zip(iu.tolist(), ju.tolist())) == [(0, 1)]
        assert peak < 2e6

    @pytest.mark.parametrize("n, kernel, n_terminals, radii", [
        *itertools.product((30, 200), ("fixed", "linear_decay"), (1, 3),
                           [[(0.1, 0.2), (0.05, 0.3), (0.3, 1.0), (0.2, 0.2), (0.0, 0.0)]]),
        *itertools.product((2000,), ("fixed", "linear_decay"), (1, 3), [[(0.1, 0.2)]]),
    ])
    def test_seeded_builds_match_all_pairs_build(self, n, kernel, n_terminals, radii):
        for seed, (r, r_prime) in enumerate(radii):
            # r == r' is allowed with the fixed kernel only.
            model = ConnectionModel(r, r_prime, "fixed" if r == r_prime else kernel, 0.5)
            g = build_connectivity_graph(n, n_terminals, model, RandomStream.from_seed(seed))
            np.testing.assert_array_equal(g.edges, _reference_build(g, model, seed))

    def test_kernel_sees_only_annulus_pairs(self, monkeypatch):
        # A fallback to all pairs, or to every pair within r', would give the
        # same graph, so this counts the distances the kernel receives:
        # exactly the role-allowed pairs with r < hypot <= r'.
        seen = []

        def counting_kernel(d, model):
            seen.append(len(d))
            return kernel_probability(d, model)

        monkeypatch.setattr(graph_module, "kernel_probability", counting_kernel)
        model = ConnectionModel(0.1, 0.2, "linear_decay", 0.5)
        g = build_connectivity_graph(2000, 1, model, RandomStream.from_seed(8))
        iu, ju = np.triu_indices(g.n_nodes, k=1)
        first_t = 1 + g.n_relays
        allowed = (ju < first_t) | ((iu > 0) & (iu < first_t))
        d = np.hypot(*(g.positions[iu[allowed]] - g.positions[ju[allowed]]).T)
        annulus = np.count_nonzero((d > model.r) & (d <= model.r_prime))
        assert seen == [annulus]
        assert 100_000 < annulus < 250_000  # of 2,003,001 pairs

    def test_fixed_kernel_builds_take_no_distances(self):
        # The class bit and the constant p decide every pair: neither the
        # kernel nor _pair_distances runs, and np.hypot sees only the
        # screen's doubt bands.
        calls, hypot_sizes = [], []
        hypot = np.hypot

        def counting_hypot(*args, **kwargs):
            hypot_sizes.append(np.size(args[0]))
            return hypot(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "kernel_probability", lambda *a: calls.append("kernel"))
            patch.setattr(graph_module, "_pair_distances", lambda *a: calls.append("distances"))
            patch.setattr(np, "hypot", counting_hypot)
            g = build_connectivity_graph(2000, 1, FIG3, RandomStream.from_seed(8))
        assert calls == []
        assert sum(hypot_sizes) < 10  # of about 210,000 kept pairs
        np.testing.assert_array_equal(g.edges, _reference_build(g, FIG3, 8))

    def test_large_build_memory_is_bounded(self):
        # All pairs at n = 5000 would take about 550 MB; the edge array
        # itself is about 13 MB.
        tracemalloc.start()
        try:
            build_connectivity_graph(5000, 1, FIG3, RandomStream.from_seed(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestCutCapacity:
    def test_empty_partition_is_source_degree(self):
        g = random_graph(3)
        t = g.terminal_ids[0]
        assert cut_capacity(g, t, []) == g.source_degree()

    def test_full_partition_is_terminal_degree(self):
        g = random_graph(4)
        t = g.terminal_ids[0]
        assert cut_capacity(g, t, g.relay_ids) == int(np.count_nonzero(g.edges == t))

    def test_hand_enumerated_path_with_chord(self):
        # s-r1-r2-r3-t chain plus chord r1-r3; V_k = {r1} crosses r1-r2, r1-r3
        g = from_edges(3, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
        assert cut_capacity(g, 4, [1]) == 2

    def test_unknown_terminal_rejected(self):
        g = random_graph(5)
        with pytest.raises(ValueError):
            cut_capacity(g, 0, [])

    def test_partition_must_be_relays(self):
        g = random_graph(6)
        with pytest.raises(ValueError):
            cut_capacity(g, g.terminal_ids[0], [g.terminal_ids[0]])


class TestMinCut:
    def test_wheatstone_relay_pattern(self):
        g = wheatstone_graph()
        assert min_cut(g, 3).capacity == 1

    def test_two_parallel_relays_with_chord(self):
        # s-r1, s-r2, r1-t, r2-t, r1-r2: min cut 2 over all 4 partitions
        g = from_edges(2, 1, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
        assert min_cut(g, 3).capacity == 2

    def test_terminal_must_be_an_int_id(self):
        # A numpy integer and a float reached the flow engines and failed
        # there; every function that takes a terminal refuses them by name,
        # as it refuses True, also where True equals the terminal's id 1.
        g = butterfly_graph()
        t = g.terminal_ids[0]
        lone = from_edges(0, 1, [])
        cases = [(g, np.int64(t)), (g, np.int32(t)), (g, float(t)), (g, str(t)), (lone, True)]
        for graph, bad in cases:
            for check in (min_cut, edge_disjoint_paths, lambda g, t: cut_capacity(g, t, [])):
                with pytest.raises(ValueError) as info:
                    check(graph, bad)
                assert str(info.value) == f"unknown terminal id {bad}"

    def test_disconnected_terminal(self):
        g = from_edges(2, 1, [(0, 1), (0, 2)])
        assert min_cut(g, 3).capacity == 0

    def test_certificate_value_matches_cut_capacity(self):
        for seed in range(20):
            g = random_graph(seed)
            for t in g.terminal_ids:
                res = min_cut(g, t)
                assert cut_capacity(g, t, res.partition_vk) == res.capacity

    def test_oracle_equivalence_100_random_graphs(self):
        for seed in range(100):
            g = random_graph(1000 + seed)
            t = g.terminal_ids[0]
            assert min_cut(g, t).capacity == brute_force_min_cut(g, t).capacity


class TestBruteForce:
    def test_single_relay_tie_breaks_to_empty_partition(self):
        g = from_edges(1, 1, [(0, 1), (1, 2)])
        res = brute_force_min_cut(g, 2)
        assert res.capacity == 1
        assert res.partition_vk == ()

    def test_no_relays(self):
        g = from_edges(0, 1, [])
        assert brute_force_min_cut(g, 1).capacity == 0

    def test_size_guard(self):
        g = build_connectivity_graph(21, 1, FIG3, RandomStream.from_seed(0))
        with pytest.raises(ValueError):
            brute_force_min_cut(g, g.terminal_ids[0])

    def test_minimal_partitions_are_pinned(self):
        # The partition, not only the capacity: 125 of these 159 cuts have
        # more than one minimal partition, so the tie-break is pinned too.
        records = []
        for seed in range(80):
            g = random_graph(seed, n_relays=4 + seed % 7, n_terminals=1 + seed % 3)
            for t in g.terminal_ids:
                cut = brute_force_min_cut(g, t)
                records.append([cut.capacity, list(cut.partition_vk)])
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == ORACLE_PIN


class TestMulticastCapacity:
    def test_single_terminal_equals_min_cut(self):
        g = random_graph(11, n_terminals=1)
        assert multicast_capacity(g) == min_cut(g, g.terminal_ids[0]).capacity

    def test_butterfly(self):
        g = butterfly_graph()
        assert min_cut(g, 5).capacity == 2
        assert min_cut(g, 6).capacity == 2
        assert multicast_capacity(g) == 2
        assert brute_force_min_cut(g, 5).capacity == 2

    def test_bounded_by_source_and_terminal_degrees(self):
        for seed in range(10):
            g = random_graph(50 + seed)
            cap = multicast_capacity(g)
            assert cap <= g.source_degree()
            for t in g.terminal_ids:
                assert cap <= int(np.count_nonzero(g.edges == t))

    def test_monotone_under_edge_addition(self):
        for seed in range(10):
            g = random_graph(200 + seed)
            before = multicast_capacity(g)
            present = set(g.edge_list())
            absent = [
                (i, j)
                for i in [0] + g.relay_ids
                for j in g.relay_ids
                if i < j and (i, j) not in present
            ]
            if not absent:
                continue
            i, j = absent[seed % len(absent)]
            grown = from_edges(g.n_relays, g.n_terminals, g.edge_list() + [(i, j)])
            assert multicast_capacity(grown) >= before

    def test_terminal_terminal_edge_cannot_change_capacity(self):
        # Re-adding a terminal-terminal proximity edge by hand (bypassing the
        # constructor guard) leaves every s-t computation unchanged.
        g = random_graph(77, n_terminals=2)
        t1, t2 = g.terminal_ids
        caps_before = [min_cut(g, t).capacity for t in g.terminal_ids]
        patched = object.__new__(type(g))
        for name, value in g.__dict__.items():
            object.__setattr__(patched, name, value)
        object.__setattr__(patched, "edges", np.vstack([g.edges, [(t1, t2)]]))
        caps_after = [min_cut(patched, t).capacity for t in patched.terminal_ids]
        assert caps_before == caps_after


class TestFlowCertificate:
    def test_paths_are_edge_disjoint_and_relay_routed(self):
        for seed in range(15):
            g = random_graph(300 + seed)
            t = g.terminal_ids[0]
            cap = min_cut(g, t).capacity
            paths = edge_disjoint_paths(g, t)
            assert len(paths) == cap
            edges = set(g.edge_list())
            used = set()
            for path in paths:
                assert path[0] == 0 and path[-1] == t
                assert len(path) >= 3  # at least one relay in between
                for u, v in zip(path, path[1:]):
                    key = (min(u, v), max(u, v))
                    assert key not in used
                    used.add(key)
                    assert key in edges

    def test_long_chain_needs_no_recursion(self):
        # s - r1 - ... - r1199 - t: 1200 hops, deeper than the default
        # interpreter recursion limit.
        hops = 1200
        g = from_edges(hops - 1, 1, [(k, k + 1) for k in range(hops)])
        res = min_cut(g, hops)
        assert res.capacity == 1
        assert res.partition_vk == ()
        assert edge_disjoint_paths(g, hops) == [list(range(hops + 1))]


class TestJson:
    def test_round_trip(self, tmp_path):
        g = random_graph(9)
        path = tmp_path / "g.json"
        save_graph(g, str(path))
        loaded = load_graph(str(path))
        assert np.array_equal(loaded.edges, g.edges)
        assert loaded.model == g.model
        assert loaded.terminal_ids == g.terminal_ids

    def test_edge_list_sorted_i_lt_j(self):
        g = random_graph(10)
        obj = graph_to_json(g)
        edges = obj["edges"]
        assert edges == sorted(edges)
        assert all(i < j for i, j in edges)

    def test_schema_fields(self):
        g = random_graph(12)
        obj = graph_to_json(g)
        assert set(obj) == {"n_relays", "terminals", "positions", "edges", "model", "seed"}
        assert len(obj["positions"]) == g.n_nodes
        rebuilt = graph_from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(rebuilt.edges, g.edges)

    def test_role_guards_on_load(self):
        with pytest.raises(ValueError):
            from_edges(2, 1, [(0, 3)])  # source-terminal
        with pytest.raises(ValueError):
            from_edges(1, 2, [(2, 3)])  # terminal-terminal

    def test_from_edges_canonicalises_pairs(self):
        g = from_edges(3, 1, [(2, 1), (1, 2), (4, 3), (0, 1), (3, 4), (0, 1)])
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 1], [1, 2], [3, 4]]
        for bad in ([(1, 1)], [(0, 5)], [(-1, 1)], [(0, 1, 2)], [(0.5, 1)]):
            with pytest.raises(ValueError):
                from_edges(3, 1, bad)

    @pytest.mark.parametrize("rows", [
        [[1, 2], [0, 1]],  # unsorted
        [[0, 1], [0, 1]],  # duplicate
        [[0, 1], [3, 6]],  # out of range
        [[-1, 1]],         # negative id
        [[2, 1]],          # i > j
        [[1, 1]],          # self-loop
        [[0, 4]],          # source-terminal
        [[4, 5]],          # terminal-terminal
    ])
    def test_constructor_rejects_non_canonical_rows(self, rows):
        with pytest.raises(ValueError):
            ConnectivityGraph(3, 2, np.array(rows, dtype=np.int64))

    def test_constructor_rejects_bad_shapes(self):
        ConnectivityGraph(3, 2, np.array([[0, 1], [1, 4], [3, 5]]), np.zeros((6, 2)))
        with pytest.raises(ValueError):
            ConnectivityGraph(3, 1, np.array([0, 1]))
        with pytest.raises(ValueError):
            ConnectivityGraph(3, 1, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            ConnectivityGraph(3, 1, np.empty((0, 2), np.int64), np.zeros((4, 2)))

    def test_load_rejects_malformed_documents(self):
        obj = graph_to_json(random_graph(13, n_relays=5, n_terminals=2))
        graph_from_json(obj)
        for key, value in [
            ("terminals", [7, 8]),           # ids must follow the relays
            ("terminals", [7, 6]),
            ("positions", [[0.1]] * 8),      # not (n_nodes, 2)
            ("positions", [[0.1, 0.2]] * 7),
            ("edges", [[0, 6]]),             # source-terminal
            ("n_relays", 5.9),               # int() would make these 5
            ("n_relays", 5.0),
            ("n_relays", "5"),
        ]:
            with pytest.raises(ValueError):
                graph_from_json({**obj, key: value})
        one_relay = {"n_relays": 1, "terminals": [2], "edges": [[0, 1]]}
        graph_from_json(one_relay)
        for key, value in [
            ("n_relays", True),              # int() would make this 1
            ("terminals", []),
        ]:
            with pytest.raises(ValueError, match=key):
                graph_from_json({**one_relay, key: value})
        for value, shown in [(True, "True"), (5.0, "5.0"), ("5", "'5'"), (None, "None")]:
            with pytest.raises(ValueError) as info:
                graph_from_json({**one_relay, "n_relays": value})
            assert str(info.value) == f"n_relays must be an integer, not {shown}"
        model = {"r": 0.1, "r_prime": 0.2, "kernel": "fixed", "p": 0.5}
        graph_from_json({**one_relay, "model": model})
        for key, value in [
            ("r", True),                     # range checks alone let bools through
            ("r_prime", True),
            ("p", True),
            ("p", False),
            ("r", "0.1"),
            ("r_prime", None),
            ("kernel", 1),
            ("kernel", ["fixed"]),
        ]:
            with pytest.raises(ValueError, match=key):
                graph_from_json({**one_relay, "model": {**model, key: value}})
        with pytest.raises(ValueError):
            graph_from_json({"n_relays": 2, "terminals": [7], "positions": [[0.1], [0.2]],
                             "edges": []})
        for key in ["n_relays", "terminals", "edges"]:
            with pytest.raises(ValueError):
                graph_from_json({k: v for k, v in obj.items() if k != key})
            with pytest.raises(ValueError):
                graph_from_json({**obj, key: None})

    def test_node_ids_must_fit_in_31_bits(self):
        # The flows hold node ids as int32. n_relays 10**30 used to fail in
        # the constructor's sort check with "Python int too large to
        # convert to C long".
        none = np.empty((0, 2), dtype=np.int64)
        assert ConnectivityGraph(2**31 - 2, 1, none).n_nodes == 2**31
        with pytest.raises(ValueError) as info:
            ConnectivityGraph(2**31 - 1, 1, none)
        assert str(info.value) == "a graph holds at most 2**31 nodes, not 2147483649"
        big = 10**30
        with pytest.raises(ValueError, match=r"^a graph holds at most 2\*\*31 nodes, not 10+2$"):
            graph_from_json({"n_relays": big, "terminals": [big + 1], "edges": [[0, 1]]})

    def test_load_rejects_non_integers_in_edges_and_terminals(self):
        # A bool joins an integer edge array as 0 or 1, and [True] equals
        # [1] in the terminal ids' comparison, so both used to load.
        doc = {"n_relays": 2, "terminals": [3], "edges": [[0, 1], [1, 2], [2, 3]]}
        graph_from_json(doc)
        for key, value in [
            ("edges", [[False, True], [True, 2], [2, 3]]),
            ("edges", [[0, 1], [1, 2], [2, True]]),
            ("edges", [[0, 1], [1, 2.0], [2, 3]]),
            ("edges", [[0, 1], [1, "2"], [2, 3]]),
            ("terminals", [True]),
            ("terminals", [3.0]),
        ]:
            with pytest.raises(ValueError, match=f"^{key} must hold integers only"):
                graph_from_json({**doc, key: value})
        no_relay = {"n_relays": 0, "terminals": [1], "edges": []}
        graph_from_json(no_relay)
        with pytest.raises(ValueError, match="^terminals must hold integers only"):
            graph_from_json({**no_relay, "terminals": [True]})


class TestAtomicWrite:
    def test_a_fifo_is_written_in_place(self, tmp_path):
        # A rename would put a regular file where the FIFO was (as it would
        # replace a device node or the /dev/stdout symlink).
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        write_text_atomic(str(fifo), "through the pipe\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ["through the pipe\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_a_failed_rename_keeps_the_old_target_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_text_atomic(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)],
                             ids=["umask022", "umask002", "umask077"])
    def test_files_get_the_mode_open_would_give(self, tmp_path, umask, mode):
        # mkstemp makes its temp file 0o600, and the rename used to keep
        # that mode for new and replaced files alike.
        old = os.umask(umask)
        try:
            write_text_atomic(str(tmp_path / "new.json"), "new\n")
            kept = tmp_path / "kept.json"
            kept.write_text("old\n")
            os.chmod(kept, 0o640)
            write_text_atomic(str(kept), "new\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == mode
        assert kept.read_text() == "new\n"
        assert stat.S_IMODE(os.stat(kept).st_mode) == 0o640

    def test_a_symlink_keeps_pointing_at_the_rewritten_file(self, tmp_path):
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "out.json"
        real.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        write_text_atomic(str(link), "new\n")
        assert link.is_symlink() and real.read_text() == "new\n"
        assert not list(tmp_path.rglob("*.tmp"))


def _flow_record(graphs) -> str:
    """sha256 over each terminal's cut certificate and chosen paths."""
    records = []
    for g in graphs:
        for t in g.terminal_ids:
            cut = min_cut(g, t)
            records.append([
                cut.capacity,
                list(cut.partition_vk),
                edge_disjoint_paths(g, t),
                edge_disjoint_paths(g, t, limit=max(cut.capacity - 1, 0)),
            ])
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


class TestFlowPin:
    def test_cuts_and_path_selection_are_pinned(self):
        # RLNC success fractions depend on which paths the flow picks, so the
        # choice itself is pinned, not only the capacity.
        graphs = [random_graph(seed, n_relays=30, n_terminals=2 + seed % 3)
                  for seed in range(30)]
        graphs += [
            build_connectivity_graph(200, 2 + seed % 3, FIG3, RandomStream.from_seed(seed))
            for seed in range(10)
        ]
        assert _flow_record(graphs) == FLOW_PIN

    def test_flow_at_scale_is_pinned(self):
        # Large graphs take several Dinic phases, so this pins every phase's
        # augmenting paths, not only the few phases an n=200 flow has.
        graphs = [
            build_connectivity_graph(n, tau, FIG3, RandomStream.from_seed(seed))
            for n, tau, seed in [(1000, 2, 41), (1000, 1, 42), (2000, 1, 43)]
        ]
        records = []
        for g in graphs:
            for t in g.terminal_ids:
                flow = _max_flow(g, t)
                records.append([int(flow.value), np.asarray(flow.level, int).tolist(),
                                np.asarray(flow.hops, int).tolist(), list(flow.ends)])
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == SCALE_FLOW_PIN


def assert_replay_takes_disjoint_paths(g, t, flow) -> int:
    """At every limit from 0 to flow.value + 1, flow.paths(limit) is
    min(limit, value) paths from the source through relays to t, over edges
    of g, and no edge is used twice; returns the number of limits checked."""
    edges = set(g.edge_list())
    for limit in range(flow.value + 2):
        paths = flow.paths(limit)
        assert len(paths) == min(limit, flow.value), limit
        hops = [(min(u, v), max(u, v)) for path in paths for u, v in zip(path, path[1:])]
        assert set(hops) <= edges and len(set(hops)) == len(hops), limit
        for path in paths:
            assert path[0] == 0 and path[-1] == t
            assert all(1 <= v <= g.n_relays for v in path[1:-1])
    return flow.value + 2


class TestFlowReplay:
    def test_replayed_paths_are_disjoint_paths_of_the_graph(self):
        # The coding check takes its paths from the min-cut flow: the first
        # `limit` augmentations, replayed, must be `limit` edge-disjoint
        # paths of the graph, at every limit and across Dinic phases.
        graphs = [random_graph(seed, n_relays=12 + 4 * (seed % 13), n_terminals=1 + seed % 4)
                  for seed in range(150)]
        graphs += [build_connectivity_graph(200, 4, FIG3, RandomStream.from_seed(seed))
                   for seed in range(5)]
        graphs.append(build_connectivity_graph(1000, 2, FIG3, RandomStream.from_seed(0)))
        cases, phases = 0, []
        for g in graphs:
            for t in g.terminal_ids:
                cut = min_cut(g, t)
                assert cut.flow.paths() == edge_disjoint_paths(g, t)
                cases += assert_replay_takes_disjoint_paths(g, t, cut.flow)
                for limit in range(cut.capacity + 2):
                    assert cut.flow.paths(limit) == edge_disjoint_paths(g, t, limit), (t, limit)
                # A Dinic phase's augmenting paths all have the length of
                # that phase, and the length grows from phase to phase.
                phases.append(len(set(np.diff((0, *cut.flow.ends)))))
        assert cases > 3500
        assert max(phases) >= 5 and phases.count(1) < len(phases) / 4

    def test_replay_across_a_cancelled_arc(self):
        # Phase 1 routes s-1-2-t; phase 2 needs s-3-4-2-1-5-6-t, which turns
        # the flow on 1-2 back; phase 3 takes the 8-hop chain through 8..14.
        # Replaying two paths must cancel 1-2 rather than keep it.
        edges = [(0, 1), (1, 2), (2, 15), (0, 3), (3, 4), (2, 4), (1, 5), (5, 6), (6, 15),
                 (0, 8), *[(k, k + 1) for k in range(8, 14)], (14, 15)]
        g = from_edges(14, 1, edges)
        flow = min_cut(g, 15).flow
        assert flow.ends == (3, 10, 18)
        # Edge 1-2 is crossed both ways.
        assert flow.hops.tolist() == [1, 2, 15, 3, 4, 2, 1, 5, 6, 15, *range(8, 16)]
        assert flow.paths(1) == [[0, 1, 2, 15]]
        assert flow.paths(2) == [[0, 1, 5, 6, 15], [0, 3, 4, 2, 15]]
        assert assert_replay_takes_disjoint_paths(g, 15, flow) == 5

    def test_arcs_are_the_replayed_paths_arcs_at_every_limit(self):
        # Flow.arcs nets the hops in numpy, Flow.paths replays them in
        # Python: at every limit, the arcs carrying a unit are the paths'
        # consecutive pairs, each once, and both clamp a limit outside
        # 0..value. The graphs are FLOW_PIN's, and the cancelled-arc chain.
        graphs = [random_graph(seed, n_relays=30, n_terminals=2 + seed % 3)
                  for seed in range(30)]
        graphs += [build_connectivity_graph(200, 2 + seed % 3, FIG3, RandomStream.from_seed(seed))
                   for seed in range(10)]
        graphs.append(from_edges(14, 1, [
            (0, 1), (1, 2), (2, 15), (0, 3), (3, 4), (2, 4), (1, 5), (5, 6), (6, 15),
            (0, 8), *[(k, k + 1) for k in range(8, 14)], (14, 15)]))
        limits = 0
        for g in graphs:
            for t in g.terminal_ids:
                flow = min_cut(g, t).flow
                for limit in range(-1, flow.value + 2):
                    replay = sorted(u * g.n_nodes + v for path in flow.paths(limit)
                                    for u, v in zip(path, path[1:]))
                    arcs = flow.arcs(limit)
                    assert arcs.dtype == np.int64 and arcs.tolist() == replay, (t, limit)
                    limits += 1
        assert limits > 1000

    def test_min_cut_carries_its_flow_outside_equality(self):
        g = butterfly_graph()
        cut = min_cut(g, 5)
        assert cut.flow.terminal == 5 and cut.flow.value == cut.capacity == 2
        assert cut == brute_force_min_cut(g, 5)
        assert brute_force_min_cut(g, 5).flow is None
        assert "flow" not in repr(cut)


def _scipy_max_flow(graph, terminal) -> int:
    """Max flow by scipy over a directed reduction built from edge_list():
    source->relay, relay<->relay and relay->terminal arcs of capacity 1."""
    sparse = pytest.importorskip("scipy.sparse")
    from scipy.sparse.csgraph import maximum_flow

    relays = set(graph.relay_ids)
    arcs = []
    for i, j in graph.edge_list():
        if i == 0 and j in relays:
            arcs.append((0, j))
        elif i in relays and j in relays:
            arcs += [(i, j), (j, i)]
        elif i in relays and j == terminal:
            arcs.append((i, terminal))
    rows, cols = np.array(arcs).T
    n = graph.n_nodes
    matrix = sparse.csr_matrix((np.ones(len(arcs), np.int32), (rows, cols)), shape=(n, n))
    return int(maximum_flow(matrix, 0, terminal).flow_value)


class TestScipyOracle:
    @pytest.mark.parametrize("n_relays, seeds", [(200, range(6)), (1000, range(3))])
    def test_min_cut_matches_scipy_max_flow(self, n_relays, seeds):
        # The exhaustive oracle stops at BRUTE_FORCE_MAX_RELAYS relays; this
        # one reaches the fig3 and bound-audit scales.
        for seed in seeds:
            g = build_connectivity_graph(
                n_relays, 1 + seed % 3, FIG3, RandomStream.from_seed(500 + seed)
            )
            for t in g.terminal_ids:
                cut = min_cut(g, t)
                assert cut.capacity == _scipy_max_flow(g, t)
                assert cut_capacity(g, t, cut.partition_vk) == cut.capacity


def assert_same_flow(a, b):
    """Field-for-field equality of two Flows, dtypes included."""
    assert (a.terminal, a.value, a.ends) == (b.terminal, b.value, b.ends)
    for name in ("level", "hops"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_engines_agree(graphs):
    for g in graphs:
        for t in g.terminal_ids:
            assert_same_flow(_csr_flow(g, t), _bitset_flow(g, t))


def sparse_model(r_prime):
    return ConnectionModel(r=r_prime / 2, r_prime=r_prime, kernel="fixed", p=0.5)


class TestFlowEngines:
    # _max_flow runs dense networks on bitset rows and sparse ones on numpy
    # arc arrays; every caller relies on the two giving the same Flow.

    def test_engines_agree_on_the_pinned_graphs(self):
        graphs = [random_graph(seed, n_relays=30, n_terminals=2 + seed % 3)
                  for seed in range(30)]
        graphs += [build_connectivity_graph(200, 2 + seed % 3, FIG3, RandomStream.from_seed(seed))
                   for seed in range(10)]
        graphs += [build_connectivity_graph(n, tau, FIG3, RandomStream.from_seed(seed))
                   for n, tau, seed in [(1000, 2, 41), (1000, 1, 42), (2000, 1, 43)]]
        assert_engines_agree(graphs)

    @pytest.mark.parametrize("n, r_prime", [(2000, 0.05), (2000, 0.02), (5000, 0.03)])
    def test_engines_agree_on_sparse_geometric_graphs(self, n, r_prime):
        g = build_connectivity_graph(n, 2, sparse_model(r_prime), RandomStream.from_seed(n))
        assert_engines_agree([g])

    def test_engines_agree_on_the_long_chain(self):
        hops = 1200
        g = from_edges(hops - 1, 1, [(k, k + 1) for k in range(hops)])
        assert_engines_agree([g])

    def test_switch_picks_rows_only_for_dense_networks(self, monkeypatch):
        chosen = []
        for name in ("_csr_flow", "_bitset_flow"):
            monkeypatch.setattr(graph_module, name,
                                lambda g, t, name=name: chosen.append(name))
        chain = from_edges(1199, 1, [(k, k + 1) for k in range(1200)])
        # A few edges among a huge number of relays: rows would be O(n^2) bits.
        scattered = graph_from_json({"n_relays": 10**6, "terminals": [10**6 + 1],
                                     "edges": [[0, 1], [1, 2], [2, 10**6 + 1]]})
        graphs = [
            build_connectivity_graph(200, 1, FIG3, RandomStream.from_seed(1)),   # degree 13
            build_connectivity_graph(2000, 1, FIG3, RandomStream.from_seed(1)),  # degree 134
            build_connectivity_graph(2000, 1, sparse_model(0.05), RandomStream.from_seed(1)),
            chain,
            scattered,
            wheatstone_graph(),  # 4 nodes and 3 edges: one word per row
        ]
        for g in graphs:
            _max_flow(g, g.terminal_ids[0])
        assert chosen == ["_bitset_flow", "_bitset_flow", "_csr_flow", "_csr_flow",
                          "_csr_flow", "_bitset_flow"]

    def test_shared_rows_leak_nothing_between_terminals(self):
        # The bitset engine packs a graph's rows once and every terminal's
        # flow starts from them: no flow may see another's changes, so the
        # order of the terminals and a fresh graph object change nothing.
        graphs = [build_connectivity_graph(200, 2 + seed % 3, FIG3, RandomStream.from_seed(seed))
                  for seed in range(9)]
        graphs += [random_graph(seed, n_relays=30, n_terminals=2 + seed % 3)
                   for seed in range(9)]
        for g in graphs:
            fresh = {t: min_cut(from_edges(g.n_relays, g.n_terminals, g.edges), t).flow
                     for t in g.terminal_ids}
            forward = {t: min_cut(g, t).flow for t in g.terminal_ids}
            backward = {t: min_cut(g, t).flow for t in reversed(g.terminal_ids)}
            for t in g.terminal_ids:
                assert_same_flow(forward[t], fresh[t])
                assert_same_flow(backward[t], fresh[t])
                assert_same_flow(_csr_flow(g, t), fresh[t])
            # A dense network's flows ran on the rows and left them packed.
            dense = -(-g.n_nodes // 64) * g.n_nodes <= 2 * len(g.edges)
            assert ("_rows" in vars(g)) == dense
            assert g._rows == _oracle_rows(g)
        # A lone terminal's flow packs its own rows and keeps none on the graph.
        lone = build_connectivity_graph(2000, 1, FIG3, RandomStream.from_seed(1))
        assert_same_flow(min_cut(lone, lone.terminal_ids[0]).flow,
                         _csr_flow(lone, lone.terminal_ids[0]))
        assert "_rows" not in vars(lone)

    def test_sparse_flow_memory_does_not_grow_with_idle_nodes(self):
        # Three edges among a million relays: the phases run on the four
        # nodes the arcs touch, so what is left per relay is the Flow's int32
        # level and min_cut's mask over it, 5 bytes. Phases over every node
        # would take 36.
        n = 10**6
        g = from_edges(n, 1, [(0, 1), (1, 2), (2, n + 1)])
        tracemalloc.start()
        try:
            cut = min_cut(g, n + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cut.capacity == 1 and cut.flow.paths() == [[0, 1, 2, n + 1]]
        assert cut.flow.level.shape == (n + 2,)
        assert peak < 8 * n, peak / n

    def test_cancellation_from_the_upper_endpoint(self):
        # The mirror of test_replay_across_a_cancelled_arc: phase 1 routes
        # s-2-1-t, from the upper endpoint of edge 1-2; phase 2 reaches 1 by
        # s-3-4-1 and crosses 1-2 back to 2, cancelling that flow. Both
        # engines must record these hops, and two replayed paths leave 1-2
        # without flow.
        edges = [(0, 2), (1, 2), (1, 15), (0, 3), (3, 4), (1, 4), (2, 5), (5, 6), (6, 15),
                 (0, 8), *[(k, k + 1) for k in range(8, 14)], (14, 15)]
        g = from_edges(14, 1, edges)
        for flow in (_csr_flow(g, 15), _bitset_flow(g, 15), min_cut(g, 15).flow):
            assert flow.ends == (3, 10, 18)
            assert flow.hops.tolist() == [2, 1, 15, 3, 4, 1, 2, 5, 6, 15, *range(8, 16)]
            assert flow.paths(2) == [[0, 2, 5, 6, 15], [0, 3, 4, 1, 15]]

    def test_a_cancelling_hop_leaves_the_other_arc_live(self):
        # Phase 1 routes s-1-2-t, so relay 2 has two live arcs to 1; phase 2
        # routes s-3-2-1-4-t and spends one of them. The other stays live, so
        # the final residual network reaches 1 by s-5-2-1 and the source side
        # of the cut holds it.
        g = from_edges(5, 1, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (2, 6),
                              (4, 6)])
        for flow in (_csr_flow(g, 6), _bitset_flow(g, 6)):
            assert flow.hops.tolist() == [1, 2, 6, 3, 2, 1, 4, 6]
            assert flow.level.tolist() == [0, 3, 2, 3, -1, 1, -1]
        cut = min_cut(g, 6)
        assert cut.partition_vk == (1, 2, 3, 5)
        assert cut_capacity(g, 6, cut.partition_vk) == cut.capacity == 2


def _oracle_rows(graph):
    """The residual rows before any flow, from Python sets of the edges:
    source -> relay, relay <-> relay and relay -> terminal arcs, into every
    terminal."""
    relays = set(graph.relay_ids)
    arcs = set()
    for i, j in graph.edge_list():
        if i == 0 or j in relays or j in graph.terminal_ids:
            arcs.add((i, j))
        if i in relays and j in relays:
            arcs.add((j, i))
    rows = [0] * graph.n_nodes
    for u, v in arcs:
        rows[u] |= 1 << v
    return rows


def _random_edge_graph(seed, n_relays, n_terminals, density):
    """Each role-allowed pair an edge with probability `density`, and relay
    1 adjacent to the source and to every terminal."""
    rng = np.random.default_rng(seed)
    first_t = 1 + n_relays
    iu, ju = np.triu_indices(first_t + n_terminals, k=1)
    allowed = (ju < first_t) | ((iu > 0) & (iu < first_t))
    pick = allowed & (rng.random(len(iu)) < density)
    edges = {*zip(iu[pick].tolist(), ju[pick].tolist()), (0, 1)}
    edges |= {(1, t) for t in range(first_t, first_t + n_terminals)}
    return from_edges(n_relays, n_terminals, sorted(edges))


class TestResidualRows:
    def test_rows_match_the_edge_set_oracle(self):
        # Densities from a few edges per node to most pairs, so the rows are
        # packed all at once, in blocks, and one row per block.
        graphs = [_random_edge_graph(seed, n_relays, 1 + seed % 4, density)
                  for seed, (n_relays, density) in enumerate(itertools.product(
                      (1, 5, 40, 150, 300), (0.0002, 0.002, 0.01, 0.05, 0.2, 0.7)))]
        graphs += [build_connectivity_graph(200, 1 + seed % 4, FIG3, RandomStream.from_seed(seed))
                   for seed in range(4)]
        whole = [g.n_nodes ** 2 <= 32 * len(g.edges) for g in graphs]
        assert any(whole) and not all(whole)
        assert any(20 * len(g.edges) < g.n_nodes for g in graphs)  # one row a block
        for g in graphs:
            assert _residual_rows(g) == _oracle_rows(g), (g.n_nodes, len(g.edges))
        assert_engines_agree(graphs)

    def test_packing_memory_just_above_the_engine_switch(self):
        # The fewest edges for which _max_flow takes the rows at n = 2000:
        # the packing works in blocks and its temporaries stay within about
        # 16 bytes per arc, as the CSR engine's int64 arc order would take.
        n_relays, n_terminals = 1997, 2
        n = 1 + n_relays + n_terminals
        rng = np.random.default_rng(6)
        edges = {(0, 1), (1, n - 1), (1, n - 2)}
        while len(edges) < -(-n // 64) * n // 2:
            i, j = sorted(rng.integers(0, n - 2, 2).tolist())
            if i != j:
                edges.add((i, j))
        edges |= {(k, n - 1 - k % 2) for k in range(2, 60)}
        g = from_edges(n_relays, n_terminals, sorted(edges))
        assert -(-n // 64) * n <= 2 * len(g.edges) < -(-n // 64) * n + 200
        tracemalloc.start()
        try:
            rows = _residual_rows(g)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arcs = sum(row.bit_count() for row in rows)
        assert 60_000 < arcs <= 2 * len(g.edges)
        assert peak - retained <= 16 * arcs
        assert rows == _oracle_rows(g)


@st.composite
def small_graphs(draw):
    n_relays = draw(st.integers(0, 12))
    n_terminals = draw(st.integers(1, 3))
    first_t = 1 + n_relays
    allowed = [(i, j) for i in range(first_t) for j in range(i + 1, first_t + n_terminals)
               if not (i == 0 and j >= first_t)]
    edges = sorted(draw(st.sets(st.sampled_from(allowed)))) if allowed else []
    terminal = draw(st.integers(first_t, first_t + n_terminals - 1))
    return from_edges(n_relays, n_terminals, edges), terminal


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_engines_agree_with_the_exhaustive_oracle(case):
    g, t = case
    flow = _csr_flow(g, t)
    assert_same_flow(flow, _bitset_flow(g, t))
    # The hops are s-t paths of the graph itself, shortest first, as Dinic
    # finds them: a check against the graph, not against the other engine.
    edges = set(g.edge_list())
    lengths = np.diff((0, *flow.ends)).tolist()
    assert len(lengths) == flow.value and sum(lengths) == len(flow.hops)
    assert lengths == sorted(lengths)
    for a, b in zip((0, *flow.ends), flow.ends):
        path = [0, *flow.hops[a:b].tolist()]
        assert path[-1] == t
        assert all((min(u, v), max(u, v)) in edges for u, v in zip(path, path[1:]))
    assert_replay_takes_disjoint_paths(g, t, flow)
    cut = min_cut(g, t)
    assert cut.capacity == brute_force_min_cut(g, t).capacity
    assert cut_capacity(g, t, cut.partition_vk) == cut.capacity
