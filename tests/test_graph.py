import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from qrggsim import (
    ConnectionModel,
    ConnectivityGraph,
    RandomStream,
    brute_force_min_cut,
    build_connectivity_graph,
    butterfly_graph,
    cut_capacity,
    edge_disjoint_paths,
    from_edges,
    graph_from_json,
    graph_to_json,
    load_graph,
    min_cut,
    multicast_capacity,
    save_graph,
    wheatstone_graph,
)
from qrggsim import graph as graph_module
from qrggsim.graph import _max_flow, _near_pairs
from qrggsim.model import kernel_probability

FIG3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
FLOW_PIN = "8d16df39d7082cd8b5782647f5ce4251a1a6ff6f2fd444cd36f8db8ff4e2915e"
SCALE_FLOW_PIN = "50d18f408224bb4996b401f7b4e616f74c1a27859e5b934ec4502d311b140941"


def random_graph(seed, n_relays=None, n_terminals=None):
    rng = RandomStream.from_seed(seed)
    pick = rng.child("shape")
    n = n_relays if n_relays is not None else int(pick.integers(4, 13))
    tau = n_terminals if n_terminals is not None else int(pick.integers(1, 4))
    model = ConnectionModel(
        r=float(pick.uniform(0.05, 0.3)),
        r_prime=float(pick.uniform(0.3, 0.6)),
        kernel="fixed",
        p=float(pick.uniform(0.0, 1.0)),
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
    ])
    def test_hand_placed_points_match_all_pairs(self, radius, extra, some_pairs):
        positions = np.array(LATTICE + AT_RADIUS + extra)
        iu, ju = _near_pairs(positions, radius)
        ref_i, ref_j = _all_pairs_within(positions, radius)
        np.testing.assert_array_equal(iu, ref_i)
        np.testing.assert_array_equal(ju, ref_j)
        assert some_pairs <= set(zip(iu.tolist(), ju.tolist()))

    def test_tiny_radius_keeps_the_grid_small(self):
        # 2 / r' would be 2e9 cells a side; the grid keeps about N cells.
        positions = RandomStream.from_seed(4).random((1000, 2))
        positions[1] = positions[0]
        tracemalloc.start()
        try:
            iu, ju = _near_pairs(positions, 1e-9)
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

    def test_kernel_sees_only_pairs_within_r_prime(self, monkeypatch):
        # A fallback to all pairs would give the same graph, so this counts
        # the distances the kernel receives.
        seen = []

        def counting_kernel(d, model):
            seen.append(len(d))
            return kernel_probability(d, model)

        monkeypatch.setattr(graph_module, "kernel_probability", counting_kernel)
        g = build_connectivity_graph(2000, 1, FIG3, RandomStream.from_seed(8))
        iu, ju = _all_pairs_within(g.positions, FIG3.r_prime)
        first_t = 1 + g.n_relays
        allowed = np.count_nonzero((ju < first_t) | ((iu > 0) & (iu < first_t)))
        assert seen == [allowed]
        assert 150_000 < allowed < 300_000  # of 2,003,001 pairs

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
        ]:
            with pytest.raises(ValueError):
                graph_from_json({**obj, key: value})
        with pytest.raises(ValueError):
            graph_from_json({"n_relays": 2, "terminals": [7], "positions": [[0.1], [0.2]],
                             "edges": []})
        for key in ["n_relays", "terminals", "edges"]:
            with pytest.raises(ValueError):
                graph_from_json({k: v for k, v in obj.items() if k != key})
            with pytest.raises(ValueError):
                graph_from_json({**obj, key: None})


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
        # Large graphs take several Dinic phases, so this pins the phase-by-
        # phase residual network, not only the few phases an n=200 flow has.
        graphs = [
            build_connectivity_graph(n, tau, FIG3, RandomStream.from_seed(seed))
            for n, tau, seed in [(1000, 2, 41), (1000, 1, 42), (2000, 1, 43)]
        ]
        records = []
        for g in graphs:
            for t in g.terminal_ids:
                full = _max_flow(g, t)
                for flow in (full, _max_flow(g, t, full.value // 2)):
                    records.append([int(flow.value), np.asarray(flow.level, int).tolist(),
                                    np.asarray(flow.cap, int).tolist()])
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == SCALE_FLOW_PIN


class TestFlowReplay:
    def test_replayed_paths_equal_a_limited_run(self):
        # The coding check takes its paths from the min-cut flow: the first
        # `limit` augmentations, replayed, must give what a run stopped at
        # `limit` gives, at every limit and across Dinic phases.
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
                for limit in range(cut.capacity + 2):
                    assert cut.flow.paths(limit) == _max_flow(g, t, limit).paths(), (t, limit)
                    cases += 1
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
        assert np.bincount(flow.spent >> 1).max() == 2
        assert flow.paths(1) == [[0, 1, 2, 15]]
        assert flow.paths(2) == [[0, 1, 5, 6, 15], [0, 3, 4, 2, 15]]
        for limit in range(5):
            assert flow.paths(limit) == _max_flow(g, 15, limit).paths()

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
