import hashlib
import json
import tracemalloc

import pytest

from qrggsim import (
    ConnectionModel,
    RandomStream,
    brute_force_min_cut,
    build_coding_dag,
    build_connectivity_graph,
    butterfly_graph,
    from_edges,
    min_cut,
    multicast_capacity,
    verify_achievability,
    xor_relay_demo,
)
from qrggsim import rlnc
from qrggsim.gf256 import GF2, GF256
from qrggsim.rlnc import CODING_BLOCK, CodingDag, CyclicSkip

RLNC_PIN = "f6f8e3b74fb1f0f0fbd5c8317f727bfe786a42c7f160c66687504dfc636a74a1"


def assert_cycle_in_graph(skip, graph, min_nodes):
    """The reported cycle has distinct nodes, and each consecutive pair,
    wrapping around, is an edge of the graph."""
    cycle = skip.cycle
    assert len(set(cycle)) == len(cycle) >= min_nodes
    edges = set(graph.edge_list())
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(u, v), max(u, v)) in edges


class TestXorRelayDemo:
    @pytest.mark.parametrize("b1,b2", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_both_sides_decode(self, b1, b2):
        assert xor_relay_demo(b1, b2) == (b2, b1)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            xor_relay_demo(2, 0)


class TestBuildCodingDag:
    def test_single_path_two_arc_chain(self):
        g = from_edges(1, 1, [(0, 1), (1, 2)])
        dag = build_coding_dag(g, 1)
        assert isinstance(dag, CodingDag)
        assert dag.arcs == ((0, 1), (1, 2))
        assert dag.topo_order == (0, 1, 2)

    def test_butterfly_orients_bottleneck_toward_terminals(self):
        g = butterfly_graph()
        dag = build_coding_dag(g, 2)
        assert isinstance(dag, CodingDag)
        assert (3, 4) in dag.arcs  # mixing relay feeds the shared hop
        # two edge-disjoint arcs into each terminal
        assert sorted(len(dag.in_arcs[t]) for t in g.terminal_ids) == [2, 2]
        # path enumeration: every arc head is reachable after its tail
        pos = {v: i for i, v in enumerate(dag.topo_order)}
        assert all(pos[u] < pos[v] for u, v in dag.arcs)

    def test_rate_above_capacity_rejected(self):
        g = butterfly_graph()
        with pytest.raises(ValueError):
            build_coding_dag(g, 3)

    def test_opposing_orientations_yield_cyclic_skip(self, cyclic_graph):
        h = multicast_capacity(cyclic_graph)
        assert h >= 1
        result = build_coding_dag(cyclic_graph, h)
        assert isinstance(result, CyclicSkip)
        assert_cycle_in_graph(result, cyclic_graph, 2)

    def test_cycle_through_several_edges_yields_cyclic_skip(self, long_cycle_graph):
        # No edge is used both ways, so only the topological sort sees the cycle.
        assert multicast_capacity(long_cycle_graph) == 3
        result = build_coding_dag(long_cycle_graph, 3)
        assert isinstance(result, CyclicSkip)
        assert_cycle_in_graph(result, long_cycle_graph, 3)


class TestVerifyAchievability:
    def test_butterfly_random_coding(self):
        report = verify_achievability(butterfly_graph(), 1000, RandomStream.from_seed(9))
        assert report.h == 2
        assert not report.cyclic_skipped
        assert report.success_fraction >= 0.97
        assert report.field_poly == "0x11B"

    def test_single_path_always_succeeds(self):
        g = from_edges(1, 1, [(0, 1), (1, 2)])
        report = verify_achievability(g, 200, RandomStream.from_seed(4))
        assert report.h == 1
        assert report.success_fraction == 1.0

    def test_disconnected_is_vacuously_achievable(self):
        g = from_edges(1, 1, [(0, 1)])
        report = verify_achievability(g, 10, RandomStream.from_seed(4))
        assert report.h == 0
        assert report.success_fraction == 1.0

    def test_cyclic_graph_reported_in_band(self, cyclic_graph):
        report = verify_achievability(cyclic_graph, 10, RandomStream.from_seed(4))
        assert report.cyclic_skipped
        assert report.success_fraction == 0.0

    def test_long_cycle_reported_in_band(self, long_cycle_graph):
        report = verify_achievability(long_cycle_graph, 10, RandomStream.from_seed(4))
        assert report.h == 3
        assert report.cyclic_skipped
        assert report.success_fraction == 0.0

    def test_rate_equals_multicast_capacity_wherever_dag_builds(self):
        from qrggsim import ConnectionModel, build_connectivity_graph

        model = ConnectionModel(r=0.2, r_prime=0.4, kernel="fixed", p=0.5)
        checked = 0
        for seed in range(30):
            g = build_connectivity_graph(8, 2, model, RandomStream.from_seed(seed))
            h = multicast_capacity(g)
            dag = build_coding_dag(g, h)
            if isinstance(dag, CyclicSkip):
                continue
            report = verify_achievability(g, 20, RandomStream.from_seed(seed + 1))
            assert report.h == h
            checked += 1
        assert checked > 5

    def test_given_cuts_give_the_same_report(self):
        # run_trial hands over the cuts it computed; h and every draw must be
        # as if verify_achievability had computed them itself.
        model = ConnectionModel(r=0.2, r_prime=0.4, kernel="fixed", p=0.5)
        for seed in range(20):
            g = build_connectivity_graph(12, 1 + seed % 3, model, RandomStream.from_seed(seed))
            cuts = [min_cut(g, t) for t in g.terminal_ids]
            given = verify_achievability(g, 8, RandomStream.from_seed(seed), cuts=cuts)
            assert given == verify_achievability(g, 8, RandomStream.from_seed(seed))
            assert given.h == min(cut.capacity for cut in cuts)

    def test_cuts_must_be_flow_cuts_of_every_terminal_in_order(self):
        g = butterfly_graph()
        cuts = [min_cut(g, t) for t in g.terminal_ids]
        oracle = [brute_force_min_cut(g, t) for t in g.terminal_ids]
        assert oracle == cuts  # equal but for the flow, which == ignores
        for bad in (cuts[:1], cuts[::-1], oracle, [cut.capacity for cut in cuts], []):
            with pytest.raises(ValueError):
                verify_achievability(g, 8, RandomStream.from_seed(1), cuts=bad)
            with pytest.raises(ValueError):
                build_coding_dag(g, 2, bad)
        assert build_coding_dag(g, 2, cuts) == build_coding_dag(g, 2)

    def test_binary_field_fails_visibly_more_often(self):
        g = butterfly_graph()
        big = verify_achievability(g, 1000, RandomStream.from_seed(9))
        binary = verify_achievability(g, 1000, RandomStream.from_seed(9), field=GF2)
        assert binary.field_poly == "0x3"
        assert binary.success_fraction < big.success_fraction - 0.3

    def test_report_json(self):
        report = verify_achievability(butterfly_graph(), 50, RandomStream.from_seed(2))
        obj = report.to_json()
        assert set(obj) == {"h", "trials", "success_fraction", "cyclic_skipped", "field_poly"}

    def test_trials_guard(self):
        with pytest.raises(ValueError):
            verify_achievability(butterfly_graph(), 0, RandomStream.from_seed(1))


def _rlnc_record(graphs):
    """sha256 over each graph's coding DAG (or cyclic flag) and its
    achievability reports in both fields; also the number of cyclic graphs."""
    records, cyclic = [], 0
    for seed, g in enumerate(graphs):
        dag = build_coding_dag(g, multicast_capacity(g))
        if isinstance(dag, CyclicSkip):
            cyclic += 1
            records.append("cyclic")
        else:
            records.append([list(dag.topo_order), [list(a) for a in dag.arcs]])
        for field in (GF256, GF2):
            report = verify_achievability(g, 8, RandomStream.from_seed(seed), field=field)
            records.append(report.to_json())
    return hashlib.sha256(json.dumps(records).encode()).hexdigest(), cyclic


class TestRlncPin:
    def test_dags_and_reports_are_pinned(self):
        # The coefficient draws follow topo_order, so the order is pinned
        # along with the arcs and every report.
        small = ConnectionModel(r=0.2, r_prime=0.4, kernel="fixed", p=0.5)
        fig3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        graphs = [build_connectivity_graph(30, 2 + seed % 3, small, RandomStream.from_seed(seed))
                  for seed in range(30)]
        graphs += [build_connectivity_graph(200, 2 + seed % 3, fig3, RandomStream.from_seed(seed))
                   for seed in range(10)]
        digest, cyclic = _rlnc_record(graphs)
        assert 0 < cyclic < len(graphs)
        assert digest == RLNC_PIN


def reference_successes(graph, dag, trials, rng, field):
    """The coding check one trial at a time over plain Python lists, drawing
    from the same child streams: propagate the global vectors node by node in
    topological order, encode the message through each terminal's vectors,
    solve by list Gauss-Jordan and compare. Returns the successful trials."""
    mul, inv, h = field.mul.tolist(), field.inv.tolist(), dag.rate

    def combine(coeffs, vectors):
        acc = [0] * h
        for c, g in zip(coeffs, vectors):
            acc = [a ^ mul[c][x] for a, x in zip(acc, g)]
        return acc

    def solve(matrix, rhs):
        rows = [list(row) + [y] for row, y in zip(matrix, rhs)]
        for col in range(h):
            pivot = next((i for i in range(col, h) if rows[i][col]), None)
            if pivot is None:
                return None
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [mul[inv[rows[col][col]]][x] for x in rows[col]]
            for i in range(h):
                if i != col and rows[i][col]:
                    m = mul[rows[i][col]]
                    rows[i] = [x ^ m[y] for x, y in zip(rows[i], rows[col])]
        return [row[h] for row in rows]

    nodes = [u for u in dag.topo_order if dag.out_arcs.get(u)]
    n_ins = [h if u == graph.source else len(dag.in_arcs[u]) for u in nodes]
    lows = [int(n_in == 1) for u, n_in in zip(nodes, n_ins)
            for _ in range(n_in * len(dag.out_arcs[u]))]
    units = [[int(i == j) for j in range(h)] for i in range(h)]
    successes = 0
    for i in range(trials):
        stream = rng.child("rlnc-trial", i)
        coeffs = stream.integers(lows, field.order).tolist()
        vectors, k = {}, 0
        for u, n_in in zip(nodes, n_ins):
            ins = units if u == graph.source else [vectors[e] for e in dag.in_arcs[u]]
            for arc in dag.out_arcs[u]:
                vectors[arc] = combine(coeffs[k:k + n_in], ins)
                k += n_in
        msg = stream.integers(0, field.order, size=h).tolist()
        successes += all(
            solve(matrix, combine(msg, list(zip(*matrix)))) == msg
            for matrix in ([vectors[e] for e in dag.in_arcs[t]] for t in graph.terminal_ids)
        )
    return successes


class TestBlockedCheckMatchesReference:
    def test_success_counts_match_the_per_trial_reference(self):
        small = ConnectionModel(r=0.2, r_prime=0.4, kernel="fixed", p=0.5)
        fig3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        cases = [(build_connectivity_graph(6 + 6 * (seed % 5), 1 + seed % 4, small,
                                           RandomStream.from_seed(seed)),
                  GF2 if seed % 2 else GF256, CODING_BLOCK + 1)
                 for seed in range(60)]
        cases += [(build_connectivity_graph(200, 4, fig3, RandomStream.from_seed(seed)),
                   GF256, CODING_BLOCK) for seed in (0, 5)]
        compared, rates, terminals, gf2_failures = 0, set(), set(), 0
        for seed, (g, field, trials) in enumerate(cases):
            report = verify_achievability(g, trials, RandomStream.from_seed(seed), field=field)
            dag = build_coding_dag(g, report.h) if report.h else None
            if not isinstance(dag, CodingDag):
                continue
            expected = reference_successes(g, dag, trials, RandomStream.from_seed(seed), field)
            assert report.success_fraction == expected / trials, seed
            compared += 1
            rates.add(report.h)
            terminals.add(len(g.terminal_ids))
            gf2_failures += (trials - expected) if field is GF2 else 0
        assert compared >= 40
        assert 1 in rates and terminals == {1, 2, 3, 4}
        assert gf2_failures > 0


class TestCodingMemory:
    def test_peak_is_bounded_by_the_block_not_the_trial_count(self, monkeypatch):
        fig3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        g = build_connectivity_graph(200, 4, fig3, RandomStream.from_seed(0))
        cuts = [min_cut(g, t) for t in g.terminal_ids]
        trials = 20 * CODING_BLOCK

        def traced_peak(fn):
            tracemalloc.start()
            try:
                result = fn()
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        flows_peak, dag = traced_peak(lambda: build_coding_dag(g, min(c.capacity for c in cuts)))
        # A block's largest arrays (the global vectors, the terminals'
        # systems and the products that build them) each hold at most
        # CODING_BLOCK x arcs x (h + 1) cells; allowing 8-byte index copies
        # of a few of them gives 32 cells' worth of bytes per vector entry.
        # One array for all 20 blocks would need 20 for the vectors alone,
        # plus its temporaries.
        bound = flows_peak + 32 * CODING_BLOCK * len(dag.arcs) * dag.rate

        def check():
            return verify_achievability(g, trials, RandomStream.from_seed(1), cuts=cuts)

        peak, report = traced_peak(check)
        assert report.h == dag.rate and not report.cyclic_skipped
        assert peak < bound
        # The guard has teeth: the whole check as one block breaks it.
        monkeypatch.setattr(rlnc, "CODING_BLOCK", trials)
        peak_unblocked, unblocked = traced_peak(check)
        assert unblocked == report
        assert peak_unblocked > bound
