import hashlib
import heapq
import json
import math
import tracemalloc
from graphlib import CycleError, TopologicalSorter

import numpy as np
import pytest

from qrggsim import (
    ConnectionModel,
    RandomStream,
    build_coding_dag,
    build_connectivity_graph,
    from_edges,
    min_cut,
    multicast_capacity,
    verify_achievability,
)
from qrggsim import rlnc
from qrggsim.gf256 import GF2, GF256
from qrggsim.rlnc import CODING_BLOCK, CodingDag, CyclicSkip

from oracles import brute_force_min_cut, butterfly_graph, xor_relay_demo

RLNC_PIN = "f6f8e3b74fb1f0f0fbd5c8317f727bfe786a42c7f160c66687504dfc636a74a1"


def assert_cycle_in_graph(skip, graph, min_nodes):
    """The reported cycle has distinct nodes, and each consecutive pair,
    wrapping around, is an edge of the graph."""
    cycle = skip.cycle
    assert len(set(cycle)) == len(cycle) >= min_nodes
    edges = set(graph.edge_list())
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(u, v), max(u, v)) in edges


def flows(graph):
    """Each terminal's min-cut flow, in terminal order."""
    return [min_cut(graph, t) for t in graph.terminal_ids]


def dag_fields(dag):
    """A CodingDag's arcs, order and plan as plain lists."""
    return (dag.rate, dag.arcs.tolist(), dag.topo_order.tolist(),
            [(out.tolist(), None if ins is None else ins.tolist(), cols.tolist())
             for out, ins, cols in dag.levels],
            dag.lows.tolist(), dag.terminal_arcs.tolist())


def replay_arcs(cuts, h):
    """The coding DAG's arcs by the path replay: the consecutive pairs of
    each terminal's first h replayed flow paths, sorted."""
    return sorted({(u, v) for cut in cuts for path in cut.paths(h)
                   for u, v in zip(path, path[1:])})


def assert_directed_cycle(skip, arcs):
    cycle = list(skip.cycle)
    assert set(zip(cycle, cycle[1:] + cycle[:1])) <= set(arcs)


def reference_order(arcs):
    """graphlib's topological order of the arcs' nodes, smallest ready node
    first; raises CycleError when the arcs have a cycle."""
    sorter = TopologicalSorter()
    for u, v in arcs:
        sorter.add(v, u)
    sorter.prepare()
    ready = list(sorter.get_ready())
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        sorter.done(u)
        for v in sorter.get_ready():
            heapq.heappush(ready, v)
    return order


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
        dag = build_coding_dag(flows(g), 1)
        assert isinstance(dag, CodingDag)
        assert dag.arcs.tolist() == [[0, 1], [1, 2]]
        assert dag.topo_order.tolist() == [0, 1, 2]

    def test_butterfly_orients_bottleneck_toward_terminals(self):
        g = butterfly_graph()
        dag = build_coding_dag(flows(g), 2)
        assert isinstance(dag, CodingDag)
        arcs = dag.arcs.tolist()
        assert [3, 4] in arcs  # mixing relay feeds the shared hop
        # two edge-disjoint arcs into each terminal, in terminal order
        assert dag.terminal_arcs.tolist() == [
            [i for i, (_, v) in enumerate(arcs) if v == t] for t in g.terminal_ids]
        assert dag.terminal_arcs.shape == (2, 2)
        # path enumeration: every arc head is reachable after its tail
        pos = {v: i for i, v in enumerate(dag.topo_order.tolist())}
        assert all(pos[u] < pos[v] for u, v in arcs)

    def test_rate_zero_gives_an_empty_dag(self):
        dag = build_coding_dag(flows(butterfly_graph()), 0)
        assert isinstance(dag, CodingDag)
        assert dag.arcs.shape == (0, 2) and dag.topo_order.size == 0
        assert dag.levels == [] and dag.lows.size == 0
        assert dag.terminal_arcs.shape == (2, 0)

    @pytest.mark.parametrize("rate, shown", [
        (True, "True"), (1.5, "1.5"), ("2", "'2'"), (None, "None"), (-1, "-1")],
        ids=["True", "1.5", "2", "None", "-1"])
    def test_rate_must_be_a_non_negative_int_and_not_a_bool(self, rate, shown):
        # True would build a rate-1 DAG that says rate=True.
        with pytest.raises(ValueError) as info:
            build_coding_dag(flows(butterfly_graph()), rate)
        assert str(info.value) == f"rate must be an integer >= 0, not {shown}"

    def test_rate_above_capacity_rejected(self):
        g = butterfly_graph()
        with pytest.raises(ValueError):
            build_coding_dag(flows(g), 3)

    def test_opposing_orientations_yield_cyclic_skip(self, cyclic_graph):
        h = multicast_capacity(cyclic_graph)
        assert h >= 1
        result = build_coding_dag(flows(cyclic_graph), h)
        assert isinstance(result, CyclicSkip)
        assert_cycle_in_graph(result, cyclic_graph, 2)

    def test_cycle_through_several_edges_yields_cyclic_skip(self, long_cycle_graph):
        # No edge is used both ways, so the cycle the sort reports has 3+ nodes.
        assert multicast_capacity(long_cycle_graph) == 3
        result = build_coding_dag(flows(long_cycle_graph), 3)
        assert isinstance(result, CyclicSkip)
        assert_cycle_in_graph(result, long_cycle_graph, 3)
        cuts = [min_cut(long_cycle_graph, t) for t in long_cycle_graph.terminal_ids]
        assert_directed_cycle(result, replay_arcs(cuts, 3))

    @pytest.mark.parametrize("first_hop", [1, 2])
    def test_hops_that_cross_an_edge_both_ways_cancel(self, first_hop):
        # The flows of test_graph's cancelled-arc tests: path 1 crosses edge
        # 1-2 one way from relay `first_hop`, path 2 crosses it back, and
        # path 3 takes a chain of its own. From two paths on, 1-2 carries no
        # flow, so it is no arc of the DAG either way.
        other = 3 - first_hop
        edges = [(0, first_hop), (1, 2), (other, 15), (0, 3), (3, 4), (other, 4),
                 (first_hop, 5), (5, 6), (6, 15), (0, 8), *[(k, k + 1) for k in range(8, 14)],
                 (14, 15)]
        g = from_edges(14, 1, edges)
        cuts = [min_cut(g, 15)]
        for rate in range(4):
            dag = build_coding_dag(cuts, rate)
            arcs = [tuple(arc) for arc in dag.arcs.tolist()]
            assert arcs == replay_arcs(cuts, rate)
            assert ((first_hop, other) in arcs) == (rate == 1) and (other, first_hop) not in arcs


class TestCodingDagMatchesReferences:
    def test_arcs_order_and_cycles_over_a_fixed_graph_set(self):
        # The arcs are the replayed paths' consecutive pairs (Flow.paths),
        # the order graphlib's smallest-ready-first sort of them, and a
        # cyclic union's reported cycle a directed cycle of those arcs.
        small = ConnectionModel(r=0.2, r_prime=0.4, kernel="fixed", p=0.5)
        fig3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        cases = [(n, tau, seed) for n, seeds in ((30, 60), (60, 60), (200, 60), (1000, 5))
                 for tau in (2, 3, 4) for seed in range(seeds)]
        acyclic = cyclic = 0
        for n, tau, seed in cases:
            model = small if n <= 60 else fig3
            g = build_connectivity_graph(n, tau, model, RandomStream.from_seed(seed))
            cuts = [min_cut(g, t) for t in g.terminal_ids]
            h = min(cut.capacity for cut in cuts)
            dag = build_coding_dag(cuts, h)
            arcs = replay_arcs(cuts, h)
            try:
                order = reference_order(arcs)
            except CycleError:
                assert isinstance(dag, CyclicSkip), (n, tau, seed)
                assert_cycle_in_graph(dag, g, 2)
                assert_directed_cycle(dag, arcs)
                cyclic += 1
                continue
            assert isinstance(dag, CodingDag), (n, tau, seed)
            assert [tuple(arc) for arc in dag.arcs.tolist()] == arcs, (n, tau, seed)
            assert dag.topo_order.tolist() == order, (n, tau, seed)
            acyclic += 1
        assert cyclic >= 40 and acyclic >= 400


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
            dag = build_coding_dag(flows(g), h)
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
        assert oracle == [(cut.terminal, cut.partition_vk, cut.capacity) for cut in cuts]
        for bad in (cuts[:1], cuts[::-1], oracle, [cut.capacity for cut in cuts], []):
            with pytest.raises(ValueError):
                verify_achievability(g, 8, RandomStream.from_seed(1), cuts=bad)
        given = build_coding_dag(cuts, 2)
        assert dag_fields(given) == dag_fields(build_coding_dag(flows(g), 2))

    def test_a_graph_with_no_terminals_is_refused_by_name(self):
        # The constructor accepts a graph with no terminal; the check used to
        # fail inside min() and build_coding_dag inside flows[0].
        g = from_edges(2, 0, [(0, 1), (1, 2)])
        for cuts in (None, []):
            with pytest.raises(ValueError, match="^need at least one terminal$"):
                verify_achievability(g, 8, RandomStream.from_seed(1), cuts=cuts)
        for rate in (0, 1):
            with pytest.raises(ValueError, match="^need at least one terminal$"):
                build_coding_dag([], rate)

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

    @pytest.mark.parametrize("trials, shown", [
        (True, "True"), (2.5, "2.5"), ("8", "'8'"), (None, "None"), (0, "0")],
        ids=["True", "2.5", "8", "None", "0"])
    def test_trials_must_be_an_int_and_not_a_bool(self, trials, shown):
        # True would run one trial and report "trials": true.
        with pytest.raises(ValueError) as info:
            verify_achievability(butterfly_graph(), trials, RandomStream.from_seed(1))
        assert str(info.value) == f"trials must be an integer >= 1, not {shown}"


def predicted_decode_probability(graph, dag, terminal, order):
    """P(decode) of one terminal's coding trial, from the DAG alone.

    With one terminal the DAG is h arc-disjoint paths, so sweeping it in
    topological order replaces each node's k inputs with k out-arcs: the
    terminal's matrix is the source's matrix times each relay's local k x k
    matrix, and it is non-singular iff each of them is. A uniform k x k
    matrix is non-singular with probability prod_{i=1..k} (1 - order^-i);
    a node with one input draws a nonzero coefficient, so its factor is 1.
    The source's inputs are the `rate` unit vectors, any other node's its
    in-arcs. Also asserts the premise: every node but the terminal has as
    many out-arcs as inputs."""
    tails, heads = dag.arcs.T
    inputs = np.bincount(heads, minlength=graph.n_nodes)
    inputs[graph.source] = dag.rate
    outputs = np.bincount(tails, minlength=graph.n_nodes)
    coders = [v for v in dag.topo_order.tolist() if v != terminal]
    assert all(outputs[v] == inputs[v] for v in coders)
    return math.prod(1 - order ** -i for v in coders if inputs[v] >= 2
                     for i in range(1, inputs[v] + 1))


class TestDecodeProbability:
    def test_one_terminal_successes_match_the_product_formula(self, fig3_model):
        # The bound |z| < 3.5 and the seeds were fixed before either was run.
        trials, observed, expected, variance, compared = 512, 0, 0.0, 0.0, 0
        for seed in range(100):
            g = build_connectivity_graph(200, 1, fig3_model, RandomStream.from_seed(seed))
            cuts = [min_cut(g, t) for t in g.terminal_ids]
            if cuts[0].capacity == 0:
                continue
            dag = build_coding_dag(cuts, cuts[0].capacity)
            if isinstance(dag, CyclicSkip):
                continue
            p = predicted_decode_probability(g, dag, g.terminal_ids[0], GF256.order)
            report = verify_achievability(
                g, trials, RandomStream.from_seed(seed).child("rlnc"), cuts=cuts)
            observed += round(report.success_fraction * trials)
            expected += trials * p
            variance += trials * p * (1 - p)
            compared += 1
        z = (observed - expected) / math.sqrt(variance)
        print(f"decode successes: {observed} observed, {expected:.1f} predicted "
              f"over {compared} graphs, z = {z:.2f}")
        assert compared >= 90
        assert abs(z) < 3.5, z


def _rlnc_record(graphs):
    """sha256 over each graph's coding DAG (or cyclic flag) and its
    achievability reports in both fields; also the number of cyclic graphs."""
    records, cyclic = [], 0
    for seed, g in enumerate(graphs):
        dag = build_coding_dag(flows(g), multicast_capacity(g))
        if isinstance(dag, CyclicSkip):
            cyclic += 1
            records.append("cyclic")
        else:
            records.append([dag.topo_order.tolist(), dag.arcs.tolist()])
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

    in_arcs, out_arcs = {}, {}
    for arc, (u, v) in enumerate(dag.arcs.tolist()):
        out_arcs.setdefault(u, []).append(arc)
        in_arcs.setdefault(v, []).append(arc)
    nodes = [u for u in dag.topo_order.tolist() if u in out_arcs]
    n_ins = [h if u == graph.source else len(in_arcs[u]) for u in nodes]
    lows = [int(n_in == 1) for u, n_in in zip(nodes, n_ins)
            for _ in range(n_in * len(out_arcs[u]))]
    units = [[int(i == j) for j in range(h)] for i in range(h)]
    successes = 0
    for i in range(trials):
        stream = rng.child("rlnc-trial", i)
        coeffs = stream.integers(lows, field.order).tolist()
        vectors, k = {}, 0
        for u, n_in in zip(nodes, n_ins):
            ins = units if u == graph.source else [vectors[e] for e in in_arcs[u]]
            for arc in out_arcs[u]:
                vectors[arc] = combine(coeffs[k:k + n_in], ins)
                k += n_in
        msg = stream.integers(0, field.order, size=h).tolist()
        successes += all(
            solve(matrix, combine(msg, list(zip(*matrix)))) == msg
            for matrix in ([vectors[e] for e in in_arcs[t]] for t in graph.terminal_ids)
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
        compared, rates, terminals = 0, set(), set()
        failures = {GF2: 0, GF256: 0}
        for seed, (g, field, trials) in enumerate(cases):
            report = verify_achievability(g, trials, RandomStream.from_seed(seed), field=field)
            dag = build_coding_dag(flows(g), report.h) if report.h else None
            if not isinstance(dag, CodingDag):
                continue
            expected = reference_successes(g, dag, trials, RandomStream.from_seed(seed), field)
            assert report.success_fraction == expected / trials, seed
            compared += 1
            rates.add(report.h)
            terminals.add(len(g.terminal_ids))
            failures[field] += trials - expected
        assert compared >= 40
        assert 1 in rates and terminals == {1, 2, 3, 4}
        # Failed trials in both fields: the check's rank decision and the
        # reference's solve-and-compare decode must agree on failures too.
        assert failures[GF2] > 0 and failures[GF256] > 0


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

        flows_peak, dag = traced_peak(
            lambda: build_coding_dag(flows(g), min(c.capacity for c in cuts)))
        # A block's largest arrays (the global vectors, the terminals'
        # matrices and the products that build them) each hold at most
        # CODING_BLOCK x arcs x h cells; allowing 8-byte index copies
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


def lemire_reference(word: int, low: int, order: int):
    """numpy's bounded draw of one uint32 word in Python ints: the value
    low + word * span >> 32, and whether numpy rejects the word."""
    span = order - low
    return low + (word * span >> 32), (word * span) % 2**32 < (2**32 - span) % span


class TestCoefficientDraws:
    """A block's coefficients, made from raw words, are what each trial's
    own stream draws with `integers(lows, order)`."""

    @staticmethod
    def integers_reference(rng, block, lows, field):
        return np.array([rng.child("rlnc-trial", i).integers(lows, field.order)
                         for i in block]).T

    def test_words_follow_numpys_rule_and_rejection(self):
        rnd = np.random.default_rng(3)
        edges = [0, 1, 2, 2**24 - 1, 2**24, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]
        words = np.concatenate([edges, rnd.integers(0, 2**32, 3000)]).astype(np.uint32)
        for field, lows in ((GF256, (0, 1)), (GF2, (0,))):
            for low in lows:
                values, rejected = rlnc._from_words(words[:, None], np.array([low]), field)
                expected = [lemire_reference(int(x), low, field.order) for x in words]
                assert values[:, 0].tolist() == [v for v, _ in expected]
                assert rejected.tolist() == [r for _, r in expected]
                # Only the zero word is ever rejected, and only for span 255.
                assert rejected.tolist() == [low == 1 and x == 0 for x in words.tolist()]

    @pytest.mark.parametrize("field", [GF256, GF2])
    def test_block_matches_integers_on_every_stream(self, field):
        rnd = np.random.default_rng(4)
        rng = RandomStream.from_seed(17).child("trial", 5).child("rlnc")
        streams, parities = 0, set()
        # Coefficient counts giving odd and even word counts, and one long
        # enough that a block's draws go in several chunks.
        for n in (1, 2, 7, 30, 31, 287, 2 * rlnc.CHUNK_CELLS // 25 + 1):
            lows = (rnd.random(n) < 0.4).astype(np.int64)
            parities.add(np.count_nonzero(field.order - lows > 1) % 2)
            for first in (0, 64, 128, 320, 1001):
                block = range(first, first + CODING_BLOCK - (first == 128))
                coeffs = rlnc._coefficients(rng, block, lows, field)
                assert coeffs.dtype == np.uint8 and coeffs.shape == (n + 1, len(block))
                assert not coeffs[-1].any()
                assert np.array_equal(coeffs[:-1], self.integers_reference(rng, block, lows, field))
                streams += len(block)
        assert parities == {0, 1}
        assert streams >= 2000

    def test_gf2_lows_of_one_take_no_word(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a word")

        monkeypatch.setattr(RandomStream, "children_raw", no_draw)
        rng, lows = RandomStream.from_seed(2), np.ones(9, dtype=np.int64)
        coeffs = rlnc._coefficients(rng, range(CODING_BLOCK), lows, GF2)
        assert coeffs[:-1].tolist() == [[1] * CODING_BLOCK] * 9 and not coeffs[-1].any()
        monkeypatch.undo()
        assert np.array_equal(coeffs[:-1], self.integers_reference(rng, range(CODING_BLOCK),
                                                                   lows, GF2))

    def test_a_rejected_word_sends_only_its_trial_to_integers(self, monkeypatch):
        rng = RandomStream.from_seed(8)
        lows = np.array([0, 1, 1, 0, 1])  # span 255 at coefficients 1, 2 and 4
        victim = 6
        raw_draws, integers = RandomStream.children_raw, RandomStream.integers
        fallbacks = []

        def crafted(self, label, indices, size):
            raw = raw_draws(self, label, indices, size)
            if victim in indices:
                # Coefficient 2 is word 2: the low half of the second output.
                raw[indices.index(victim), 1] &= np.uint64(0xFFFFFFFF00000000)
            return raw

        def spy(self, *args, **kwargs):
            fallbacks.append(self.path)
            return integers(self, *args, **kwargs)

        monkeypatch.setattr(RandomStream, "children_raw", crafted)
        monkeypatch.setattr(RandomStream, "integers", spy)
        coeffs = rlnc._coefficients(rng, range(CODING_BLOCK), lows, GF256)
        assert fallbacks == [rng.child("rlnc-trial", victim).path]
        monkeypatch.undo()
        assert np.array_equal(coeffs[:-1], self.integers_reference(rng, range(CODING_BLOCK),
                                                                   lows, GF256))
