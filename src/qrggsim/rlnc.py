"""Random linear network coding over flow-induced acyclic orientations.

Achievability checker for the min-cut multicast capacity: h edge-disjoint
paths per terminal are extracted from integral max flows, their orientations
are unioned into a DAG, and random local coefficients are propagated as
global coding vectors. A terminal decodes iff its h incoming vectors have
full rank over the field.

Undirected flow unions can be cyclic; cyclic instances are detected and
reported as a CyclicSkip diagnostic rather than coded convolutionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf256 import GF2, GF256, matrix_rank, solve_linear_system
from .graph import ConnectivityGraph, edge_disjoint_paths, multicast_capacity
from .rng import RandomStream


def xor_relay_demo(b1: int, b2: int) -> tuple[int, int]:
    """Wheatstone-bridge exchange: the relay forwards b1 XOR b2 and each
    side cancels its own bit. Returns (decoded at X, decoded at Y)."""
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ValueError("bits must be 0 or 1")
    mixed = b1 ^ b2
    decoded_at_x = b1 ^ mixed  # = b2
    decoded_at_y = b2 ^ mixed  # = b1
    return decoded_at_x, decoded_at_y


@dataclass(frozen=True)
class CodingDag:
    rate: int
    topo_order: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]           # (tail, head), index = arc id
    in_arcs: dict                                # node -> list of arc ids
    out_arcs: dict                               # node -> list of arc ids
    terminal_in_arcs: dict                       # terminal -> list of arc ids


@dataclass(frozen=True)
class CyclicSkip:
    """Diagnostic for flow unions that are not acyclic."""

    cycle: tuple[int, ...]


def build_coding_dag(graph: ConnectivityGraph, rate: int):
    """Orient each flow-used edge and union across terminals.

    Returns a CodingDag when the union is acyclic, a CyclicSkip diagnostic
    otherwise (including the direct conflict of one edge used both ways).
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    # A terminal with fewer than `rate` paths has a min cut below the rate.
    flows = [edge_disjoint_paths(graph, t, limit=rate) for t in graph.terminal_ids]
    if any(len(paths) < rate for paths in flows):
        raise ValueError("rate exceeds the multicast capacity")

    orientation: dict[tuple[int, int], tuple[int, int]] = {}
    for paths in flows:
        for path in paths:
            for u, v in zip(path, path[1:]):
                key = (min(u, v), max(u, v))
                if key in orientation and orientation[key] != (u, v):
                    return CyclicSkip(cycle=(u, v))
                orientation[key] = (u, v)

    arcs = tuple(sorted(orientation.values()))
    out_arcs: dict[int, list[int]] = {}
    in_arcs: dict[int, list[int]] = {}
    for idx, (u, v) in enumerate(arcs):
        out_arcs.setdefault(u, []).append(idx)
        in_arcs.setdefault(v, []).append(idx)

    # Kahn topological sort over the nodes touched by the arcs.
    nodes = sorted(set(u for u, _ in arcs) | set(v for _, v in arcs))
    indeg = {v: len(in_arcs.get(v, [])) for v in nodes}
    queue = sorted(v for v in nodes if indeg[v] == 0)
    order = []
    while queue:
        u = queue.pop(0)
        order.append(u)
        for e in out_arcs.get(u, []):
            v = arcs[e][1]
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
        queue.sort()
    if len(order) != len(nodes):
        cycle = _find_cycle(nodes, arcs, out_arcs)
        return CyclicSkip(cycle=tuple(cycle))

    terminal_in = {
        t: list(in_arcs.get(t, [])) for t in graph.terminal_ids if t in in_arcs
    }
    return CodingDag(
        rate=rate,
        topo_order=tuple(order),
        arcs=arcs,
        in_arcs=in_arcs,
        out_arcs=out_arcs,
        terminal_in_arcs=terminal_in,
    )


def _find_cycle(nodes, arcs, out_arcs):
    """Iterative DFS returning one directed cycle's node sequence."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}
    parent = {}
    for start in nodes:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(out_arcs.get(start, [])))]
        color[start] = GRAY
        while stack:
            u, it = stack[-1]
            advanced = False
            for e in it:
                v = arcs[e][1]
                if color[v] == WHITE:
                    color[v] = GRAY
                    parent[v] = u
                    stack.append((v, iter(out_arcs.get(v, []))))
                    advanced = True
                    break
                if color[v] == GRAY:
                    cycle = [v, u]
                    w = u
                    while w != v:
                        w = parent[w]
                        cycle.append(w)
                    cycle.reverse()
                    return cycle[:-1]
            if not advanced:
                color[u] = BLACK
                stack.pop()
        # unreachable: a cycle exists whenever Kahn leaves nodes unordered
    raise AssertionError("no cycle found in a non-acyclic arc union")


@dataclass(frozen=True)
class AchievabilityReport:
    h: int
    trials: int
    success_fraction: float
    cyclic_skipped: bool
    field_poly: str = "0x11B"

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "trials": self.trials,
            "success_fraction": float(f"{self.success_fraction:.6g}"),
            "cyclic_skipped": self.cyclic_skipped,
            "field_poly": self.field_poly,
        }


def _draw_coefficients(n_in: int, n_out: int, rng: RandomStream, field):
    """Local mixing coefficients for one node: n_out vectors of length n_in.

    Single-in-arc nodes draw nonzero scalars so a lone zero never causes a
    spurious rank drop; multi-in-arc nodes draw uniformly over the field.
    """
    if n_in == 1:
        vals = rng.integers(1, field.order, size=n_out)
        return [[int(v)] for v in vals]
    vals = rng.integers(0, field.order, size=(n_out, n_in))
    return [[int(x) for x in row] for row in vals]


def _propagate(dag: CodingDag, source: int, rng: RandomStream, field):
    """Assign random local coefficients in topological order and return the
    per-arc global coding vectors (length h each)."""
    h = dag.rate
    globals_ = [None] * len(dag.arcs)
    for node in dag.topo_order:
        out = dag.out_arcs.get(node, [])
        if not out:
            continue
        if node == source:
            in_vectors = [[1 if i == j else 0 for j in range(h)] for i in range(h)]
        else:
            in_vectors = [globals_[e] for e in dag.in_arcs[node]]
        coeffs = _draw_coefficients(len(in_vectors), len(out), rng, field)
        for arc_id, cvec in zip(out, coeffs):
            vec = [0] * h
            for c, g in zip(cvec, in_vectors):
                if c:
                    for j in range(h):
                        if g[j]:
                            vec[j] = field.add(vec[j], field.mul(c, g[j]))
            globals_[arc_id] = vec
    return globals_


def _decode_ok(matrix, msg, field) -> bool:
    """End-to-end identity: encode h source symbols through the global
    vectors, solve the terminal system, compare with the originals."""
    received = []
    for row in matrix:
        acc = 0
        for c, m in zip(row, msg):
            acc = field.add(acc, field.mul(c, m))
        received.append(acc)
    solved = solve_linear_system(matrix, received, field)
    return solved == list(msg)


def verify_achievability(
    graph: ConnectivityGraph,
    trials: int,
    rng: RandomStream,
    field=GF256,
) -> AchievabilityReport:
    """Random-coding check that the min-cut rate is decodable at every
    terminal. h is fixed to the multicast capacity."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    h = multicast_capacity(graph)
    if h == 0:
        return AchievabilityReport(
            h=0, trials=trials, success_fraction=1.0,
            cyclic_skipped=False, field_poly=field.poly,
        )
    dag = build_coding_dag(graph, h)
    if isinstance(dag, CyclicSkip):
        return AchievabilityReport(
            h=h, trials=trials, success_fraction=0.0,
            cyclic_skipped=True, field_poly=field.poly,
        )
    successes = 0
    for i in range(trials):
        stream = rng.child("rlnc-trial", i)
        globals_ = _propagate(dag, graph.source, stream, field)
        ok = True
        for t in graph.terminal_ids:
            matrix = [globals_[e] for e in dag.terminal_in_arcs.get(t, [])]
            if len(matrix) != h or matrix_rank(matrix, field) != h:
                ok = False
                break
        if ok:
            msg = [int(x) for x in stream.integers(0, field.order, size=h)]
            for t in graph.terminal_ids:
                matrix = [globals_[e] for e in dag.terminal_in_arcs[t]]
                if not _decode_ok(matrix, msg, field):
                    ok = False
                    break
        if ok:
            successes += 1
    return AchievabilityReport(
        h=h,
        trials=trials,
        success_fraction=successes / trials,
        cyclic_skipped=False,
        field_poly=field.poly,
    )
