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

import heapq
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

# matrix_rank is unused here but stays bound: the benchmark's tracer wraps it by name.
from .gf256 import GF256, matrix_rank, solve_linear_system  # noqa: F401
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
    sorter = TopologicalSorter()
    for idx, (u, v) in enumerate(arcs):
        out_arcs.setdefault(u, []).append(idx)
        in_arcs.setdefault(v, []).append(idx)
        sorter.add(v, u)
    try:
        sorter.prepare()
    except CycleError as exc:
        return CyclicSkip(cycle=tuple(exc.args[1][:-1]))  # first node repeats last
    # Smallest ready node first: the coefficient draws follow this order.
    ready = list(sorter.get_ready())
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        sorter.done(u)
        for v in sorter.get_ready():
            heapq.heappush(ready, v)

    return CodingDag(
        rate=rate,
        topo_order=tuple(order),
        arcs=arcs,
        in_arcs=in_arcs,
        out_arcs=out_arcs,
    )


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


def _combine(coeffs, vectors, width: int, field) -> list[int]:
    """sum_k coeffs[k] * vectors[k] over the field, skipping zero terms."""
    acc = [0] * width
    for c, g in zip(coeffs, vectors):
        if c:
            for j in range(width):
                if g[j]:
                    acc[j] = field.add(acc[j], field.mul(c, g[j]))
    return acc


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
            globals_[arc_id] = _combine(cvec, in_vectors, h, field)
    return globals_


def _decode_ok(matrix, msg, field) -> bool:
    """End-to-end identity: encode h source symbols through the global
    vectors, solve the terminal system, compare with the originals.
    A singular matrix solves to None and so fails."""
    received = _combine(msg, list(zip(*matrix)), len(matrix), field)
    return solve_linear_system(matrix, received, field) == list(msg)


def verify_achievability(
    graph: ConnectivityGraph,
    trials: int,
    rng: RandomStream,
    field=GF256,
) -> AchievabilityReport:
    """Random-coding check that the min-cut rate is decodable at every
    terminal. h is fixed to the multicast capacity.

    Each terminal has exactly h in-arcs: build_coding_dag routes h
    edge-disjoint paths into it, and no other terminal's flow touches it.
    """
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
        msg = [int(x) for x in stream.integers(0, field.order, size=h)]
        successes += all(
            _decode_ok([globals_[e] for e in dag.in_arcs[t]], msg, field)
            for t in graph.terminal_ids
        )
    return AchievabilityReport(
        h=h,
        trials=trials,
        success_fraction=successes / trials,
        cyclic_skipped=False,
        field_poly=field.poly,
    )
