"""Random linear network coding over flow-induced acyclic orientations.

Achievability checker for the min-cut multicast capacity: each terminal's h
edge-disjoint paths are the first h augmenting paths of its min-cut flow,
replayed; their orientations are unioned into a DAG, and random local
coefficients are propagated as global coding vectors. A terminal decodes
iff its h incoming vectors have full rank over the field.

Undirected flow unions can be cyclic; cyclic instances are detected and
reported as a CyclicSkip diagnostic rather than coded convolutionally.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .bounds import _sig6
from .gf256 import GF256, _row_reduce
from . import graph as _graph
from .graph import ConnectivityGraph, CutResult
# Unused here but bound in this module, where the benchmark's tracer wraps them.
from .gf256 import matrix_rank, solve_linear_system  # noqa: F401
from .graph import edge_disjoint_paths, multicast_capacity  # noqa: F401
from .rng import RandomStream

# Coding trials run together as one numpy pass per block of this many, which
# bounds the memory of a check of any length.
CODING_BLOCK = 64


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


def _terminal_cuts(graph: ConnectivityGraph, cuts) -> list[CutResult]:
    """One min_cut result per terminal, in terminal_ids order, each with its
    flow: `cuts` when it is that, computed when it is None."""
    if cuts is None:
        # Through the graph module at call time, so that a wrapper set there
        # (the benchmark's tracer) sees these flows.
        return [_graph.min_cut(graph, t) for t in graph.terminal_ids]
    cuts = list(cuts)
    if not all(isinstance(c, CutResult) and c.flow is not None for c in cuts) or [
        c.terminal for c in cuts
    ] != graph.terminal_ids:
        raise ValueError("cuts must hold min_cut's result for each terminal, in terminal order")
    return cuts


def build_coding_dag(graph: ConnectivityGraph, rate: int, cuts=None):
    """Orient each flow-used edge and union across terminals. The paths are
    the first `rate` augmenting paths of each terminal's min-cut flow:
    `cuts`, min_cut's result per terminal in terminal order, or computed
    when None.

    Returns a CodingDag when the union is acyclic, a CyclicSkip diagnostic
    with the cycle the topological sort found otherwise; an edge used both
    ways puts both arcs in the union, a cycle of two nodes.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    cuts = _terminal_cuts(graph, cuts)
    if any(cut.capacity < rate for cut in cuts):
        raise ValueError("rate exceeds the multicast capacity")
    arcs = tuple(sorted({(u, v) for cut in cuts for path in cut.flow.paths(rate)
                         for u, v in zip(path, path[1:])}))
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
        return {name: _sig6(value) for name, value in asdict(self).items()}


def _coding_plan(dag: CodingDag, source: int):
    """The coding nodes in topological order, each as (in-arcs, out-arcs,
    the slice of its coefficients), the source's in-arcs None; and the lower
    bounds of their coefficient draws, one per coefficient, as one array in
    that order.

    Node u mixes its n_in in-vectors into each out-arc with n_in local
    coefficients (the source mixes the h unit vectors). Single-in-arc nodes
    draw nonzero scalars so a lone zero never causes a spurious rank drop;
    multi-in-arc nodes draw uniformly over the field.
    """
    plan, lows = [], []
    for node in dag.topo_order:
        out = dag.out_arcs.get(node)
        if out:
            ins = None if node == source else dag.in_arcs[node]
            n_in = dag.rate if ins is None else len(ins)
            plan.append((ins, out, slice(len(lows), len(lows) + n_in * len(out))))
            lows += [int(n_in == 1)] * (n_in * len(out))
    return plan, np.array(lows)


def _global_vectors(dag: CodingDag, plan, coeffs: np.ndarray, field) -> np.ndarray:
    """Global coding vectors of a block of coding trials, a (T, arcs, h)
    uint8 array, from their local coefficients `coeffs`, a (T, len(lows))
    array laid out as _coding_plan orders them."""
    vectors = np.empty((len(coeffs), len(dag.arcs), dag.rate), dtype=np.uint8)
    for ins, out, cols in plan:
        c = coeffs[:, cols].reshape(len(coeffs), len(out), -1)
        if ins is None:
            # The source mixes the unit vectors: its coefficients are the vectors.
            vectors[:, out] = c
        else:
            products = field.times(c[..., None], vectors[:, ins][:, None])
            vectors[:, out] = np.bitwise_xor.reduce(products, axis=2)
    return vectors


def _count_decoded(vectors: np.ndarray, in_arcs: np.ndarray, field) -> int:
    """How many coding trials of a block every terminal decodes: those whose
    terminals' h x h transfer matrices, their in-arc vectors, all have full
    rank. `in_arcs` is (terminals, h)."""
    trials, h = len(vectors), in_arcs.shape[1]
    ranks = _row_reduce(vectors[:, in_arcs].reshape(-1, h, h), h, field)
    return int((ranks.reshape(trials, -1) == h).all(axis=1).sum())


def verify_achievability(
    graph: ConnectivityGraph,
    trials: int,
    rng: RandomStream,
    field=GF256,
    cuts=None,
) -> AchievabilityReport:
    """Random-coding check that the min-cut rate is decodable at every
    terminal. h is fixed to the multicast capacity, the least of the
    terminals' min cuts: `cuts`, min_cut's result per terminal when the
    caller already has them, or else computed.

    Each terminal has exactly h in-arcs: build_coding_dag routes h
    edge-disjoint paths into it, and no other terminal's flow touches it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cuts = _terminal_cuts(graph, cuts)
    h = min(cut.capacity for cut in cuts)
    if h == 0:
        return AchievabilityReport(
            h=0, trials=trials, success_fraction=1.0,
            cyclic_skipped=False, field_poly=field.poly,
        )
    dag = build_coding_dag(graph, h, cuts)
    if isinstance(dag, CyclicSkip):
        return AchievabilityReport(
            h=h, trials=trials, success_fraction=0.0,
            cyclic_skipped=True, field_poly=field.poly,
        )
    plan, lows = _coding_plan(dag, graph.source)
    in_arcs = np.array([dag.in_arcs[t] for t in graph.terminal_ids])
    successes = 0
    for first in range(0, trials, CODING_BLOCK):
        block = range(first, min(first + CODING_BLOCK, trials))
        coeffs = np.empty((len(block), len(lows)), dtype=np.uint8)
        for row, i in enumerate(block):
            coeffs[row] = rng.child("rlnc-trial", i).integers(lows, field.order)
        vectors = _global_vectors(dag, plan, coeffs, field)
        successes += _count_decoded(vectors, in_arcs, field)
    return AchievabilityReport(
        h=h, trials=trials, success_fraction=successes / trials,
        cyclic_skipped=False, field_poly=field.poly,
    )
