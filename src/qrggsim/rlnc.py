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
from .gf256 import GF256, _full_rank
from . import graph as _graph
from .graph import ConnectivityGraph, CutResult, _is_int
# Unused here but bound in this module, where the benchmark's tracer wraps them.
from .gf256 import matrix_rank, solve_linear_system  # noqa: F401
from .graph import edge_disjoint_paths, multicast_capacity  # noqa: F401
from .rng import RandomStream

# Coding trials run together as one numpy pass per block of this many, which
# bounds the memory of a check of any length.
CODING_BLOCK = 64
# Within a block, the draws and each DAG level's products go in chunks of at
# most about this many cells, so that no temporary reaches glibc's 128 KiB
# mmap threshold: freeing a larger block raises that threshold for the rest
# of the process.
CHUNK_CELLS = 16384


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
    """The coding DAG one level at a time, and the lower bounds of the
    coefficient draws, one per coefficient, as one array.

    Node u mixes its n_in in-vectors into each out-arc with n_in local
    coefficients (the source mixes the h unit vectors). The coefficients
    follow topological order: a node whose first is `start` gives out-arc j
    the coefficients start + j*n_in + k, k over its in-arcs. Single-in-arc
    nodes draw nonzero scalars so a lone zero never causes a spurious rank
    drop; multi-in-arc nodes draw uniformly over the field.

    A node's depth is its longest path from the source. Level d is
    (out, ins, cols): the arcs whose tail is at depth d and, per arc, its
    tail's in-arcs and their coefficients, two (arcs, width) index arrays
    padded to the level's widest node with the zero arc, len(dag.arcs), and
    the zero coefficient, len(lows). The source's level has ins None.
    """
    zero_arc, tails = len(dag.arcs), [u for u, _ in dag.arcs]
    wide = max([len(dag.in_arcs[u]) for u in dag.out_arcs if u != source], default=0)
    # Per arc, in topological order: the arc, its tail's in-arcs padded to
    # `wide`, their count and the tail's depth.
    depth, out_arcs, in_arcs, n_ins, depths = {}, [], [], [], []
    for node in dag.topo_order:
        out = dag.out_arcs.get(node)
        if not out:
            continue
        if node == source:
            ins, n_in, d = [], dag.rate, 0
        else:
            ins = dag.in_arcs[node]
            n_in, d = len(ins), 1 + max([depth[tails[arc]] for arc in ins])
        depth[node] = d
        out_arcs += out
        in_arcs += (ins + [zero_arc] * (wide - len(ins))) * len(out)
        n_ins += [n_in] * len(out)
        depths += [d] * len(out)
    fan_in = np.array(n_ins)
    lows = np.repeat((fan_in == 1).astype(np.int64), fan_in)
    k = np.arange(max(wide, dag.rate))
    firsts = np.cumsum(fan_in) - fan_in
    cols = np.where(k < fan_in[:, None], firsts[:, None] + k, len(lows))
    # Stable by depth, so each level keeps topological order.
    order = np.argsort(depths, kind="stable")
    out, fan_in, cols = np.array(out_arcs)[order], fan_in[order], cols[order]
    ins = np.array(in_arcs, dtype=np.intp).reshape(len(out), wide)[order]
    stops = np.cumsum(np.bincount(depths)).tolist()
    widths = np.maximum.reduceat(fan_in, [0] + stops[:-1]).tolist()
    plan = [(out[:stops[0]], None, cols[:stops[0], :dag.rate])]
    plan += [(out[a:b], ins[a:b, :w], cols[a:b, :w])
             for a, b, w in zip(stops, stops[1:], widths[1:])]
    return plan, lows


def _from_words(words: np.ndarray, lows: np.ndarray, field):
    """Coefficients from uint32 words by numpy's Lemire rule, as
    `Generator.integers(lows, field.order)` turns its words into values:
    `words` is (trials, len(lows)), each low spanning span = order - low > 1
    values. The value is low + (x * span >> 32), here in uint32: x >> (32 - k)
    for a span 2^k (low 0), and 1 + hi - (lo < x) for a span 2^k - 1 (low 1),
    with hi = x >> (32 - k) and lo = x << k, since x * span = hi * 2^32 +
    lo - x. Numpy rejects a word, and draws another, when x * span mod 2^32
    is below (2^32 - span) mod span: never for a span 2^k, and for GF(256)'s
    span 255 only when x = 0. Returns the values and which trials have a
    rejected word."""
    k = field.order.bit_length() - 1
    values = words >> (32 - k)
    ones = lows == 1
    if not ones.any():
        return values, np.zeros(len(words), dtype=bool)
    lo = words << k
    values += ones & (lo >= words)
    span = field.order - 1
    rejected = ((lo - words) < (2**32 - span) % span) & ones
    return values, rejected.any(axis=1)


def _coefficients(rng: RandomStream, block: range, lows: np.ndarray, field) -> np.ndarray:
    """The local coefficients of a block of coding trials, a
    (len(lows) + 1, T) uint8 array whose last row is zero. Trial i's column
    is what rng.child("rlnc-trial", i).integers(lows, field.order) draws:
    each coefficient spanning more than one value takes the stream's next
    uint32 word, the low half of a raw 64-bit output first, as numpy takes
    them. A trial with a word numpy would reject is drawn by `integers`."""
    spans = field.order - lows
    drawn = np.flatnonzero(spans > 1)
    coeffs = np.zeros((len(lows) + 1, len(block)), dtype=np.uint8)
    coeffs[:-1][spans == 1] = lows[spans == 1, None]
    if not drawn.size:
        return coeffs
    n_raw = (drawn.size + 1) // 2
    step = max(1, CHUNK_CELLS // (2 * n_raw))
    for first in range(0, len(block), step):
        trials = block[first:first + step]
        raw = rng.children_raw("rlnc-trial", trials, n_raw)
        words = raw.astype("<u8", copy=False).view("<u4")[:, :drawn.size]
        values, rejected = _from_words(words, lows[drawn], field)
        coeffs[drawn, first:first + len(trials)] = values.T
        for row in np.flatnonzero(rejected):
            coeffs[:-1, first + row] = rng.child("rlnc-trial", trials[row]).integers(
                lows, field.order)
    return coeffs


def _global_vectors(dag: CodingDag, plan, coeffs: np.ndarray, field) -> np.ndarray:
    """Global coding vectors of a block of T coding trials, an
    (arcs + 1, h, T) uint8 array whose last arc is the zero arc, from their
    local coefficients `coeffs` (_coefficients). Each level is one gather,
    one product and one XOR reduction over its in-arcs, over at most about
    CHUNK_CELLS products at a time."""
    h, trials = dag.rate, coeffs.shape[1]
    vectors = np.empty((len(dag.arcs) + 1, h, trials), dtype=np.uint8)
    vectors[-1] = 0
    for out, ins, cols in plan:
        if ins is None:
            # The source mixes the unit vectors: its coefficients are the vectors.
            vectors[out] = coeffs[cols]
            continue
        step = max(1, CHUNK_CELLS // (ins.shape[1] * h * trials))
        for k in range(0, len(out), step):
            c = coeffs[cols[k:k + step], None]
            products = field.times(c, vectors[ins[k:k + step]])
            vectors[out[k:k + step]] = np.bitwise_xor.reduce(products, axis=1)
    return vectors


def _count_decoded(vectors: np.ndarray, in_arcs: np.ndarray, field) -> int:
    """How many coding trials of a block every terminal decodes: those whose
    terminals' h x h transfer matrices, their in-arc vectors, all have full
    rank. `in_arcs` is (terminals, h)."""
    h, trials = vectors.shape[1:]
    # Stacked (h, h, terminals * T), each matrix transposed: entry [j, i] is
    # entry j of in-arc i's vector, and the rank is the same.
    full = _full_rank(vectors.transpose(1, 0, 2)[:, in_arcs.T].reshape(h, h, -1), field)
    return int(full.reshape(-1, trials).all(axis=0).sum())


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
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, not {trials!r}")
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
        coeffs = _coefficients(rng, block, lows, field)
        vectors = _global_vectors(dag, plan, coeffs, field)
        successes += _count_decoded(vectors, in_arcs, field)
    return AchievabilityReport(
        h=h, trials=trials, success_fraction=successes / trials,
        cyclic_skipped=False, field_poly=field.poly,
    )
