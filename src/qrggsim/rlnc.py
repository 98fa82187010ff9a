"""Random linear network coding over flow-induced acyclic orientations.

Achievability checker for the min-cut multicast capacity: each terminal's h
edge-disjoint paths are the first h augmenting paths of its min-cut flow.
The arcs those paths take more often than their reverse (Flow.arcs) are
unioned into a DAG; one topological sweep orders it and levels it by depth,
and random local coefficients are propagated as global coding vectors. A
terminal decodes iff its h incoming vectors have full rank over the field.

Undirected flow unions can be cyclic; the sweep stalls on them, and they are
reported as a CyclicSkip diagnostic rather than coded convolutionally.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import _sig6
from .gf256 import GF256, _full_rank
from .graph import ConnectivityGraph, _require_int, min_cut
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


@dataclass(frozen=True, eq=False)
class CodingDag:
    """The union of the terminals' flow paths, oriented, and its coding plan.

    Node u mixes its n_in in-vectors (the source: the `rate` unit vectors)
    into out-arc j with the coefficients start + j*n_in + k, k over its
    in-arcs, the nodes taking their `start`s in topo_order. `lows` holds
    their lower bounds: 1 for single-in-arc nodes, so a lone zero never
    causes a spurious rank drop, and 0 for the rest.

    A node's depth is its longest path from the source. levels[d] is
    (out, ins, cols): the arcs whose tail is at depth d and, per arc, its
    tail's in-arcs and their coefficients, two (arcs, width) index arrays
    padded to the level's widest node with the zero arc, len(arcs), and the
    zero coefficient, len(lows). The source's level has ins None.
    """

    rate: int
    arcs: np.ndarray           # (arcs, 2) rows (tail, head), sorted; row = arc id
    topo_order: np.ndarray     # the nodes, smallest ready node first
    levels: list
    lows: np.ndarray
    terminal_arcs: np.ndarray  # (terminals, rate): each terminal's in-arcs


@dataclass(frozen=True)
class CyclicSkip:
    """Diagnostic for flow unions that are not acyclic."""

    cycle: tuple[int, ...]


def build_coding_dag(flows, rate: int):
    """Orient each flow-used edge and union across terminals. `flows` holds
    each terminal's min-cut Flow, in terminal order, and the paths are the
    first `rate` augmenting paths of each: their arcs are Flow.arcs(rate).

    One topological sweep, smallest ready node first (the coefficient draws
    follow this order), orders the nodes and gives each its depth. Returns a
    CodingDag when the union is acyclic, and otherwise a CyclicSkip with a
    cycle among the nodes the sweep did not reach; an edge used both ways
    puts both arcs in the union, a cycle of two nodes.
    """
    _require_int("rate", rate, 0)
    if not flows:
        raise ValueError("need at least one terminal")
    if any(flow.capacity < rate for flow in flows):
        raise ValueError("rate exceeds the multicast capacity")
    # Sorted, less repeats: np.unique with no return flag imports numpy.ma.
    keys = np.sort(np.concatenate([flow.arcs(rate) for flow in flows]))
    arcs = np.stack([keys >> 32, keys & 0xFFFFFFFF], axis=1)[np.diff(keys, prepend=-1) > 0]

    # Local node indices keep the node order, and the arcs, sorted by tail,
    # are their own out-arc CSR.
    nodes, local = np.unique(arcs, return_inverse=True)
    tail, head = local.reshape(-1, 2).T
    n_in = np.bincount(head, minlength=len(nodes))
    indeg, succ = n_in.tolist(), head.tolist()
    starts = np.searchsorted(tail, np.arange(len(nodes) + 1)).tolist()
    depth, order = [0] * len(nodes), []
    ready = [v for v, d in enumerate(indeg) if not d]
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        d = depth[u] + 1
        for v in succ[starts[u]:starts[u + 1]]:
            depth[v] = max(depth[v], d)
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, v)
    if len(order) < len(nodes):
        # A node the sweep did not reach has an in-arc from another such
        # node: walking back along those closes a cycle.
        walk, v = {}, next(v for v, d in enumerate(indeg) if d)
        while v not in walk:
            walk[v] = len(walk)
            v = next(u for u in tail[head == v].tolist() if indeg[u])
        return CyclicSkip(cycle=tuple(nodes[list(walk)[walk[v]:][::-1]].tolist()))

    # Per arc, in coefficient order (its tail's topological position, then
    # arc id): its coefficient count and columns.
    seq = np.argsort(np.argsort(order)[tail], kind="stable")
    fan_in = np.where(nodes == 0, rate, n_in)[tail[seq]]
    lows = np.repeat((fan_in == 1).astype(np.int64), fan_in)
    k = np.arange(max(rate, n_in.max(initial=0)))
    firsts = np.cumsum(fan_in) - fan_in
    cols = np.where(k < fan_in[:, None], firsts[:, None] + k, len(lows))
    # Each node's in-arcs (the in-arc CSR), padded with the zero arc.
    by_head = np.append(np.argsort(head, kind="stable"), len(arcs))
    ins = by_head[np.where(k < n_in[:, None], (np.cumsum(n_in) - n_in)[:, None] + k, len(arcs))]
    # Stable by depth, so each level keeps topological order.
    arc_depth = np.array(depth, np.intp)[tail]
    by_depth = np.argsort(arc_depth[seq], kind="stable")
    out, fan_in, cols = seq[by_depth], fan_in[by_depth], cols[by_depth]
    stops = np.cumsum(np.bincount(arc_depth)).tolist()
    levels = []
    for a, b in zip([0, *stops], stops):
        w = fan_in[a:b].max()
        levels.append((out[a:b], ins[tail[out[a:b]], :w] if a else None, cols[a:b, :w]))
    # Rows broadcast against columns: at rate 0, with no nodes, no row is read.
    terminals = np.searchsorted(nodes, [flow.terminal for flow in flows])[:, None]
    return CodingDag(rate, arcs, nodes[order], levels, lows, ins[terminals, np.arange(rate)])


@dataclass(frozen=True)
class AchievabilityReport:
    h: int
    trials: int
    success_fraction: float
    cyclic_skipped: bool
    field_poly: str = "0x11B"

    def to_json(self) -> dict:
        return {name: _sig6(value) for name, value in asdict(self).items()}


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


def _global_vectors(dag: CodingDag, coeffs: np.ndarray, field) -> np.ndarray:
    """Global coding vectors of a block of T coding trials, an
    (arcs + 1, h, T) uint8 array whose last arc is the zero arc, from their
    local coefficients `coeffs` (_coefficients). Each level is one gather,
    one product and one XOR reduction over its in-arcs, over at most about
    CHUNK_CELLS products at a time."""
    h, trials = dag.rate, coeffs.shape[1]
    vectors = np.empty((len(dag.arcs) + 1, h, trials), dtype=np.uint8)
    vectors[-1] = 0
    for out, ins, cols in dag.levels:
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
    # entry j of in-arc i's vector, and the rank is the same. The sizes are
    # explicit, so that h = 0 stacks empty matrices, which have full rank.
    stack = vectors.transpose(1, 0, 2)[:, in_arcs.T].reshape(h, h, len(in_arcs) * trials)
    return int(_full_rank(stack, field).reshape(len(in_arcs), trials).all(axis=0).sum())


def verify_achievability(graph: ConnectivityGraph, trials: int, rng: RandomStream,
                         field=GF256) -> AchievabilityReport:
    """Random-coding check that the min-cut rate is decodable at every
    terminal. h is fixed to the multicast capacity, the least of the
    terminals' min cuts: min_cut's flows, which the graph runs once and
    keeps, so a caller that has read them costs no second run.

    The coding DAG is build_coding_dag's: the arcs of positive net hop count
    over each terminal's first h augmenting paths, ordered and levelled by
    one topological sweep. Each terminal has exactly h in-arcs: h
    edge-disjoint paths end at it, and no other terminal's flow touches it.
    """
    _require_int("trials", trials, 1)
    if graph.n_terminals < 1:
        raise ValueError("need at least one terminal")
    flows = [min_cut(graph, t) for t in graph.terminal_ids]
    h = min(flow.capacity for flow in flows)
    # A cyclic union decodes no trial; at rate 0 the DAG is empty, and every
    # trial decodes.
    dag = build_coding_dag(flows, h)
    successes = 0
    if isinstance(dag, CodingDag):
        for first in range(0, trials, CODING_BLOCK):
            block = range(first, min(first + CODING_BLOCK, trials))
            coeffs = _coefficients(rng, block, dag.lows, field)
            vectors = _global_vectors(dag, coeffs, field)
            successes += _count_decoded(vectors, dag.terminal_arcs, field)
    return AchievabilityReport(
        h=h, trials=trials, success_fraction=successes / trials,
        cyclic_skipped=isinstance(dag, CyclicSkip), field_poly=field.poly,
    )
