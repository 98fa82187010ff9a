"""Connectivity graphs and exact s-t min-cut / multicast capacity.

Node ids are fixed by construction: 0 is the source, 1..n_relays are relays,
and the next n_terminals ids are terminals. A graph is its unit edges, held
as a sorted array of (i, j) rows with i < j; source-terminal and
terminal-terminal edges are forbidden (messages always pass through at least
one relay, and terminal-terminal proximity can never carry source-to-terminal
flow).
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import KERNEL_FIXED, ConnectionModel, kernel_probability, sample_points
from .rng import RandomStream

# Candidate pairs the near-pair search screens per numpy pass; bounds its
# temporaries.
NEAR_PAIR_CHUNK = 1 << 16
# The near-pair screen compares dx*dx + dy*dy with radius**2, for r' and for
# r, and calls np.hypot only inside this relative band around it. The
# squares, their sum, radius**2 and np.hypot (1 ulp) each err by a few units
# of 2**-53, far inside 2**-40; the absolute floor covers squares that
# underflow (each loses under 2**-1074).
SCREEN_MARGIN = 2.0**-40
SCREEN_FLOOR = 2.0**-1068


@dataclass(frozen=True, eq=False)
class ConnectivityGraph:
    n_relays: int
    n_terminals: int
    edges: np.ndarray  # (E, 2) int64 rows (i, j), i < j, lexicographically sorted, unique
    positions: np.ndarray | None = None
    model: ConnectionModel | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.n_relays < 0 or self.n_terminals < 0:
            raise ValueError("node counts must be non-negative")
        n_total = self.n_nodes
        # Node ids must fit the flows' int32 arrays; the build's pair keys
        # ((i << s) | j) << 1 then fit in 2 * 31 + 1 bits.
        if n_total > 2**31:
            raise ValueError(f"a graph holds at most 2**31 nodes, not {n_total}")
        e = self.edges
        if e.ndim != 2 or e.shape[1] != 2 or not np.issubdtype(e.dtype, np.integer):
            raise ValueError("edges must be an (E, 2) integer array")
        i, j = e[:, 0], e[:, 1]
        if np.any(i < 0) or np.any(j >= n_total) or np.any(i >= j):
            raise ValueError(f"edges need 0 <= i < j < {n_total}")
        if np.any(np.diff(i * n_total + j) <= 0):
            raise ValueError("edges must be sorted and unique")
        first_t = 1 + self.n_relays
        if np.any((i == 0) & (j >= first_t)):
            raise ValueError("source-terminal edges are forbidden")
        if np.any(i >= first_t):
            raise ValueError("terminal-terminal edges are forbidden")
        if self.positions is not None and self.positions.shape != (n_total, 2):
            raise ValueError(f"positions must have shape ({n_total}, 2)")
        e.setflags(write=False)

    @property
    def source(self) -> int:
        return 0

    @property
    def relay_ids(self) -> list[int]:
        return list(range(1, 1 + self.n_relays))

    @property
    def terminal_ids(self) -> list[int]:
        return list(range(1 + self.n_relays, 1 + self.n_relays + self.n_terminals))

    @property
    def n_nodes(self) -> int:
        return 1 + self.n_relays + self.n_terminals

    def source_degree(self) -> int:
        return int(np.count_nonzero(self.edges[:, 0] == 0))

    def edge_list(self) -> list[tuple[int, int]]:
        """All unit edges as sorted (i, j) pairs with i < j."""
        return [(i, j) for i, j in self.edges.tolist()]

    @cached_property
    def _rows(self) -> list[int]:
        """_residual_rows of the graph, packed once and shared by the flows
        to every terminal: the edges are read-only, so it cannot go stale.
        Readers copy the list before they change a row."""
        return _residual_rows(self)


def from_edges(
    n_relays: int,
    n_terminals: int,
    edges,
    positions=None,
    model: ConnectionModel | None = None,
    seed: int | None = None,
) -> ConnectivityGraph:
    """Build a graph from an explicit edge list (fixtures, JSON loading).

    Pairs may come in either orientation and repeat; each becomes one (i, j)
    row with i < j.
    """
    e = np.asarray(edges)
    if e.size == 0:
        e = np.empty((0, 2), dtype=np.int64)
    elif e.ndim == 2:  # any other shape is left for the constructor to reject
        # Sorted rows minus repeats, as np.unique(axis=0) gives without
        # importing numpy.ma.
        e = np.sort(e, axis=1)
        e = e[np.lexsort(e.T[::-1])]
        e = e[np.r_[True, np.any(e[1:] != e[:-1], axis=1)]]
    pos = None if positions is None else np.asarray(positions, dtype=float)
    return ConnectivityGraph(n_relays, n_terminals, e, pos, model, seed)


def build_connectivity_graph(
    n_relays: int,
    n_terminals: int,
    model: ConnectionModel,
    rng: RandomStream,
) -> ConnectivityGraph:
    """Sample positions and realize the connectivity graph.

    Geometry and edge randomness come from separate child streams. Edge pairs
    are processed in canonical (i < j) order; role-forbidden pairs are skipped
    outright and deterministic pairs (probability 0 or 1) consume no draw, so
    stream positions are stable across parameter changes. Pairs beyond r'
    have probability 0, so only the pairs within r' are listed at all: the
    build costs O(N + pairs within r'), not O(N^2). The search marks each
    pair as within r or in the annulus; pairs within r connect without a
    draw or a distance, and only annulus pairs reach the kernel, which under
    the fixed kernel is the constant p and needs no distance either.
    """
    if n_relays < 1 or n_terminals < 1:
        raise ValueError("need at least one relay and one terminal")
    n_total = 1 + n_relays + n_terminals
    positions = sample_points(n_total, rng.child("positions"))
    edge_rng = rng.child("edges")

    # Keys ((i << shift) | j) << 1 | annulus, sorted.
    keys = _near_pairs(positions, model.r_prime, model.r)
    shift = _key_shift(n_total)
    # The sorted keys hold the source-terminal pairs (0, j >= first_t) as one
    # run and the terminal-terminal pairs (i >= first_t) as the last run.
    first_t = 1 + n_relays
    cuts = np.array([first_t, 1 << shift, first_t << shift]) << 1
    st_lo, st_hi, tt_lo = np.searchsorted(keys, cuts)
    keys = np.concatenate([keys[:st_lo], keys[st_hi:tt_lo]])

    accept = (keys & 1) == 0
    annulus = np.flatnonzero(~accept)
    if model.kernel == KERNEL_FIXED:
        probs = np.broadcast_to(model.p, annulus.shape)
    else:
        probs = kernel_probability(_pair_distances(positions, keys[annulus] >> 1, shift), model)
    accept[annulus] = probs >= 1.0
    draw = (probs > 0.0) & (probs < 1.0)
    accept[annulus[draw]] = edge_rng.random(np.count_nonzero(draw)) < probs[draw]

    keys = keys[accept]
    edges = np.empty((len(keys), 2), dtype=np.int64)
    np.right_shift(keys, shift + 1, out=edges[:, 0])
    keys >>= 1
    np.bitwise_and(keys, (1 << shift) - 1, out=edges[:, 1])
    return ConnectivityGraph(
        n_relays, n_terminals, edges, positions, model, int(rng.master_seed)
    )


def _key_shift(n: int) -> int:
    """Bits of j in the pair key (i << shift) | j of a graph of n nodes."""
    return max(n - 1, 0).bit_length()


def _pair_distances(positions: np.ndarray, keys: np.ndarray, shift: int) -> np.ndarray:
    """np.hypot distance of each pair key (i << shift) | j."""
    i, j = keys >> shift, keys & ((1 << shift) - 1)
    x, y = positions.T.copy()
    dx, dy = x[i], y[i]
    dx -= x[j]
    dy -= y[j]
    return np.hypot(dx, dy, out=dx)


def _near_pairs(positions: np.ndarray, radius: float, inner: float) -> np.ndarray:
    """All pairs (i < j) at np.hypot distance <= radius, as sorted int64 keys
    ((i << shift) | j) << 1 | annulus with shift = _key_shift(N): the low bit
    is the pair's class, annulus being np.hypot distance > inner.

    A fixed-radius near-neighbour search over vertical strips (Bentley,
    Stanat & Williams, 1977). The strips have width > radius / 2, with a
    margin so that rounding in x * m cannot put a pair at distance radius
    more than 2 strips apart; there are at most about sqrt(N) of them, which
    keeps radius 0 and tiny radii O(N). With the nodes sorted by (strip, y),
    each node meets the nodes after it in its own strip and the nodes of the
    next two strips within y +- radius, so each candidate pair is met once.
    A candidate's squared distance settles both radii (_beyond); only the few
    within SCREEN_MARGIN of a radius squared take np.hypot. The class bit
    rides through the one sort, so it needs no argsort.
    """
    n = len(positions)
    if n < 2:
        return np.empty(0, dtype=np.int64)
    m = max(1, min(math.isqrt(n), int(2 / max(radius * (1 + 1e-9), 1 / n))))
    strip = np.minimum((positions[:, 0] * m).astype(np.intp), m - 1)
    # Strip c holds the keys 4c + y in [4c, 4c + 1], so a window y +- w
    # with w just over 1 stays inside the strip it targets.
    key = strip * 4.0 + positions[:, 1]
    order = np.argsort(key)
    key = key[order]
    x, y = positions[order].T.copy()
    # The slack covers the rounding of 4c + y, of the window bounds and of y - y'.
    w = min(radius, 1.0) + 8 * np.spacing(8.0 * (m + 1))
    bounds = np.searchsorted(key, key[:, None] + np.array([w, 4 - w, 4 + w, 8 - w, 8 + w]))
    # Candidate range 3p + k of sorted node p is strip k to its right.
    first = bounds[:, [0, 1, 3]]
    first[:, 0] = np.arange(1, n + 1)
    first = first.ravel()
    count = bounds[:, 0::2].ravel() - first
    total = np.cumsum(count)
    shift = _key_shift(n)
    keys = [np.empty(0, dtype=np.int64)]
    # Chunks of whole ranges, each from the range holding candidate k * CHUNK.
    starts = np.searchsorted(total, np.arange(0, total[-1], NEAR_PAIR_CHUNK), "right")
    cuts = [*dict.fromkeys(starts.tolist()), 3 * n]
    for lo, hi in zip(cuts, cuts[1:]):
        ends = total[lo:hi] - (total[lo - 1] if lo else 0)
        c = count[lo:hi]
        a = (np.arange(lo, hi) // 3).repeat(c)
        b = np.repeat(first[lo:hi] - ends + c, c) + np.arange(ends[-1])
        dx = x[a]
        dx -= x[b]
        dy = y[a]
        dy -= y[b]
        dx *= dx
        dy *= dy
        dx += dy
        near = ~_beyond(dx, radius, x, y, a, b)
        a, b = a[near], b[near]
        i, j = order[a], order[b]
        key_ij = np.minimum(i, j)
        key_ij <<= shift
        key_ij |= np.maximum(i, j, out=j)
        key_ij <<= 1
        key_ij |= _beyond(dx[near], inner, x, y, a, b)
        keys.append(key_ij)
    return np.sort(np.concatenate(keys))


def _beyond(s: np.ndarray, radius: float, x, y, a, b) -> np.ndarray:
    """np.hypot(x[a] - x[b], y[a] - y[b]) > radius for the pairs (a, b),
    whose squared distances are s.

    s settles a pair unless it lies within SCREEN_MARGIN of radius**2; only
    those few take np.hypot. hypot is even in each argument, so these are
    the bits the build's distance for the pair has, whichever node comes
    first.
    """
    r2 = radius * radius
    out = s > r2 * (1 + SCREEN_MARGIN) + SCREEN_FLOOR
    doubt = np.flatnonzero(out != (s > r2 * (1 - SCREEN_MARGIN) - SCREEN_FLOOR))
    if doubt.size:
        a, b = a[doubt], b[doubt]
        out[doubt] = np.hypot(x[a] - x[b], y[a] - y[b]) > radius
    return out


@dataclass(frozen=True, eq=False)
class Flow:
    """An integral max flow from the source to one terminal, as _max_flow
    leaves it.

    level[v] >= 0 iff v is reachable from the source in the final residual
    network. `hops` holds the nodes each augmenting path visits after the
    source, in augmentation order: path k is 0, hops[ends[k - 1]:ends[k]]
    (ends[-1] read as 0) and ends at the terminal.
    """

    terminal: int
    value: int
    level: np.ndarray
    hops: np.ndarray
    ends: tuple[int, ...]

    def arcs(self, limit: int) -> np.ndarray:
        """The arcs u -> v that carry a unit after the first `limit`
        augmenting paths, as sorted int64 keys u * N + v, N = len(level).
        Each path's tails are the source, then its hops shifted by one; u -> v
        carries a unit when the paths hop u -> v more often than v -> u, since
        opposite hops cancel as the flow's units do. `limit` is clamped to
        0..value, as in paths."""
        limit = max(0, min(limit, self.value))
        n, bounds = len(self.level), (0, *self.ends)
        heads = self.hops[:bounds[limit]].astype(np.int64)
        tails = heads[np.arange(len(heads)) - 1]
        tails[list(bounds[:limit])] = 0  # where a path starts
        hops, which = np.unique(np.concatenate([tails * n + heads, heads * n + tails]),
                                return_inverse=True)
        net = np.bincount(which, np.repeat([1, -1], len(heads)), len(hops))
        return hops[net > 0]

    def paths(self, limit: int | None = None) -> list[list[int]]:
        """The flow of the first `limit` augmenting paths (all when None),
        decomposed into edge-disjoint s->t node paths.

        A Dinic run stopped at `limit` units is a prefix of the full run: the
        same level graphs and the same DFS order up to its last augmentation.
        Each hop u -> v cancels the unit on v -> u if there is one and adds a
        unit on u -> v otherwise, so replaying the prefix's hops leaves the
        flow that run leaves: antiparallel relay flows cancel.
        """
        count = self.value if limit is None else max(0, min(limit, self.value))
        hops = self.hops[:self.ends[count - 1] if count else 0].tolist()
        used = set()  # the edges u -> v that carry a unit
        for a, b in zip((0, *self.ends), self.ends[:count]):
            u = 0
            for v in hops[a:b]:
                if (v, u) in used:
                    used.remove((v, u))
                else:
                    used.add((u, v))
                u = v
        out_flow: dict[int, list[int]] = {}
        for u, v in sorted(used):
            out_flow.setdefault(u, []).append(v)

        paths = []
        for _ in range(count):
            path = [0]
            u = 0
            while u != self.terminal:
                u = out_flow[u].pop(0)
                path.append(u)
            paths.append(path)
        return paths


@dataclass(frozen=True)
class CutResult:
    terminal: int
    partition_vk: tuple[int, ...]  # source-side relays, sorted
    capacity: int
    # The max flow that certifies the cut; None for a cut found by search.
    flow: Flow | None = field(default=None, compare=False, repr=False)


def _check_terminal(graph: ConnectivityGraph, terminal: int):
    first_t = 1 + graph.n_relays
    if not (_is_int(terminal) and first_t <= terminal < first_t + graph.n_terminals):
        raise ValueError(f"unknown terminal id {terminal}")


def cut_capacity(graph: ConnectivityGraph, terminal: int, partition_vk) -> int:
    """Crossing capacity of the relay partition (V_k source side)."""
    _check_terminal(graph, terminal)
    vk = [int(x) for x in partition_vk]
    if not set(vk) <= set(graph.relay_ids):
        raise ValueError("partition must be a subset of the relays")
    # Side 0 is the source with V_k, side 1 the other relays with the
    # terminal, side -1 the other terminals; a row crosses iff its sides sum to 1.
    side = np.full(graph.n_nodes, -1)
    side[0] = 0
    side[graph.relay_ids] = 1
    side[vk] = 0
    side[terminal] = 1
    return int(np.count_nonzero(side[graph.edges].sum(axis=1) == 1))


def _max_flow(graph: ConnectivityGraph, terminal: int):
    """Unit-capacity Dinic max flow from the source to one terminal.

    Arcs are source->relay, both directions of each relay-relay edge (pairs
    i < j row-major, i->j first) and relay->terminal, in that order; the
    residual partner of arc e is e ^ 1. Other terminals get no arcs. Stops
    once min(deg s, deg t) units flow, which bounds the max flow. A caller
    that wants fewer units takes a prefix of the paths (Flow.paths).

    Each phase sets levels by BFS and keeps the level-graph arcs (residual,
    one level up) into nodes from which the terminal is reachable; an
    iterative augmenting DFS then walks the kept arcs, each node's in index
    order. The arcs dropped are those on which a DFS over all arcs would
    meet only dead ends, and dead ends change no capacity, so the flow found
    is the one that DFS finds: a function of the graph alone. Two engines
    run the phases and return the same Flow, field for field. A dense
    network, whose bitset row of ceil(n / 64) words is no longer than the
    mean degree 2E / n, runs on bitset rows (_bitset_flow); a sparse one on
    numpy arc arrays (_csr_flow), where rows would cost O(n^2) bits.

    Returns the Flow, with the node path of each augmentation.
    """
    dense = -(-graph.n_nodes // 64) * graph.n_nodes <= 2 * len(graph.edges)
    return (_bitset_flow if dense else _csr_flow)(graph, terminal)


def _flow_arcs(graph: ConnectivityGraph, terminal: int):
    """_csr_flow's arcs: forward arc 2k runs tail[k] -> head[k], as int32
    arrays; plus the flow's bound, min(deg s, deg t)."""
    e = graph.edges.astype(np.int32)
    i, j = e[:, 0], e[:, 1]
    src = j[i == 0]
    relay = (i > 0) & (j <= graph.n_relays)
    # Column by column: selecting or reversing the (E, 2) rows is far slower.
    ri, rj = i[relay], j[relay]
    dst = i[j == terminal]
    tail = np.concatenate([np.zeros_like(src), np.stack([ri, rj], 1).ravel(), dst])
    head = np.concatenate([src, np.stack([rj, ri], 1).ravel(), np.full_like(dst, terminal)])
    return tail, head, min(len(src), len(dst))


def _csr_flow(graph: ConnectivityGraph, terminal: int):
    """_max_flow with each phase's O(E) work in numpy: a frontier BFS sets
    the levels, a backward sweep keeps the level-graph arcs, and the DFS
    walks the kept arcs in CSR order. They run on the nodes the arcs touch,
    with the source and the terminal, renumbered in id order, which keeps
    every choice; only the final `level` and `hops` are mapped back to node
    ids, so nodes without arcs cost no phase any memory."""
    tail, head, bound = _flow_arcs(graph, terminal)
    ids, local = np.unique(np.concatenate([np.array([0, terminal], np.int32), tail, head]),
                           return_inverse=True)
    n, t = len(ids), int(local[1])
    tail, head = local[2:].astype(np.int32).reshape(2, -1)
    # Arc 2k is tail[k] -> head[k] with capacity 1; arc 2k + 1 is its partner.
    frm = np.stack([tail, head], 1).ravel()
    to = np.stack([head, tail], 1).ravel()
    cap = np.tile(np.array([True, False]), len(head))
    # The phases scan the arcs in CSR order: position p holds arc arc[p],
    # which runs frm_p[p] -> to_p[p], and node u's arcs, in index order, are
    # at positions start[u]:start[u + 1]. Keys of the smallest dtype that
    # holds a node id let the stable sort run as a radix sort.
    arc = np.argsort(frm.astype(np.min_scalar_type(n)), kind="stable")
    frm_p, to_p = frm[arc], to[arc]
    start = np.searchsorted(frm_p, np.arange(n + 1))

    flow = 0
    hops = [to[:0]]  # per phase, the heads of the arcs spent, in augmentation order
    ends = []
    while True:
        # layers[d] holds the positions of the residual arcs out of the nodes
        # at level d. Below the bound, the BFS stops at the terminal's level;
        # the levels it returns are complete.
        level = np.full(n, -1, np.int32)
        level[0] = 0
        frontier = np.zeros(1, np.intp)
        layers = []
        while frontier.size:
            lo = start[frontier]
            count = start[frontier + 1] - lo
            pos = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
            pos = pos[cap[arc[pos]]]
            layers.append(pos)
            v = to_p[pos]
            level[v[level[v] < 0]] = len(layers)
            if level[t] == len(layers) and flow < bound:
                break
            frontier = np.flatnonzero(level == len(layers))
        if level[t] < 0 or flow >= bound:
            node_level = np.full(graph.n_nodes, -1, np.int32)
            node_level[ids] = level
            return Flow(terminal, flow, node_level, ids[np.concatenate(hops)], tuple(ends))
        # Backward sweep: reach[v] is v's level once v is known to reach the
        # terminal, else -1.
        reach = np.full(n, -1, np.int32)
        reach[t] = level[t]
        for d in range(len(layers) - 1, -1, -1):
            layers[d] = layers[d][reach[to_p[layers[d]]] == d + 1]
            reach[frm_p[layers[d]]] = d
        keep = np.sort(np.concatenate(layers))
        heads = to_p[keep].tolist()
        tails = frm_p[keep].tolist()
        # Node u's kept arcs are first[u]:first[u + 1]; it[u] is its current arc.
        first = np.searchsorted(keep, start).tolist()
        it = first[:]
        path = []  # kept arcs from the source to u
        used = []
        offset = ends[-1] if ends else 0
        u = 0
        while flow < bound:
            if u == t:
                for k in path:  # each arc is spent for the rest of the phase
                    it[tails[k]] += 1
                used += path
                ends.append(offset + len(used))
                flow += 1
                path = []
                u = 0
            elif it[u] == first[u + 1]:  # dead end: retreat one arc
                if not path:
                    break
                u = tails[path.pop()]
                it[u] += 1
            else:
                path.append(it[u])
                u = heads[it[u]]
        spent = arc[keep[used]]
        cap[spent] = False
        cap[spent ^ 1] = True
        hops.append(to[spent])


def _bitset_flow(graph: ConnectivityGraph, terminal: int):
    """_max_flow with each phase on Python-int bitset rows.

    res[u] has bit v set iff some arc u -> v has residual capacity. A BFS
    level is the OR of the frontier's rows minus the nodes seen (the bitmap
    frontier of Beamer, Asanovic & Patterson, SC 2012); the backward sweep
    keeps the level-d nodes whose row meets reach[d + 1]; the DFS at u walks
    res[u] & reach[level(u) + 1] in ascending node order, which is the arc
    order of the CSR scan. Only a relay pair has parallel arcs: relay u has
    1 - net[u, v] live arcs to relay v, net[u, v] being the flow on u -> v
    less the flow on v -> u, so two while v -> u carries a unit. A hop
    u -> v cancels that unit if there is one and carries a unit on u -> v
    otherwise, as in Flow.paths. An arc is spent at most once in a phase and
    none of a node's up-level arcs changes before the node is visited, so
    the DFS takes a node's candidates as its row stands at the first visit.

    The rows come straight from the edges (_residual_rows), with no arc
    arrays. They hold the arcs into every terminal: the other terminals
    start out seen, so no BFS level, sweep or DFS meets them. A graph with
    several terminals packs its rows once and keeps them (graph._rows), and
    each flow works on its own copy of the list; a lone terminal's flow
    packs its own and drops them, so the graph keeps no N^2 bits after its
    one flow. The flow's bound, min(deg s, deg t), is the bits of row 0 and
    the relays adjacent to the terminal.
    """
    n = graph.n_nodes
    res = list(graph._rows) if graph.n_terminals > 1 else _residual_rows(graph)
    bound = min(res[0].bit_count(), int(np.count_nonzero(graph.edges[:, 1] == terminal)))
    first_t = 1 + graph.n_relays
    others = (((1 << graph.n_terminals) - 1) << first_t) ^ (1 << terminal)
    width = (n + 7) // 8
    carried = set()  # the arcs u -> v that carry a unit
    hops = []
    ends = []
    flow = 0
    while True:
        # levels[d] lists the level-d nodes. Below the bound the BFS stops
        # at the terminal's level, len(levels), and lists none of it: only
        # the last phase sets `level`, and it never stops there.
        levels = [[0]]
        seen = 1 | others
        while True:
            reached = 0
            for u in levels[-1]:
                reached |= res[u]
            reached &= ~seen
            if not reached:
                break
            seen |= reached
            if reached >> terminal & 1 and flow < bound:
                break
            levels.append(_bit_ids(reached, width))
        if not seen >> terminal & 1 or flow >= bound:
            break
        # reach[d] holds the level-d nodes that reach the terminal.
        reach = [0] * len(levels) + [1 << terminal]
        for d in range(len(levels) - 1, -1, -1):
            up = reach[d + 1]
            for u in levels[d]:
                if res[u] & up:
                    reach[d] |= 1 << u
        cur = {}  # node -> heads of its kept arcs not yet passed; lowest first
        path = [0]  # nodes from the source; path[k] is at level k
        while flow < bound:
            u = path[-1]
            if u == terminal:
                for a, b in zip(path, path[1:]):
                    res[b] |= 1 << a
                    if (b, a) in carried:  # a keeps its own arc to b
                        carried.remove((b, a))
                    else:  # a's last live arc to b: pass b
                        carried.add((a, b))
                        res[a] ^= 1 << b
                        cur[a] &= cur[a] - 1
                hops += path[1:]
                ends.append(len(hops))
                flow += 1
                path = [0]
                continue
            m = cur[u] = cur.get(u, res[u]) & reach[len(path)]
            if m:
                path.append((m & -m).bit_length() - 1)
            elif len(path) > 1:  # dead end: retreat, and drop u from its level
                reach[len(path) - 1] ^= 1 << path.pop()
            else:
                break

    level = np.full(n, -1, np.int32)
    for d, nodes in enumerate(levels):
        level[nodes] = d
    return Flow(terminal, flow, level, np.array(hops, np.int32), tuple(ends))


def _residual_rows(graph: ConnectivityGraph) -> list[int]:
    """The residual rows of the flow networks to the terminals before any
    flow: row u as a Python int with bit v set iff there is an arc u -> v.

    Packed straight from the edge rows (i, j): bits i -> j and j -> i for
    every edge, less the arcs no flow may use, which are those into the
    source and out of a terminal. What is left is a forward bit for every
    edge, into any terminal, and a reverse bit for relay-relay edges only;
    a flow to one terminal keeps the others out itself (_bitset_flow).

    The packing takes at most about 16 bytes per edge bit: it packs all n
    rows at once when their n * n bools fit in that (the views of the edge
    columns index them, with no temporary), else blocks of 7 bytes per edge
    bit, which leaves room for the ids of the edges each block takes.
    """
    n = graph.n_nodes
    width = (n + 7) // 8
    i, j = graph.edges.T
    block = n if n * n <= 32 * len(i) else max(1, 14 * len(i) // n)
    rows = []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dense = np.zeros((hi - lo, n), bool)
        if block == n:
            dense[i, j] = True
            dense[j, i] = True
        else:
            a, b = np.searchsorted(i, [lo, hi])
            dense[i[a:b] - lo, j[a:b]] = True
            # The edges into rows lo..hi - 1 all have i < hi.
            back = np.flatnonzero((j[:b] >= lo) & (j[:b] < hi))
            row = j[back]
            row -= lo
            dense[row, i[back]] = True
        dense[:, 0] = False
        dense[max(1 + graph.n_relays - lo, 0):] = False
        data = memoryview(np.packbits(dense, axis=1, bitorder="little").ravel())
        rows += [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
    return rows


def _bit_ids(bits: int, width: int) -> list[int]:
    """The set bits of a row, ascending."""
    b = np.frombuffer(bits.to_bytes(width, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(b, bitorder="little")).tolist()


def min_cut(graph: ConnectivityGraph, terminal: int) -> CutResult:
    """Exact s-t min cut via integer max flow; certificate is the
    source-side-minimal relay partition (residual reachability). The flow
    comes along, so its paths need no second run."""
    _check_terminal(graph, terminal)
    flow = _max_flow(graph, terminal)
    partition = tuple((np.flatnonzero(flow.level[1:1 + graph.n_relays] >= 0) + 1).tolist())
    return CutResult(terminal=terminal, partition_vk=partition, capacity=flow.value, flow=flow)


def edge_disjoint_paths(
    graph: ConnectivityGraph, terminal: int, limit: int | None = None
) -> list[list[int]]:
    """The max flow's first `limit` augmenting paths (all when None),
    replayed and decomposed into edge-disjoint s->t node paths
    (Flow.paths)."""
    _check_terminal(graph, terminal)
    return _max_flow(graph, terminal).paths(limit)


def multicast_capacity(graph: ConnectivityGraph) -> int:
    """Network coding multicast capacity: min over terminals of the min cut."""
    if graph.n_terminals < 1:
        raise ValueError("need at least one terminal")
    return min(min_cut(graph, t).capacity for t in graph.terminal_ids)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def graph_to_json(graph: ConnectivityGraph) -> dict:
    return {
        "n_relays": graph.n_relays,
        "terminals": graph.terminal_ids,
        "positions": [] if graph.positions is None else graph.positions.tolist(),
        "edges": graph.edges.tolist(),
        "model": None if graph.model is None else graph.model.to_json(),
        "seed": graph.seed,
    }


def _is_int(value) -> bool:
    """An int and not a bool, which Python counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value, least: int | None = None):
    """Refuse a value that is not an int, or is a bool (an int to Python: it
    would run, and write `true` into the provenance), or is below `least`."""
    if not _is_int(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, not {value!r}")


def graph_from_json(obj: dict) -> ConnectivityGraph:
    """Graph from its JSON document; a malformed document raises ValueError."""
    try:
        n_relays = obj["n_relays"]
        _require_int("n_relays", n_relays)
        seed = obj.get("seed")
        if seed is not None and not _is_int(seed):
            raise ValueError(f"seed must be an integer or null, not {seed!r}")
        terminals, edges = obj["terminals"], obj["edges"]
        # A bool would pass as 0 or 1 both the terminal ids' comparison and
        # the integer edge array it joins.
        if not all(_is_int(t) for t in terminals):
            raise ValueError(f"terminals must hold integers only, not {terminals!r}")
        if not all(_is_int(x) for row in edges for x in row):
            raise ValueError("edges must hold integers only")
        first_t = 1 + n_relays
        if not terminals or terminals != list(range(first_t, first_t + len(terminals))):
            raise ValueError(f"terminals must be the ids that follow the relays, from {first_t}")
        model = None if obj.get("model") is None else ConnectionModel.from_json(obj["model"])
        return from_edges(
            n_relays, len(terminals), edges, positions=obj.get("positions") or None,
            model=model, seed=seed,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc!r}") from exc


def save_graph(graph: ConnectivityGraph, path: str):
    write_json_atomic(path, graph_to_json(graph))


def load_graph(path: str) -> ConnectivityGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def write_json_atomic(path: str, obj):
    write_text_atomic(path, json.dumps(obj, indent=2) + "\n")


def write_text_atomic(path: str, text: str):
    """Write to a temp file in the target's directory, then rename it over
    the target (through any symlinks). A target that exists and is not a
    regular file, such as a FIFO or a device, is written in place: a rename
    would replace it. The file gets the mode open(path, "w") leaves: a
    replaced file keeps its own, and a new one takes 0o666 less the umask
    (mkstemp's temp file is 0o600)."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)
    if os.path.exists(path):
        mode = stat.S_IMODE(os.stat(path).st_mode)
    else:
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
