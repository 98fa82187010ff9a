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
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .model import ConnectionModel, kernel_probability, sample_points
from .rng import RandomStream

BRUTE_FORCE_MAX_RELAYS = 20
# Nodes the near-pair search handles per numpy pass; bounds its temporaries.
NEAR_PAIR_BLOCK = 1024


@dataclass(frozen=True)
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
    build costs O(N + pairs within r'), not O(N^2).
    """
    if n_relays < 1 or n_terminals < 1:
        raise ValueError("need at least one relay and one terminal")
    n_total = 1 + n_relays + n_terminals
    positions = sample_points(n_total, rng.child("positions"))
    edge_rng = rng.child("edges")

    iu, ju = _near_pairs(positions, model.r_prime)
    # Drop source-terminal and terminal-terminal pairs from the enumeration.
    first_t = 1 + n_relays
    is_term_i = iu >= first_t
    is_term_j = ju >= first_t
    is_source_i = iu == 0
    allowed = ~((is_source_i & is_term_j) | (is_term_i & is_term_j))
    iu, ju = iu[allowed], ju[allowed]

    d = np.hypot(
        positions[iu, 0] - positions[ju, 0], positions[iu, 1] - positions[ju, 1]
    )
    probs = kernel_probability(d, model)
    accept = probs >= 1.0
    stochastic = (probs > 0.0) & (probs < 1.0)
    draws = edge_rng.random(int(stochastic.sum()))
    accept[stochastic] = draws < probs[stochastic]

    # _near_pairs is row-major, so the accepted pairs are already sorted.
    edges = np.stack([iu[accept], ju[accept]], 1)
    return ConnectivityGraph(
        n_relays, n_terminals, edges, positions, model, int(rng.master_seed)
    )


def _near_pairs(positions: np.ndarray, radius: float):
    """All pairs (i < j) at np.hypot distance <= radius, as arrays (iu, ju)
    in row-major order.

    A fixed-radius near-neighbour search over a grid of square cells
    (Bentley, Stanat & Williams, 1977). The cells have side > radius / 2,
    with a margin so that rounding in x * m cannot put a pair at distance
    radius more than 2 cells apart on an axis. The grid has at most about
    N cells, which keeps radius 0 and tiny radii O(N).
    """
    n = len(positions)
    m = max(1, min(math.isqrt(n), int(2 / max(radius * (1 + 1e-9), 1 / n))))
    cell_xy = np.minimum((positions * m).astype(np.intp), m - 1)
    order = np.argsort(cell_xy[:, 0] * m + cell_xy[:, 1], kind="stable")
    cx, cy = cell_xy[order].T
    x, y = positions[order].T.copy()
    # Sorted position p holds node order[p]; cell c is positions
    # start[c]:start[c + 1], so cells (cx, cy - 2) to (cx, cy + 2) are one slice.
    start = np.searchsorted(cx * m + cy, np.arange(m * m + 1))
    # Each near pair is met once: from the smaller position when both nodes
    # share a column of cells, else from the node in the left column.
    offsets = np.arange(3)
    keys = []
    for lo in range(0, n, NEAR_PAIR_BLOCK):
        p = np.arange(lo, min(lo + NEAR_PAIR_BLOCK, n))
        col = cx[p, None] + offsets
        base = np.minimum(col, m - 1) * m
        first = start[base + np.maximum(cy[p, None] - 2, 0)]
        first[:, 0] = p + 1
        count = start[base + np.minimum(cy[p, None] + 2, m - 1) + 1] - first
        count[col >= m] = 0
        count, first = count.ravel(), first.ravel()
        total = np.cumsum(count)
        a = p.repeat(len(offsets)).repeat(count)
        b = np.repeat(first - total + count, count) + np.arange(total[-1])
        # hypot is even in each argument: these are the bits the build's
        # distance for (i, j) has.
        near = np.hypot(x[a] - x[b], y[a] - y[b]) <= radius
        a, b = order[a[near]], order[b[near]]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    return np.divmod(np.sort(np.concatenate(keys)), n)


@dataclass(frozen=True, eq=False)
class Flow:
    """An integral max flow from the source to one terminal, as _max_flow
    leaves it.

    level[v] >= 0 iff v is reachable from the source in the final residual
    network; arc e runs to to[e] with residual capacity cap[e] (0 or 1).
    `spent` holds the arcs each augmenting path spent, phase after phase in
    augmentation order, and path k ends at spent[ends[k] - 1].
    """

    terminal: int
    value: int
    level: np.ndarray
    to: np.ndarray
    cap: np.ndarray
    spent: np.ndarray
    ends: tuple[int, ...]

    def paths(self, limit: int | None = None) -> list[list[int]]:
        """The flow of the first `limit` augmenting paths (all when None),
        decomposed into edge-disjoint s->t node paths.

        A Dinic run stopped at `limit` units is a prefix of the full run: the
        same level graphs and the same DFS order up to its last augmentation.
        Each spend turns the arc and its partner around, so replaying a prefix
        leaves forward arc 2k carrying the parity of its pair's spends: the
        flow that run leaves.
        """
        count = self.value if limit is None else max(0, min(limit, self.value))
        spent = self.spent[:self.ends[count - 1] if count else 0]
        carried = np.bincount(spent >> 1, minlength=len(self.to) // 2) & 1
        # Antiparallel relay flows cancel.
        e = 2 * np.flatnonzero(carried)
        used = set(zip(self.to[e + 1].tolist(), self.to[e].tolist()))
        out_flow: dict[int, list[int]] = {}
        for u, v in sorted(used):
            if (v, u) not in used:
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
    k: int
    capacity: int
    # The max flow that certifies the cut; None from the exhaustive oracle.
    flow: Flow | None = field(default=None, compare=False, repr=False)


def _check_terminal(graph: ConnectivityGraph, terminal: int):
    if terminal not in graph.terminal_ids:
        raise ValueError(f"unknown terminal id {terminal}")


def cut_capacity(graph: ConnectivityGraph, terminal: int, partition_vk) -> int:
    """Crossing capacity of the relay partition (V_k source side)."""
    _check_terminal(graph, terminal)
    vk = sorted(set(int(x) for x in partition_vk))
    relay_set = set(graph.relay_ids)
    if not set(vk) <= relay_set:
        raise ValueError("partition must be a subset of the relays")
    # Side 0 is the source with V_k, side 1 the other relays with the
    # terminal, side -1 the other terminals; a row crosses iff its sides sum to 1.
    side = np.full(graph.n_nodes, -1)
    side[0] = 0
    side[graph.relay_ids] = 1
    side[vk] = 0
    side[terminal] = 1
    return int(np.count_nonzero(side[graph.edges].sum(axis=1) == 1))


def _max_flow(graph: ConnectivityGraph, terminal: int, limit: int | None = None):
    """Unit-capacity Dinic max flow from the source to one terminal.

    Arcs are source->relay, both directions of each relay-relay edge (pairs
    i < j row-major, i->j first) and relay->terminal, in that order; the
    residual partner of arc e is e ^ 1. Other terminals get no arcs.

    Each phase does its O(E) work in numpy: a frontier BFS sets the levels,
    and a backward sweep keeps only the level-graph arcs (residual, one
    level up) into nodes from which the terminal is reachable. An iterative
    augmenting DFS then walks the kept arcs, each node's in index order. The
    arcs dropped are those on which a DFS over all arcs would meet only dead
    ends, and dead ends change no capacity, so the flow found is the one
    that DFS finds: a function of the graph alone. Stops once `limit` units
    flow; the limit is at most min(deg s, deg t), which bounds the max flow.

    Returns the Flow, with the arcs each augmenting path spent.
    """
    n = graph.n_nodes
    e = graph.edges.astype(np.int32)
    i, j = e[:, 0], e[:, 1]
    src = j[i == 0]
    rr = e[(i > 0) & (j <= graph.n_relays)]
    dst = i[j == terminal]
    tail = np.concatenate([np.zeros_like(src), rr.ravel(), dst])
    head = np.concatenate([src, rr[:, ::-1].ravel(), np.full_like(dst, terminal)])
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
    bound = min(len(src), len(dst))
    limit = bound if limit is None else min(limit, bound)

    flow = 0
    spent = [arc[:0]]  # per phase, the arcs spent, in augmentation order
    ends = []
    while True:
        # layers[d] holds the positions of the residual arcs out of the nodes
        # at level d. While flow is still wanted, the BFS stops at the
        # terminal's level; the levels it returns are complete.
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
            if level[terminal] == len(layers) and flow < limit:
                break
            frontier = np.flatnonzero(level == len(layers))
        if level[terminal] < 0 or flow >= limit:
            return Flow(terminal, flow, level, to, cap, np.concatenate(spent), tuple(ends))
        # Backward sweep: reach[v] is v's level once v is known to reach the
        # terminal, else -1.
        reach = np.full(n, -1, np.int32)
        reach[terminal] = level[terminal]
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
        while flow < limit:
            if u == terminal:
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
        spent.append(arc[keep[used]])
        cap[spent[-1]] = False
        cap[spent[-1] ^ 1] = True


def min_cut(graph: ConnectivityGraph, terminal: int) -> CutResult:
    """Exact s-t min cut via integer max flow; certificate is the
    source-side-minimal relay partition (residual reachability). The flow
    comes along, so its paths need no second run."""
    _check_terminal(graph, terminal)
    flow = _max_flow(graph, terminal)
    partition = tuple((np.flatnonzero(flow.level[1:1 + graph.n_relays] >= 0) + 1).tolist())
    return CutResult(
        terminal=terminal, partition_vk=partition, k=len(partition),
        capacity=flow.value, flow=flow,
    )


def edge_disjoint_paths(
    graph: ConnectivityGraph, terminal: int, limit: int | None = None
) -> list[list[int]]:
    """Decompose an integral max flow, stopped at `limit` units, into
    edge-disjoint s->t node paths."""
    _check_terminal(graph, terminal)
    return _max_flow(graph, terminal, limit).paths()


def brute_force_min_cut(graph: ConnectivityGraph, terminal: int) -> CutResult:
    """Independent oracle: exhaustive minimum over all relay partitions.

    Ties broken by lexicographically smallest sorted V_k tuple.
    """
    _check_terminal(graph, terminal)
    n = graph.n_relays
    if n > BRUTE_FORCE_MAX_RELAYS:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_RELAYS}")
    relays = np.array(graph.relay_ids, dtype=int)
    a = np.zeros((graph.n_nodes, graph.n_nodes), dtype=int)
    for i, j in graph.edge_list():
        a[i, j] = a[j, i] = 1
    s_row = a[0, relays]
    t_col = a[relays, terminal]
    rr = a[np.ix_(relays, relays)]

    best_value = None
    best_tuple = None
    for mask in range(1 << n):
        sel = np.array([(mask >> b) & 1 for b in range(n)], dtype=bool)
        value = int(s_row[~sel].sum())
        if sel.any() and (~sel).any():
            value += int(rr[np.ix_(sel, ~sel)].sum())
        value += int(t_col[sel].sum())
        vk = tuple(int(r) for r in relays[sel])
        if best_value is None or value < best_value or (
            value == best_value and vk < best_tuple
        ):
            best_value = value
            best_tuple = vk
    return CutResult(
        terminal=terminal,
        partition_vk=best_tuple,
        k=len(best_tuple),
        capacity=best_value,
    )


def multicast_capacity(graph: ConnectivityGraph) -> int:
    """Network coding multicast capacity: min over terminals of the min cut."""
    if graph.n_terminals < 1:
        raise ValueError("need at least one terminal")
    return min(min_cut(graph, t).capacity for t in graph.terminal_ids)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def graph_to_json(graph: ConnectivityGraph) -> dict:
    positions = (
        [] if graph.positions is None else [[float(x), float(y)] for x, y in graph.positions]
    )
    return {
        "n_relays": graph.n_relays,
        "terminals": graph.terminal_ids,
        "positions": positions,
        "edges": [[i, j] for i, j in graph.edge_list()],
        "model": None if graph.model is None else graph.model.to_json(),
        "seed": graph.seed,
    }


def graph_from_json(obj: dict) -> ConnectivityGraph:
    """Graph from its JSON document; a malformed document raises ValueError."""
    try:
        n_relays = int(obj["n_relays"])
        terminals = obj["terminals"]
        first_t = 1 + n_relays
        if terminals != list(range(first_t, first_t + len(terminals))):
            raise ValueError(f"terminals must be the ids that follow the relays, from {first_t}")
        model = None if obj.get("model") is None else ConnectionModel.from_json(obj["model"])
        return from_edges(
            n_relays, len(terminals), obj["edges"], positions=obj.get("positions") or None,
            model=model, seed=obj.get("seed"),
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
    """Write to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def wheatstone_graph() -> ConnectivityGraph:
    """Source X - relay A - relay B - terminal Y chain; min cut 1."""
    return from_edges(2, 1, [(0, 1), (1, 2), (2, 3)])


def butterfly_graph() -> ConnectivityGraph:
    """Four-relay butterfly with two terminals; multicast capacity 2.

    Relays: a=1, b=2, c=3 (mixing node), d=4. Terminals: t1=5, t2=6.
    """
    edges = [
        (0, 1), (0, 2),        # s-a, s-b
        (1, 3), (2, 3),        # a-c, b-c
        (3, 4),                # c-d (bottleneck)
        (1, 5), (2, 6),        # a-t1, b-t2
        (4, 5), (4, 6),        # d-t1, d-t2
    ]
    return from_edges(4, 2, edges)
