"""Connectivity graphs and exact s-t min-cut / multicast capacity.

Node ids are fixed by construction: 0 is the source, 1..n_relays are relays,
and the next n_terminals ids are terminals. The adjacency matrix holds 0/1
unit capacities; source-terminal and terminal-terminal entries are forced to
zero (messages always pass through at least one relay, and terminal-terminal
proximity can never carry source-to-terminal flow).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .model import ConnectionModel, kernel_probability, sample_points
from .rng import RandomStream

BRUTE_FORCE_MAX_RELAYS = 20


@dataclass(frozen=True)
class ConnectivityGraph:
    n_relays: int
    n_terminals: int
    adjacency: np.ndarray  # (N, N) uint8, N = 1 + n_relays + n_terminals
    positions: np.ndarray | None = None
    model: ConnectionModel | None = None
    seed: int | None = None

    def __post_init__(self):
        n_total = 1 + self.n_relays + self.n_terminals
        a = self.adjacency
        if a.shape != (n_total, n_total):
            raise ValueError("adjacency shape does not match node counts")
        if np.any(a != a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("no self-loops")
        for t in self.terminal_ids:
            if a[0, t] != 0:
                raise ValueError("source-terminal edges are forbidden")
        tb = np.ix_(self.terminal_ids, self.terminal_ids)
        if np.any(a[tb] != 0):
            raise ValueError("terminal-terminal edges are forbidden")
        a.setflags(write=False)

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
        return int(self.adjacency[0].sum())

    def edge_list(self) -> list[tuple[int, int]]:
        """All unit edges as sorted (i, j) pairs with i < j."""
        iu, ju = np.triu_indices(self.n_nodes, k=1)
        mask = self.adjacency[iu, ju] > 0
        return sorted(zip(iu[mask].tolist(), ju[mask].tolist()))

    def with_edge(self, i: int, j: int) -> "ConnectivityGraph":
        """Copy of the graph with edge (i, j) added."""
        a = self.adjacency.copy()
        a[i, j] = a[j, i] = 1
        return ConnectivityGraph(
            self.n_relays, self.n_terminals, a, self.positions, self.model, self.seed
        )


def from_edges(
    n_relays: int,
    n_terminals: int,
    edges,
    positions=None,
    model: ConnectionModel | None = None,
    seed: int | None = None,
) -> ConnectivityGraph:
    """Build a graph from an explicit edge list (fixtures, JSON loading)."""
    n_total = 1 + n_relays + n_terminals
    a = np.zeros((n_total, n_total), dtype=np.uint8)
    for i, j in edges:
        if i == j or not (0 <= i < n_total and 0 <= j < n_total):
            raise ValueError(f"bad edge ({i}, {j})")
        a[i, j] = a[j, i] = 1
    pos = None if positions is None else np.asarray(positions, dtype=float)
    return ConnectivityGraph(n_relays, n_terminals, a, pos, model, seed)


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
    stream positions are stable across parameter changes.
    """
    if n_relays < 1 or n_terminals < 1:
        raise ValueError("need at least one relay and one terminal")
    n_total = 1 + n_relays + n_terminals
    positions = sample_points(n_total, rng.child("positions"))
    edge_rng = rng.child("edges")

    iu, ju = np.triu_indices(n_total, k=1)
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

    a = np.zeros((n_total, n_total), dtype=np.uint8)
    a[iu[accept], ju[accept]] = 1
    a[ju[accept], iu[accept]] = 1
    return ConnectivityGraph(
        n_relays, n_terminals, a, positions, model, int(rng.master_seed)
    )


@dataclass(frozen=True)
class CutResult:
    terminal: int
    partition_vk: tuple[int, ...]  # source-side relays, sorted
    k: int
    capacity: int


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
    vbar = sorted(relay_set - set(vk))
    a = graph.adjacency
    total = int(a[0, vbar].sum()) if vbar else 0
    if vk and vbar:
        total += int(a[np.ix_(vk, vbar)].sum())
    if vk:
        total += int(a[vk, terminal].sum())
    return total


def _max_flow(graph: ConnectivityGraph, terminal: int, limit: int | None = None):
    """Unit-capacity Dinic max flow from the source to one terminal.

    Arcs are source->relay, both directions of each relay-relay edge (pairs
    i < j row-major, i->j first) and relay->terminal, in that order; the
    residual partner of arc e is e ^ 1. Other terminals get no arcs. The
    augmenting DFS is iterative and takes each node's arcs in index order,
    so the flow found is a function of the graph alone. Stops early once
    `limit` units flow.

    Returns (flow, level, to, cap): level[v] >= 0 iff v is reachable from the
    source in the final residual network; arc e runs to to[e] with residual
    capacity cap[e].
    """
    a = graph.adjacency
    r = slice(1, 1 + graph.n_relays)
    src = np.flatnonzero(a[0, r]) + 1
    i, j = np.nonzero(np.triu(a[r, r], 1))
    dst = np.flatnonzero(a[r, terminal]) + 1
    tail = np.concatenate([np.zeros_like(src), np.stack([i, j], 1).ravel() + 1, dst])
    head = np.concatenate([src, np.stack([j, i], 1).ravel() + 1, np.full_like(dst, terminal)])
    # Arc 2k is tail[k] -> head[k] with capacity 1; arc 2k + 1 is its partner.
    frm = np.stack([tail, head], 1).ravel()
    # Node u's arcs, in index order, are adj[start[u]:start[u + 1]].
    order = np.argsort(frm, kind="stable")
    start = np.searchsorted(frm[order], np.arange(graph.n_nodes + 1)).tolist()
    adj = order.tolist()
    to = np.stack([head, tail], 1).ravel().tolist()
    cap = [1, 0] * len(head)
    limit = len(src) if limit is None else min(limit, len(src))

    flow = 0
    while True:
        level = [-1] * graph.n_nodes
        level[0] = 0
        queue = [0]
        for u in queue:
            for e in adj[start[u]:start[u + 1]]:
                if cap[e] and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[terminal] < 0 or flow >= limit:
            return flow, level, to, cap
        it = start[:]  # current-arc pointer per node
        path = []      # arcs from the source to u
        u = 0
        while flow < limit:
            if u == terminal:
                for e in path:
                    cap[e] -= 1
                    cap[e ^ 1] += 1
                flow += 1
                path.clear()
                u = 0
            elif it[u] == start[u + 1]:  # dead end: retreat one arc
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                e = adj[it[u]]
                if cap[e] and level[to[e]] == level[u] + 1:
                    path.append(e)
                    u = to[e]
                else:
                    it[u] += 1


def min_cut(graph: ConnectivityGraph, terminal: int) -> CutResult:
    """Exact s-t min cut via integer max flow; certificate is the
    source-side-minimal relay partition (residual reachability)."""
    _check_terminal(graph, terminal)
    value, level, _, _ = _max_flow(graph, terminal)
    partition = tuple(r for r in graph.relay_ids if level[r] >= 0)
    return CutResult(
        terminal=terminal, partition_vk=partition, k=len(partition), capacity=value
    )


def edge_disjoint_paths(
    graph: ConnectivityGraph, terminal: int, limit: int | None = None
) -> list[list[int]]:
    """Decompose an integral max flow into edge-disjoint s->t node paths."""
    _check_terminal(graph, terminal)
    flow, _, to, cap = _max_flow(graph, terminal, limit)
    # Forward arc e carries cap[e ^ 1] units; antiparallel relay flows cancel.
    used = {(to[e + 1], to[e]) for e in range(0, len(cap), 2) if cap[e + 1]}
    out_flow: dict[int, list[int]] = {}
    for u, v in sorted(used):
        if (v, u) not in used:
            out_flow.setdefault(u, []).append(v)

    paths = []
    for _ in range(flow):
        path = [0]
        u = 0
        while u != terminal:
            v = out_flow[u].pop(0)
            path.append(v)
            u = v
        paths.append(path)
    return paths


def brute_force_min_cut(graph: ConnectivityGraph, terminal: int) -> CutResult:
    """Independent oracle: exhaustive minimum over all relay partitions.

    Ties broken by lexicographically smallest sorted V_k tuple.
    """
    _check_terminal(graph, terminal)
    n = graph.n_relays
    if n > BRUTE_FORCE_MAX_RELAYS:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_RELAYS}")
    relays = np.array(graph.relay_ids, dtype=int)
    a = graph.adjacency
    s_row = a[0, relays].astype(int)
    t_col = a[relays, terminal].astype(int)
    rr = a[np.ix_(relays, relays)].astype(int)

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
    n_relays = int(obj["n_relays"])
    n_terminals = len(obj["terminals"])
    model = None if obj.get("model") is None else ConnectionModel.from_json(obj["model"])
    positions = obj.get("positions") or None
    return from_edges(
        n_relays, n_terminals, obj["edges"], positions=positions, model=model,
        seed=obj.get("seed"),
    )


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
