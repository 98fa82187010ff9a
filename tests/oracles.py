"""Independent oracles and small fixture graphs for the tests.

They live outside the package so that the program cannot import the oracles
that check it: the exhaustive-partition min cut checks the max flow, the
residual BFS checks a flow's source side, and the Monte Carlo
pair-probability estimate checks `connection_probability`'s value and
`p_prime_bounds`' interval.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from qrggsim import ConnectionModel, ConnectivityGraph, RandomStream, cut_capacity, from_edges
from qrggsim.graph import _check_terminal
from qrggsim.model import kernel_probability

BRUTE_FORCE_MAX_RELAYS = 20


class BruteForceCut(NamedTuple):
    terminal: int
    partition_vk: tuple[int, ...]  # source-side relays, sorted
    capacity: int


def brute_force_min_cut(graph: ConnectivityGraph, terminal: int) -> BruteForceCut:
    """Independent oracle: exhaustive minimum over all relay partitions,
    each counted by cut_capacity.

    Ties broken by lexicographically smallest sorted V_k tuple.
    """
    _check_terminal(graph, terminal)
    if graph.n_relays > BRUTE_FORCE_MAX_RELAYS:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_RELAYS}")
    capacity, vk = min(
        (cut_capacity(graph, terminal, vk), vk)
        for k in range(graph.n_relays + 1)
        for vk in itertools.combinations(graph.relay_ids, k)
    )
    return BruteForceCut(terminal, vk, capacity)


def residual_levels(graph: ConnectivityGraph, flow) -> list[int]:
    """Independent oracle: each node's BFS distance from the source in the
    final residual network of `flow`, -1 where it is not reached.

    Built from graph.edge_list() and the arcs that flow.paths() carry. The
    network has no arc into the source, none out of a terminal and none into
    another terminal; of the rest, arc u -> v is live unless the flow
    carries u -> v (a unit on v -> u leaves u -> v its own and the residual
    one).
    """
    terminals = set(graph.terminal_ids)
    carried = {(u, v) for path in flow.paths() for u, v in zip(path, path[1:])}
    out = [[] for _ in range(graph.n_nodes)]
    for i, j in graph.edge_list():
        for u, v in ((i, j), (j, i)):
            if (v == 0 or u in terminals or (v in terminals and v != flow.terminal)
                    or (u, v) in carried):
                continue
            out[u].append(v)
    level = [-1] * graph.n_nodes
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in out[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def estimate_connection_probability(
    model: ConnectionModel, samples: int, rng: RandomStream
) -> float:
    """Monte Carlo estimate of the marginal pair-connection probability.

    Averages kernel_probability over `samples` independent uniform point
    pairs; the kernel average (rather than Bernoulli realizations) keeps the
    estimator unbiased with lower variance.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    total = 0.0
    remaining = samples
    # Chunked so multi-million-sample runs stay within memory.
    while remaining > 0:
        chunk = min(remaining, 1_000_000)
        pts = rng.random((chunk, 4))
        d = np.hypot(pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 3])
        total += float(np.sum(kernel_probability(d, model)))
        remaining -= chunk
    return total / samples


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


def xor_relay_demo(b1: int, b2: int) -> tuple[int, int]:
    """Wheatstone-bridge exchange: the relay forwards b1 XOR b2 and each
    side cancels its own bit. Returns (decoded at X, decoded at Y)."""
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ValueError("bits must be 0 or 1")
    mixed = b1 ^ b2
    decoded_at_x = b1 ^ mixed  # = b2
    decoded_at_y = b2 ^ mixed  # = b1
    return decoded_at_x, decoded_at_y
