import pytest

from qrggsim import ConnectionModel, RandomStream, experiment, from_edges

FIG3_MODEL = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)

# 4-relay, 2-terminal graph whose per-terminal flows orient edge (2, 3) in
# opposite directions, so the orientation union is cyclic.
CYCLIC_EDGES = [(0, 2), (0, 3), (1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (3, 6), (4, 5)]

# 7-relay, 2-terminal graph (h = 3) whose per-terminal flows use no edge in
# both directions, yet their union holds the directed cycle 1 -> 2 -> 3 -> 1;
# found by searching 60,000 random small graphs.
LONG_CYCLE_EDGES = [
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6), (1, 7), (2, 3), (2, 5), (2, 9),
    (3, 4), (3, 9), (4, 9), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8),
]


@pytest.fixture
def fig3_model():
    return FIG3_MODEL


@pytest.fixture
def rng():
    return RandomStream.from_seed(12345)


@pytest.fixture
def cyclic_graph():
    return from_edges(4, 2, CYCLIC_EDGES)


@pytest.fixture
def long_cycle_graph():
    return from_edges(7, 2, LONG_CYCLE_EDGES)


@pytest.fixture
def fresh_pool():
    """No experiment worker pool is cached when the test starts or after it
    ends: a cached pool is shut down and forgotten, before and after."""
    def reset():
        if experiment._pool is not None:
            experiment._pool[1].shutdown()
        experiment._pool = None

    reset()
    yield
    reset()


@pytest.fixture
def pool_sizes(monkeypatch, fresh_pool):
    """Replaces the experiment process pool with a serial stand-in, so no
    process starts; the returned list collects each pool's max_workers.
    Through fresh_pool, no stand-in stays cached into later tests."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self, wait=True):
            pass

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    return sizes
