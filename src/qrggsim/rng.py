"""Splittable, seed-stable random streams.

Every stochastic operation in this package takes an explicit stream argument.
A stream is identified by its seed path (master seed plus a chain of
(label, index) derivations), so geometry draws, connectivity draws and
per-trial streams are mutually independent and results do not depend on
execution order or parallelism degree.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _seed_words(x: int) -> list[int]:
    """The uint32 words SeedSequence makes of a path entry x in [0, 2**64):
    low first, at least one. Handing SeedSequence a path's words as an array
    skips its slower conversion of Python ints."""
    return [x & _MASK32, x >> 32] if x >> 32 else [x]


class RandomStream:
    """A deterministic PCG64 stream keyed by an integer seed path.

    The stream draws what `Generator(PCG64(SeedSequence(list(path))))`
    draws. The generator is built at the first draw, so a stream that only
    derives children (a master or a trial stream) never pays for one.
    """

    __slots__ = ("_path", "_gen")

    def __init__(self, path):
        self._path = tuple(int(x) & _MASK64 for x in path)
        if not self._path:
            raise ValueError("seed path must be non-empty")
        self._gen = None

    @classmethod
    def from_seed(cls, master_seed: int) -> "RandomStream":
        return cls((master_seed,))

    def child(self, label: str, index: int = 0) -> "RandomStream":
        """Derive an independent stream named by (label, index); the parent
        draws nothing."""
        return RandomStream(self._path + (zlib.crc32(label.encode("ascii")), index))

    def children_raw(self, label: str, indices, size: int) -> np.ndarray:
        """The first `size` raw 64-bit outputs of the bit generator of each
        child (label, i), i in `indices`: one uint64 row per child, what
        child(label, i) would hand out, without building the children."""
        prefix = self._path + (zlib.crc32(label.encode("ascii")),)
        prefix = [w for x in prefix for w in _seed_words(x)]
        raw = np.empty((len(indices), size), dtype=np.uint64)
        for row, i in enumerate(indices):
            words = np.array(prefix + _seed_words(int(i) & _MASK64), np.uint32)
            raw[row] = np.random.PCG64(np.random.SeedSequence(words)).random_raw(size)
        return raw

    @property
    def path(self):
        return self._path

    @property
    def master_seed(self) -> int:
        return self._path[0]

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            words = np.array([w for x in self._path for w in _seed_words(x)], np.uint32)
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        return self._gen

    # Thin passthroughs to the underlying generator.
    def random(self, size=None):
        return self._generator().random(size)

    def integers(self, low, high=None, size=None):
        return self._generator().integers(low, high, size)

    def __repr__(self):
        return f"RandomStream(path={self._path})"
