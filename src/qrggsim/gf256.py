"""Arithmetic in the finite fields of order 256 and 2.

Both fields have characteristic 2, so addition is XOR, and a product is a
lookup in the field's multiplication table. GF(256) uses the polynomial basis
with reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11B); its table is built
from log/antilog tables with generator 0x03. Table lookups keep results
bit-exact across implementations.
"""

from __future__ import annotations

import numpy as np

REDUCTION_POLY = 0x11B

EXP = [0] * 512
LOG = [0] * 256


def _build_tables():
    x = 1
    for i in range(255):
        EXP[i] = x
        LOG[x] = i
        # Multiply by the generator 0x03 = x + 1: shift plus XOR, then reduce.
        x ^= (x << 1)
        if x & 0x100:
            x ^= REDUCTION_POLY
    for i in range(255, 512):
        EXP[i] = EXP[i - 255]


_build_tables()


class Field:
    """A field of characteristic 2 given by its multiplication table.

    `mul[a, b]` is a * b, one `(order, order)` uint8 array; `inv[a]` is the
    inverse of a nonzero a (inv[0] is 0 and never read). Addition is XOR.
    Both tables are read-only: every caller in the process shares them.
    """

    def __init__(self, order: int, poly: str, table):
        self.order = order
        self.poly = poly
        self.mul = np.asarray(table, dtype=np.uint8)
        self.inv = (self.mul == 1).argmax(axis=1).astype(np.uint8)
        self.mul.flags.writeable = self.inv.flags.writeable = False
        self._flat = self.mul.ravel()
        self._shift = order.bit_length() - 1

    def times(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The products a * b of two broadcast uint8 arrays, as uint8: what
        `mul[a, b]` gives, as one take from the flat table, which is
        cheaper than that 2-D gather."""
        return self._flat.take((a.astype(np.uint16) << self._shift) | b)


def _gf256_table() -> np.ndarray:
    # Row and column 0 stay zero. The uint16 index stays under glibc's 128 KiB
    # mmap threshold: freeing a larger block would raise that threshold and
    # change how fast every later numpy temporary of a few hundred KiB is made.
    log = np.array(LOG[1:], dtype=np.uint16)
    table = np.zeros((256, 256), dtype=np.uint8)
    table[1:, 1:] = np.array(EXP, dtype=np.uint8)[log[:, None] + log]
    return table


GF256 = Field(256, "0x11B", _gf256_table())
# Binary field, for sanity comparisons against the 256-element field.
GF2 = Field(2, "0x3", [[0, 0], [0, 1]])


def _full_rank(a: np.ndarray, field: Field) -> np.ndarray:
    """Which matrices of a stack of square ones have full rank. `a` is a
    uint8 array of shape (n, n, B), matrix b being a[:, :, b], and is used
    as scratch. Forward elimination on the trailing block: where a diagonal
    entry is zero, the first nonzero row below it is swapped up, and a
    matrix with no such row is singular; then only the rows below the
    diagonal are eliminated. Returns B booleans."""
    n = len(a)
    full = np.ones(a.shape[2], dtype=bool)
    for col in range(n):
        zero = np.flatnonzero(a[col, col] == 0)
        if zero.size:
            below = a[col:, col, zero] != 0
            found = below.any(axis=0)
            full[zero[~found]] = False
            swap, rows = zero[found], col + below[:, found].argmax(axis=0)
            top = a[rows, col:, swap]
            a[rows, col:, swap] = a[col, col:, swap]
            a[col, col:, swap] = top
        if col + 1 < n:
            top = a[col, col:]
            factor = field.times(a[col + 1:, col], field.inv[top[0]])
            a[col + 1:, col + 1:] ^= field.times(factor[:, None], top[1:])
    return full


def _eliminate(a: np.ndarray, ncols: int, field: Field) -> int:
    """Gauss-Jordan elimination in place on one uint8 matrix over its first
    ncols columns (row operations span whole rows); returns its rank."""
    rank = 0
    for col in range(ncols):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        pivot = rank + nonzero[0]
        top = field.times(field.inv[a[pivot, col]], a[pivot])
        a[pivot] = a[rank]
        a ^= field.times(a[:, col, None], top)
        a[rank] = top
        rank += 1
    return rank


def matrix_rank(rows: list[list[int]], field: Field = GF256) -> int:
    """Rank via exact Gaussian elimination over the field."""
    if not len(rows):
        return 0
    a = np.array(rows, dtype=np.uint8)
    return _eliminate(a, a.shape[1], field)


def solve_linear_system(matrix: list[list[int]], rhs: list[int], field: Field = GF256):
    """Solve a square full-rank system M x = y; returns None if singular."""
    n = len(matrix)
    aug = np.array([list(row) + [y] for row, y in zip(matrix, rhs)], dtype=np.uint8)
    aug = aug.reshape(n, n + 1)  # also (0, 1) for the empty system
    if _eliminate(aug, n, field) < n:
        return None
    return aug[:, n].tolist()
