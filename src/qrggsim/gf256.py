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

    `mul[a, b]` is a * b, one `(order, order)` uint8 array, so a product of
    whole arrays is one gather `mul[x, y]`; `inv[a]` is the inverse of a
    nonzero a (inv[0] is 0 and never read). Addition is XOR. Both tables are
    read-only: every caller in the process shares them.
    """

    def __init__(self, order: int, poly: str, table):
        self.order = order
        self.poly = poly
        self.mul = np.asarray(table, dtype=np.uint8)
        self.inv = (self.mul == 1).argmax(axis=1).astype(np.uint8)
        self.mul.flags.writeable = self.inv.flags.writeable = False


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


def _row_reduce(a: np.ndarray, ncols: int, field: Field) -> np.ndarray:
    """Gauss-Jordan elimination in place on a stack of matrices, a uint8
    array of shape (B, rows, cols), over the first ncols columns (row
    operations span whole rows). Each matrix keeps its own rank and pivot
    row; returns the B ranks."""
    stack, nrows = a.shape[:2]
    rank = np.zeros(stack, dtype=np.intp)
    row_ids = np.arange(nrows)
    for col in range(ncols):
        # Pivot: the first row at or below the matrix's rank with a nonzero
        # entry in this column; a full-rank matrix has no row left.
        nonzero = (a[:, :, col] != 0) & (row_ids >= rank[:, None])
        active = np.flatnonzero(nonzero.any(axis=1))
        if not active.size:
            continue
        pivot, dest = nonzero[active].argmax(axis=1), rank[active]
        top = a[active, pivot]
        a[active, pivot] = a[active, dest]
        top = field.mul[field.inv[top[:, col]][:, None], top]
        a[active, dest] = top
        factor = a[active, :, col]
        factor[np.arange(active.size), dest] = 0
        a[active] ^= field.mul[factor[:, :, None], top[:, None, :]]
        rank[active] += 1
    return rank


def matrix_rank(rows: list[list[int]], field: Field = GF256) -> int:
    """Rank via exact Gaussian elimination over the field."""
    if not len(rows):
        return 0
    a = np.array([rows], dtype=np.uint8)
    return int(_row_reduce(a, a.shape[2], field)[0])


def solve_linear_system(matrix: list[list[int]], rhs: list[int], field: Field = GF256):
    """Solve a square full-rank system M x = y; returns None if singular."""
    n = len(matrix)
    aug = np.array([[list(row) + [y] for row, y in zip(matrix, rhs)]], dtype=np.uint8)
    aug = aug.reshape(1, n, n + 1)
    if _row_reduce(aug, n, field)[0] < n:
        return None
    return aug[0, :, n].tolist()
