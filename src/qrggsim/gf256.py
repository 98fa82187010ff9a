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

    `mul[a][b]` is a * b, one bytes row per element; `inv[a]` is the inverse
    of a nonzero a (inv[0] is 0 and never read). Addition is XOR.
    """

    def __init__(self, order: int, poly: str, table):
        self.order = order
        self.poly = poly
        self.mul = tuple(bytes(row) for row in table)
        self.inv = bytes(row.index(1) if a else 0 for a, row in enumerate(self.mul))


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


def _row_reduce(rows: list[list[int]], ncols: int, field: Field) -> int:
    """Gauss-Jordan elimination in place over the first ncols columns
    (row operations span whole rows); returns the rank."""
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        m = field.mul[field.inv[rows[rank][col]]]
        rows[rank] = top = [m[x] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                m = field.mul[rows[i][col]]
                rows[i] = [x ^ m[y] for x, y in zip(rows[i], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def matrix_rank(rows: list[list[int]], field: Field = GF256) -> int:
    """Rank via exact Gaussian elimination over the field."""
    m = [list(r) for r in rows]
    return _row_reduce(m, len(m[0]), field) if m else 0


def solve_linear_system(matrix: list[list[int]], rhs: list[int], field: Field = GF256):
    """Solve a square full-rank system M x = y; returns None if singular."""
    n = len(matrix)
    aug = [list(row) + [y] for row, y in zip(matrix, rhs)]
    if _row_reduce(aug, n, field) < n:
        return None
    return [row[n] for row in aug]
