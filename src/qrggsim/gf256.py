"""Arithmetic in the finite field of order 256.

Polynomial basis with reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11B),
log/antilog tables built from generator 0x03. Addition is XOR. Table-driven
multiplication keeps results bit-exact across implementations.
"""

from __future__ import annotations

REDUCTION_POLY = 0x11B
GENERATOR = 0x03

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


def gf_add(a: int, b: int) -> int:
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return EXP[255 - LOG[a]]


def gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError
    if a == 0:
        return 0
    return EXP[(LOG[a] - LOG[b]) % 255]


class GF256:
    """Field interface used by the coding routines."""

    order = 256
    poly = "0x11B"

    add = staticmethod(gf_add)
    mul = staticmethod(gf_mul)
    inv = staticmethod(gf_inv)


class GF2:
    """Binary field, for sanity comparisons against the 256-element field."""

    order = 2
    poly = "0x3"

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    @staticmethod
    def mul(a: int, b: int) -> int:
        return a & b

    @staticmethod
    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return 1


def _row_reduce(rows: list[list[int]], ncols: int, field) -> int:
    """Gauss-Jordan elimination in place over the first ncols columns
    (row operations span whole rows); returns the rank."""
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [field.add(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def matrix_rank(rows: list[list[int]], field=GF256) -> int:
    """Rank via exact Gaussian elimination over the field."""
    m = [list(r) for r in rows]
    return _row_reduce(m, len(m[0]), field) if m else 0


def solve_linear_system(matrix: list[list[int]], rhs: list[int], field=GF256):
    """Solve a square full-rank system M x = y; returns None if singular."""
    n = len(matrix)
    aug = [list(row) + [y] for row, y in zip(matrix, rhs)]
    if _row_reduce(aug, n, field) < n:
        return None
    return [row[n] for row in aug]
