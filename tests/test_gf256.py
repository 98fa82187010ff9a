import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qrggsim.gf256 import (
    EXP,
    GF2,
    GF256,
    LOG,
    REDUCTION_POLY,
    _full_rank,
    matrix_rank,
    solve_linear_system,
)


def gf_mul_reference(a: int, b: int) -> int:
    """Bitwise carry-less multiply with modular reduction; independent of the
    log/antilog tables and of the product table."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCTION_POLY
        b >>= 1
    return result


class TestFieldArithmetic:
    def test_multiplicative_identity(self):
        for x in range(256):
            assert GF256.mul[x][1] == x

    def test_known_inverse_pair(self):
        assert GF256.mul[0x53][0xCA] == 0x01
        assert GF256.inv[0x53] == 0xCA

    def test_table_mul_matches_bitwise_reference_exhaustively(self):
        assert len(GF256.mul) == 256 and {len(row) for row in GF256.mul} == {256}
        for a in range(256):
            for b in range(256):
                assert GF256.mul[a][b] == gf_mul_reference(a, b)

    @given(
        a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255)
    )
    def test_distributes_over_xor(self, a, b, c):
        mul = GF256.mul
        assert mul[a][b ^ c] == mul[a][b] ^ mul[a][c]

    def test_every_nonzero_element_has_inverse(self):
        for field in (GF256, GF2):
            for x in range(1, field.order):
                assert field.mul[x][field.inv[x]] == 1

    def test_binary_field_multiplies_as_and(self):
        assert isinstance(GF2, type(GF256))
        assert GF2.order == len(GF2.mul) == 2 and {len(row) for row in GF2.mul} == {2}
        for a in range(2):
            for b in range(2):
                assert GF2.mul[a][b] == a & b

    def test_times_matches_the_product_table_for_every_pair(self):
        for field in (GF256, GF2):
            a, b = np.divmod(np.arange(field.order ** 2), field.order)
            a, b = a.astype(np.uint8), b.astype(np.uint8)
            product = field.times(a, b)
            assert product.dtype == np.uint8
            assert np.array_equal(product, field.mul[a, b])
            # Broadcast shapes: a column against a row, and a stack of
            # matrices against a stack of row vectors.
            col, row = a[:, None], b[None, :300]
            assert np.array_equal(field.times(col, row), field.mul[col, row])
            x = np.resize(a, 24).reshape(2, 3, 4)
            y = np.resize(b[::-1], 8).reshape(2, 1, 4)
            assert field.times(x, y).dtype == np.uint8
            assert np.array_equal(field.times(x, y), field.mul[x, y])

    def test_log_exp_tables_cover_all_nonzero_elements(self):
        assert sorted(EXP[:255]) == list(range(1, 256))
        assert LOG[1] == 0


class TestLinearAlgebra:
    def test_identity_rank(self):
        ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert matrix_rank(ident) == 4

    def test_dependent_rows(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 0, 5]]
        # second row = 2 * first in the 256-element field
        rows[1] = [gf_mul_reference(2, x) for x in rows[0]]
        assert matrix_rank(rows) == 2

    def test_solve_round_trip(self):
        matrix = [[7, 2, 0], [1, 1, 1], [0, 3, 9]]
        x = [0x10, 0xAB, 0x03]
        rhs = []
        for row in matrix:
            acc = 0
            for c, v in zip(row, x):
                acc ^= gf_mul_reference(c, v)
            rhs.append(acc)
        assert solve_linear_system(matrix, rhs) == x

    def test_singular_system_returns_none(self):
        assert solve_linear_system([[1, 1], [1, 1]], [0, 1]) is None

    def test_empty_matrix(self):
        assert matrix_rank([]) == 0
        assert solve_linear_system([], []) == []

    def test_gf2_rank(self):
        assert matrix_rank([[1, 0], [1, 1]], field=GF2) == 2
        assert matrix_rank([[1, 1], [1, 1]], field=GF2) == 1


def xor_basis_rank(rows) -> int:
    """Rank over GF(2) with each row as a Python int bitmask: reduce each row
    by a basis with distinct leading bits, kept in decreasing order."""
    basis = []
    for row in rows:
        x = sum(bit << k for k, bit in enumerate(row))
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return len(basis)


def known_rank_matrix(rnd, nrows: int, ncols: int, rank: int, order: int = 256):
    """A GF(256) matrix of the given rank, built with the bitwise multiply:
    `rank` echelon rows with nonzero pivots and the rest zero, then mixed by
    row scalings, additions of multiples and swaps, which keep the rank.
    With order 2 every entry and multiplier is 0 or 1: a GF(2) matrix, whose
    rank over GF(2) is the same."""
    m = [[0] * ncols for _ in range(nrows)]
    for r, c in enumerate(sorted(rnd.sample(range(ncols), rank))):
        m[r][c] = rnd.randrange(1, order)
        m[r][c + 1:] = [rnd.randrange(order) for _ in range(ncols - c - 1)]
    for _ in range(3 * nrows):
        i, j = rnd.randrange(nrows), rnd.randrange(nrows)
        if i == j:
            c = rnd.randrange(1, order)
            m[i] = [gf_mul_reference(c, x) for x in m[i]]
        else:
            c = rnd.randrange(order)
            m[i] = [x ^ gf_mul_reference(c, y) for x, y in zip(m[i], m[j])]
            m[i], m[j] = m[j], m[i]
    return m


class TestKnownRankMatrices:
    SHAPES = [(1, 1), (1, 4), (4, 1), (3, 3), (4, 2), (2, 5), (6, 6)]

    def test_gf256_ranks_match_the_construction(self):
        rnd = random.Random(11)
        for nrows, ncols in self.SHAPES:
            full = min(nrows, ncols)
            ranks = [0, full] + [rnd.randint(0, full) for _ in range(40)]
            mats = [known_rank_matrix(rnd, nrows, ncols, r) for r in ranks]
            assert not any(map(any, mats[0]))
            assert [matrix_rank(m) for m in mats] == ranks

    def test_gf2_ranks_match_an_xor_basis(self):
        rnd = random.Random(12)
        for nrows, ncols in self.SHAPES:
            mats = [[[0] * ncols for _ in range(nrows)]]
            mats += [[[rnd.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
                     for _ in range(60)]
            expected = [xor_basis_rank(m) for m in mats]
            assert {0, min(nrows, ncols)} <= set(expected)
            assert [matrix_rank(m, field=GF2) for m in mats] == expected

    def test_gf256_solutions_satisfy_the_system(self):
        rnd = random.Random(13)
        for n in (1, 2, 3, 5, 8):
            ranks = [n] * 30 + [rnd.randint(0, n - 1) for _ in range(10)]
            mats = [known_rank_matrix(rnd, n, n, r) for r in ranks]
            rhs = [[rnd.randrange(256) for _ in range(n)] for _ in mats]
            assert [matrix_rank(m) for m in mats] == ranks
            for m, b, r in zip(mats, rhs, ranks):
                x = solve_linear_system(m, b)
                if r < n:
                    assert x is None
                    continue
                for row, y in zip(m, b):
                    acc = 0
                    for c, v in zip(row, x):
                        acc ^= gf_mul_reference(c, v)
                    assert acc == y


class TestFullRank:
    def test_agrees_with_the_rank_on_mixed_stacks(self):
        rnd = random.Random(14)
        for field in (GF256, GF2):
            for h in range(1, 15):
                # Full-rank and singular matrices in one stack, shuffled.
                ranks = [0, h - 1, h] * 6 + [h] * 10
                rnd.shuffle(ranks)
                mats = [known_rank_matrix(rnd, h, h, r, field.order) for r in ranks]
                stack = np.array(mats, dtype=np.uint8)
                assert stack.max() < field.order
                assert [matrix_rank(m, field) for m in mats] == ranks
                # Matrices last: (h, h, B).
                full = _full_rank(stack.transpose(1, 2, 0).copy(), field)
                assert full.dtype == bool and full.tolist() == [r == h for r in ranks]
