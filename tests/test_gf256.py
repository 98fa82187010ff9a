from hypothesis import given
from hypothesis import strategies as st

from qrggsim.gf256 import (
    EXP,
    GF2,
    GF256,
    LOG,
    REDUCTION_POLY,
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

    def test_gf2_rank(self):
        assert matrix_rank([[1, 0], [1, 1]], field=GF2) == 2
        assert matrix_rank([[1, 1], [1, 1]], field=GF2) == 1
