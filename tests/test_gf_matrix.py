"""Unit tests for the dense GF(q) matrix reference (tests/oracles/gf_matrix.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gf import GF
from tests.oracles.gf_matrix import (
    identity,
    inverse,
    is_invertible,
    matmul,
    null_space_basis,
    random_invertible_matrix,
    random_matrix,
    rank,
    row_space_basis,
    rref,
    solve,
    vandermonde,
)


@pytest.fixture
def f5():
    return GF(5)


@pytest.fixture
def f2():
    return GF(2)


class TestRref:
    def test_identity_is_fixed_point(self, f5):
        eye = identity(f5, 3)
        result = rref(f5, eye)
        assert result.rank == 3
        assert result.matrix.tolist() == eye.tolist()
        assert result.pivot_columns == (0, 1, 2)

    def test_zero_matrix(self, f5):
        result = rref(f5, f5.zeros((3, 4)))
        assert result.rank == 0
        assert result.pivot_columns == ()

    def test_known_reduction(self, f5):
        # Rows are multiples of each other over GF(5): rank 1.
        result = rref(f5, [[1, 2, 3], [2, 4, 1], [3, 1, 4]])
        assert result.rank == rank(f5, [[1, 2, 3], [2, 4, 1], [3, 1, 4]])

    def test_dependent_rows(self, f5):
        m = [[1, 2, 3], [2, 4, 6]]  # second row = 2 * first
        assert rank(f5, m) == 1

    def test_gf2_rank(self, f2):
        m = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]  # third = first + second
        assert rank(f2, m) == 2

    def test_pivots_are_unit_columns(self, f5):
        result = rref(f5, [[2, 1, 0], [1, 1, 1], [0, 3, 2]])
        for row_idx, col in enumerate(result.pivot_columns):
            column = [int(result.matrix[r, col]) for r in range(result.matrix.shape[0])]
            expected = [1 if r == row_idx else 0 for r in range(result.matrix.shape[0])]
            assert column == expected

    def test_rank_of_empty(self, f5):
        assert rank(f5, np.zeros((0, 3), dtype=np.int64)) == 0

    def test_vector_input_promoted(self, f5):
        result = rref(f5, [1, 2, 3])
        assert result.rank == 1


class TestMatmul:
    def test_matmul(self):
        f = GF(7)
        a = f.asarray([[1, 2], [3, 4]])
        b = f.asarray([[5, 6], [0, 1]])
        assert matmul(f, a, b).tolist() == [[5, 1], [1, 1]]

    @pytest.mark.parametrize("q", [2, 5, 257])
    def test_matmul_matches_the_scalar_definition(self, q, rng):
        f = GF(q)
        a = random_matrix(f, rng, 3, 4)
        b = random_matrix(f, rng, 4, 2)
        expected = [[0] * 2 for _ in range(3)]
        for i in range(3):
            for j in range(2):
                for t in range(4):
                    expected[i][j] = f.add(expected[i][j], f.mul(int(a[i, t]), int(b[t, j])))
        assert matmul(f, a, b).tolist() == expected


class TestRowAndNullSpace:
    def test_row_space_basis_spans(self, f5):
        m = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
        basis = row_space_basis(f5, m)
        assert basis.shape[0] == rank(f5, m)

    def test_null_space_orthogonal(self, f5, rng):
        m = random_matrix(f5, rng, 3, 6)
        ns = null_space_basis(f5, m)
        assert ns.shape[0] == 6 - rank(f5, m)
        for v in ns:
            product = matmul(f5, m, v.reshape(-1, 1))
            assert all(int(x) == 0 for x in product.ravel().tolist())

    def test_null_space_of_full_rank_square(self, f5):
        eye = identity(f5, 4)
        assert null_space_basis(f5, eye).shape[0] == 0

    def test_rank_nullity_theorem(self, f2, rng):
        for _ in range(5):
            m = random_matrix(f2, rng, 4, 7)
            assert rank(f2, m) + null_space_basis(f2, m).shape[0] == 7


class TestSolve:
    def test_solve_identity(self, f5):
        eye = identity(f5, 3)
        x = solve(f5, eye, [1, 2, 3])
        assert x.tolist() == [1, 2, 3]

    def test_solve_consistent_system(self, f5, rng):
        a = random_invertible_matrix(f5, rng, 4)
        x_true = f5.asarray([1, 4, 2, 3])
        b = matmul(f5, a, x_true.reshape(-1, 1)).ravel()
        x = solve(f5, a, b)
        assert x.tolist() == x_true.tolist()

    def test_solve_inconsistent_returns_none(self, f5):
        a = [[1, 0], [1, 0]]
        b = [1, 2]
        assert solve(f5, a, b) is None

    def test_solve_matrix_rhs(self, f5, rng):
        a = random_invertible_matrix(f5, rng, 3)
        rhs = random_matrix(f5, rng, 3, 2)
        x = solve(f5, a, rhs)
        assert matmul(f5, a, x).tolist() == rhs.tolist()

    def test_solve_shape_mismatch(self, f5):
        with pytest.raises(ValueError):
            solve(f5, [[1, 2], [3, 4]], [1, 2, 3])


class TestInverse:
    def test_inverse_roundtrip(self, f5, rng):
        a = random_invertible_matrix(f5, rng, 4)
        a_inv = inverse(f5, a)
        assert matmul(f5, a, a_inv).tolist() == identity(f5, 4).tolist()

    def test_singular_raises(self, f5):
        with pytest.raises(ValueError):
            inverse(f5, [[1, 2], [2, 4]])

    def test_non_square_raises(self, f5):
        with pytest.raises(ValueError):
            inverse(f5, [[1, 2, 3], [4, 5, 6]])

    def test_is_invertible(self, f5):
        assert is_invertible(f5, [[1, 1], [0, 1]])
        assert not is_invertible(f5, [[1, 2], [2, 4]])
        assert not is_invertible(f5, [[1, 2, 3]])

    def test_gf2_inverse(self, f2):
        a = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        a_inv = inverse(f2, a)
        assert matmul(f2, f2.asarray(a), a_inv).tolist() == identity(f2, 3).tolist()


class TestRandomAndVandermonde:
    def test_random_matrix_shape_and_range(self, f5, rng):
        m = random_matrix(f5, rng, 3, 7)
        assert m.shape == (3, 7)
        assert all(0 <= int(x) < 5 for x in m.ravel().tolist())

    def test_random_invertible_is_invertible(self, f2, rng):
        for _ in range(5):
            assert is_invertible(f2, random_invertible_matrix(f2, rng, 5))

    def test_vandermonde_distinct_points_full_rank(self):
        f = GF(11)
        v = vandermonde(f, [1, 2, 3, 4], 4)
        assert rank(f, v) == 4

    def test_vandermonde_values(self):
        f = GF(7)
        v = vandermonde(f, [3], 4)
        assert v.tolist() == [[1, 3, 2, 6]]  # 3^0..3^3 mod 7
