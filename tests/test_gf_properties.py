"""Property-based tests (hypothesis) for the finite-field substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import pack_bits, unpack_bits
from repro.gf import GF, GF2Basis
from tests.oracles.gf_matrix import matmul, rank, rref, solve

FIELDS = [2, 3, 5, 13, 257]

field_orders = st.sampled_from(FIELDS)


@st.composite
def field_and_elements(draw, count=2):
    q = draw(field_orders)
    values = [draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(count)]
    return GF(q), values


class TestFieldAxioms:
    @given(field_and_elements(count=3))
    @settings(max_examples=80, deadline=None)
    def test_addition_associative_commutative(self, data):
        f, (a, b, c) = data
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.add(a, b) == f.add(b, a)

    @given(field_and_elements(count=3))
    @settings(max_examples=80, deadline=None)
    def test_multiplication_associative_commutative(self, data):
        f, (a, b, c) = data
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b) == f.mul(b, a)

    @given(field_and_elements(count=3))
    @settings(max_examples=80, deadline=None)
    def test_distributivity(self, data):
        f, (a, b, c) = data
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @given(field_and_elements(count=1))
    @settings(max_examples=60, deadline=None)
    def test_additive_inverse(self, data):
        f, (a,) = data
        assert f.add(a, f.neg(a)) == 0

    @given(field_and_elements(count=1))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_inverse(self, data):
        f, (a,) = data
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1

    @given(field_and_elements(count=2))
    @settings(max_examples=60, deadline=None)
    def test_negation_inverts_addition(self, data):
        f, (a, b) = data
        assert f.add(f.add(a, b), f.neg(b)) == a


class TestMatrixProperties:
    @given(
        q=st.sampled_from([2, 3, 5]),
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rref_idempotent(self, q, rows, cols, seed):
        f = GF(q)
        rng = np.random.default_rng(seed)
        m = f.random_elements(rng, (rows, cols))
        once = rref(f, m)
        twice = rref(f, once.matrix)
        assert once.matrix.tolist() == twice.matrix.tolist()
        assert once.rank == twice.rank

    @given(
        q=st.sampled_from([2, 5]),
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_bounded(self, q, rows, cols, seed):
        f = GF(q)
        rng = np.random.default_rng(seed)
        m = f.random_elements(rng, (rows, cols))
        r = rank(f, m)
        assert 0 <= r <= min(rows, cols)

    @given(
        q=st.sampled_from([2, 5, 13]),
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_recovers_solution(self, q, n, seed):
        f = GF(q)
        rng = np.random.default_rng(seed)
        m = f.random_elements(rng, (n, n))
        x = f.random_elements(rng, (n,))
        b = matmul(f, m, x.reshape(-1, 1)).ravel()
        found = solve(f, m, b)
        # Any solution must reproduce b (the system is consistent by construction).
        assert found is not None
        assert matmul(f, m, found.reshape(-1, 1)).ravel().tolist() == b.tolist()


class TestGF2BasisProperties:
    @given(
        length=st.integers(min_value=1, max_value=24),
        vectors=st.lists(st.integers(min_value=0, max_value=2**24 - 1), min_size=0, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_never_exceeds_dimension_or_inserts(self, length, vectors):
        basis = GF2Basis(length)
        mask = (1 << length) - 1
        innovative = basis.extend([v & mask for v in vectors])
        assert basis.rank == innovative
        assert basis.rank <= min(length, len(vectors))

    @given(
        length=st.integers(min_value=1, max_value=16),
        vectors=st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_span_contains_all_inserted(self, length, vectors):
        basis = GF2Basis(length)
        mask = (1 << length) - 1
        reduced = [v & mask for v in vectors]
        basis.extend(reduced)
        for v in reduced:
            assert basis.contains(v)

    @given(
        length=st.integers(min_value=1, max_value=16),
        vectors=st.lists(st.integers(min_value=1, max_value=2**16 - 1), min_size=1, max_size=12),
        direction=st.integers(min_value=1, max_value=2**16 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sensing_matches_bruteforce(self, length, vectors, direction):
        basis = GF2Basis(length)
        mask = (1 << length) - 1
        reduced = [v & mask for v in vectors if v & mask]
        basis.extend(reduced)
        direction &= mask
        if direction == 0:
            return
        # Brute force: does any vector in the span have odd overlap with direction?
        # It suffices to check basis vectors (sensing is linear-algebraic:
        # the span is orthogonal to direction iff every basis vector is).
        expected = any(bin(m & direction).count("1") % 2 == 1 for m in basis.basis_masks())
        assert basis.senses(direction) == expected

    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, bits):
        mask = pack_bits(bits)
        assert unpack_bits(mask, len(bits)).tolist() == bits
