"""Unit tests for vector packing helpers and the GF(2) fast path."""

from __future__ import annotations

import pytest

from repro.bits import pack_bits, unpack_bits
from repro.gf import (
    GF,
    GF2,
    GF2Basis,
    int_to_vector,
    symbols_needed,
    vector_to_int,
)


class TestSymbolPacking:
    def test_symbols_needed_gf2(self):
        assert symbols_needed(8, 2) == 8
        assert symbols_needed(0, 2) == 0
        assert symbols_needed(1, 2) == 1

    def test_symbols_needed_larger_field(self):
        assert symbols_needed(8, 257) == 1  # one symbol of GF(257) holds 8 bits
        assert symbols_needed(16, 5) == 7  # smallest d' with 5**d' >= 2**16

    def test_symbols_needed_negative_raises(self):
        with pytest.raises(ValueError):
            symbols_needed(-1, 2)

    def test_int_vector_roundtrip_gf2(self):
        f = GF2
        for value in (0, 1, 5, 170, 255):
            vec = int_to_vector(f, value, 8)
            assert vector_to_int(f, vec) == value

    def test_int_vector_roundtrip_gf7(self):
        f = GF(7)
        for value in (0, 6, 48, 342):
            vec = int_to_vector(f, value, 3)
            assert vector_to_int(f, vec) == value

    def test_int_to_vector_overflow_raises(self):
        with pytest.raises(ValueError):
            int_to_vector(GF2, 256, 8)

    def test_int_to_vector_negative_raises(self):
        with pytest.raises(ValueError):
            int_to_vector(GF2, -3, 8)

    def test_bits_roundtrip(self):
        # A 6-bit payload takes 4 symbols over GF(3) (3**3 < 2**6 <= 3**4).
        f = GF(3)
        length = symbols_needed(6, 3)
        assert length == 4
        for payload in range(2**6):
            assert vector_to_int(f, int_to_vector(f, payload, length)) == payload


class TestPackUnpack:
    def test_pack_unpack_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        mask = pack_bits(bits)
        assert unpack_bits(mask, len(bits)).tolist() == bits

    def test_pack_empty(self):
        assert pack_bits([]) == 0

    def test_unpack_truncates(self):
        assert unpack_bits(0b1111, 2).tolist() == [1, 1]


class TestGF2Basis:
    def test_insert_innovative(self):
        basis = GF2Basis(4)
        assert basis.insert([1, 0, 0, 0])
        assert basis.insert([0, 1, 0, 0])
        assert basis.rank == 2

    def test_insert_dependent_returns_false(self):
        basis = GF2Basis(4)
        basis.insert([1, 1, 0, 0])
        basis.insert([0, 1, 1, 0])
        assert not basis.insert([1, 0, 1, 0])  # sum of the two
        assert basis.rank == 2

    def test_insert_zero_vector(self):
        basis = GF2Basis(4)
        assert not basis.insert([0, 0, 0, 0])
        assert basis.rank == 0

    def test_contains(self):
        basis = GF2Basis(3)
        basis.insert([1, 1, 0])
        basis.insert([0, 0, 1])
        assert basis.contains([1, 1, 1])
        assert not basis.contains([1, 0, 0])

    def test_extend_counts_innovative(self):
        basis = GF2Basis(4)
        added = basis.extend([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
        assert added == 2

    def test_full_rank(self):
        basis = GF2Basis(5)
        for i in range(5):
            vec = [0] * 5
            vec[i] = 1
            basis.insert(vec)
        assert basis.rank == 5
        assert basis.contains([1, 1, 1, 1, 1])

    def test_basis_matrix_shape(self):
        basis = GF2Basis(6)
        basis.insert([1, 0, 1, 0, 0, 0])
        basis.insert([0, 1, 0, 0, 1, 0])
        m = basis.basis_matrix()
        assert m.shape == (2, 6)

    def test_senses_definition(self):
        # A node senses mu iff some received vector is non-orthogonal to mu.
        basis = GF2Basis(4)
        basis.insert([1, 1, 0, 0])
        assert basis.senses([1, 0, 0, 0])  # dot = 1
        assert not basis.senses([1, 1, 0, 0])  # dot = 0 (mod 2)
        assert not basis.senses([0, 0, 1, 1])

    def test_senses_empty_basis(self):
        assert not GF2Basis(4).senses([1, 0, 0, 0])

    def test_reduced_echelon_decodes_identity(self):
        # Rows are [coefficients | payload]; Gauss-Jordan on the coefficient
        # block reaches the identity and returns each dimension's payload.
        k, payloads = 4, [0b101, 0b011, 0b110, 0b001]
        basis = GF2Basis(k + 3)
        for coefficients in (0b0111, 0b1110, 0b1100, 0b1000):
            payload = 0
            for i in range(k):
                if (coefficients >> i) & 1:
                    payload ^= payloads[i]
            assert basis.decode_payload_masks(k) is None  # rank < k so far
            basis.insert(coefficients | (payload << k))
        assert basis.decode_payload_masks(k) == payloads

    def test_copy_is_independent(self):
        basis = GF2Basis(3)
        basis.insert([1, 0, 0])
        clone = basis.copy()
        clone.insert([0, 1, 0])
        assert basis.rank == 1
        assert clone.rank == 2
