"""Unit tests for prime field arithmetic (repro.gf.field)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gf import GF, GF2, field_bits, get_field, is_prime, next_prime, smallest_prime_at_least
from repro.gf.field import GF as GFClass


class TestPrimality:
    def test_small_primes_recognised(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert is_prime(p)

    def test_small_composites_rejected(self):
        for c in (0, 1, 4, 6, 8, 9, 10, 12, 15, 21, 25, 27, 33, 49, 91):
            assert not is_prime(c)

    def test_negative_numbers_not_prime(self):
        assert not is_prime(-7)

    def test_large_prime(self):
        assert is_prime(2**31 - 1)  # Mersenne prime

    def test_large_composite(self):
        assert not is_prime((2**31 - 1) * 7)

    def test_carmichael_number_rejected(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_next_prime(self):
        assert next_prime(2) == 3
        assert next_prime(3) == 5
        assert next_prime(13) == 17
        assert next_prime(1) == 2
        assert next_prime(0) == 2

    def test_smallest_prime_at_least(self):
        assert smallest_prime_at_least(2) == 2
        assert smallest_prime_at_least(14) == 17
        assert smallest_prime_at_least(17) == 17
        assert smallest_prime_at_least(1) == 2

    def test_smallest_prime_at_least_large(self):
        p = smallest_prime_at_least(10**6)
        assert p >= 10**6
        assert is_prime(p)


class TestFieldConstruction:
    def test_field_requires_prime_order(self):
        with pytest.raises(ValueError):
            GF(4)
        with pytest.raises(ValueError):
            GF(1)
        with pytest.raises(ValueError):
            GF(100)

    def test_gf2_singleton(self):
        assert GF2.q == 2
        assert get_field(2) is get_field(2)

    def test_fields_equal_by_order(self):
        assert GF(7) == GF(7)
        assert GF(7) != GF(11)
        assert hash(GF(5)) == hash(GF(5))

    def test_field_bits(self):
        assert field_bits(2) == 1
        assert field_bits(3) == 2
        assert field_bits(5) == 3
        assert field_bits(257) == 9

    def test_field_bits_rejects_tiny(self):
        with pytest.raises(ValueError):
            field_bits(1)

    def test_bits_per_symbol_property(self):
        assert GF(2).bits_per_symbol == 1
        assert GF(7).bits_per_symbol == 3

    def test_contains(self):
        f = GF(5)
        assert 0 in f and 4 in f
        assert 5 not in f
        assert -1 not in f
        assert "x" not in f


class TestScalarArithmetic:
    @pytest.fixture
    def f7(self):
        return GF(7)

    def test_add(self, f7):
        assert f7.add(3, 5) == 1
        assert f7.add(6, 0) == 6

    def test_neg(self, f7):
        assert f7.neg(0) == 0
        assert f7.neg(3) == 4
        assert f7.add(3, f7.neg(3)) == 0

    def test_mul(self, f7):
        assert f7.mul(3, 5) == 1
        assert f7.mul(0, 6) == 0

    def test_inverse_roundtrip(self, f7):
        for a in range(1, 7):
            assert f7.mul(a, f7.inv(a)) == 1

    def test_inverse_of_zero_raises(self, f7):
        with pytest.raises(ZeroDivisionError):
            f7.inv(0)

    def test_normalize(self, f7):
        assert f7.normalize(-1) == 6
        assert f7.normalize(14) == 0

    def test_gf2_is_xor(self):
        f = GF(2)
        assert f.add(1, 1) == 0
        assert f.add(1, 0) == 1
        assert f.mul(1, 1) == 1
        assert f.inv(1) == 1


class TestArrayArithmetic:
    def test_asarray_reduces(self):
        f = GF(5)
        arr = f.asarray([7, -1, 3])
        assert arr.tolist() == [2, 4, 3]

    def test_zeros_and_ones(self):
        f = GF(3)
        assert f.zeros(4).tolist() == [0, 0, 0, 0]
        assert f.ones(3).tolist() == [1, 1, 1]

    def test_elementwise_ops(self):
        f = GF(5)
        a = f.asarray([1, 2, 3])
        b = f.asarray([4, 4, 4])
        assert f.add_arrays(a, b).tolist() == [0, 1, 2]
        assert f.sub_arrays(a, b).tolist() == [2, 3, 4]

    def test_scale(self):
        f = GF(7)
        a = f.asarray([1, 2, 3])
        assert f.scale(a, 3).tolist() == [3, 6, 2]

    def test_dot(self):
        f = GF(5)
        assert f.dot(f.asarray([1, 2, 3]), f.asarray([3, 2, 1])) == 0
        assert f.dot(f.asarray([1, 1]), f.asarray([2, 2])) == 4

    def test_dot_shape_mismatch(self):
        f = GF(5)
        with pytest.raises(ValueError):
            f.dot(f.asarray([1, 2]), f.asarray([1, 2, 3]))

    def test_random_elements_in_range(self, rng):
        f = GF(11)
        values = f.random_elements(rng, (100,))
        assert all(0 <= int(v) < 11 for v in values)


class TestLargeField:
    def test_object_dtype_for_huge_field(self):
        q = smallest_prime_at_least(2**80)
        f = GF(q)
        assert f.uses_object_dtype
        assert f.mul(q - 1, q - 1) == 1  # (-1)^2 = 1

    def test_large_field_inverse(self):
        q = smallest_prime_at_least(2**70)
        f = GF(q)
        a = 123456789123456789 % q
        assert f.mul(a, f.inv(a)) == 1

    def test_large_field_random_elements(self, rng):
        q = smallest_prime_at_least(2**70)
        f = GF(q)
        values = f.random_elements(rng, (5,))
        assert all(0 <= int(v) < q for v in values)

    def test_large_field_dot(self):
        q = smallest_prime_at_least(2**70)
        f = GF(q)
        a = f.asarray([q - 1, 2])
        b = f.asarray([1, 3])
        assert f.dot(a, b) == (q - 1 + 6) % q
