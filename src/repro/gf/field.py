"""Prime finite fields GF(q).

The paper's algorithms interpret tokens as vectors over a finite field
``F_q`` (Section 5.1).  For most results ``q = 2`` suffices; the
derandomization of Section 6 requires very large fields ``q = n^{Omega(k)}``.
This module provides a small, dependency-free prime-field implementation
vectorised over numpy integer arrays.

Only prime fields are implemented.  The paper never requires extension
fields: it always chooses ``q`` to be a prime and represents tokens as
``ceil(d / lg q)``-dimensional vectors over ``F_q``.

Example
-------
>>> from repro.gf import GF
>>> f = GF(7)
>>> f.add(3, 5)
1
>>> f.inv(3)
5
>>> f.mul(3, f.inv(3))
1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "GF",
    "is_prime",
    "next_prime",
    "smallest_prime_at_least",
    "field_bits",
]


def is_prime(n: int) -> bool:
    """Return True iff ``n`` is a prime number.

    Uses deterministic Miller-Rabin with a witness set that is exact for all
    64-bit integers, and falls back to a few random witnesses above that
    (large derandomization fields can exceed 64 bits).
    """
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        """Return True if ``a`` witnesses that ``n`` is composite."""
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    # Deterministic for n < 3.3e24 which covers every field size we use.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        if witness(a):
            return False
    return True


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def smallest_prime_at_least(n: int) -> int:
    """Return the smallest prime ``p >= n``."""
    if n <= 2:
        return 2
    if is_prime(n):
        return n
    return next_prime(n)


def field_bits(q: int) -> int:
    """Number of bits needed to describe one ``F_q`` symbol (``ceil(lg q)``)."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    return max(1, math.ceil(math.log2(q)))


@dataclass(frozen=True)
class GF:
    """A prime finite field GF(q).

    The class is a lightweight value object: two ``GF`` instances with the
    same order compare equal and hash equally, so protocols can freely pass
    fields around or use them as dictionary keys.

    Scalar operations (``add``, ``mul``, ``inv`` ...) accept Python ints and
    return Python ints.  Array operations (``add_arrays`` etc.) accept numpy
    arrays of dtype ``int64`` (or ``object`` for very large fields) and are
    fully vectorised.
    """

    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"field order must be >= 2, got {self.q}")
        if not is_prime(self.q):
            raise ValueError(f"field order must be prime, got {self.q}")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """The number of elements in the field."""
        return self.q

    @property
    def bits_per_symbol(self) -> int:
        """Bits required to transmit one field element."""
        return field_bits(self.q)

    @property
    def dtype(self) -> np.dtype:
        """Numpy dtype used for arrays of field elements.

        Fields that fit comfortably in int64 arithmetic (q^2 < 2^63) use
        ``int64``; larger fields fall back to Python-object arrays so that
        arbitrary-precision arithmetic is used.
        """
        if self.q * self.q < 2**62:
            return np.dtype(np.int64)
        return np.dtype(object)

    @property
    def uses_object_dtype(self) -> bool:
        """True when the field is too large for int64 arithmetic."""
        return self.dtype == np.dtype(object)

    # ------------------------------------------------------------------
    # scalar arithmetic
    # ------------------------------------------------------------------
    def normalize(self, a: int) -> int:
        """Reduce an integer into canonical range ``[0, q)``."""
        return int(a) % self.q

    def add(self, a: int, b: int) -> int:
        """Field addition."""
        return (int(a) + int(b)) % self.q

    def neg(self, a: int) -> int:
        """Additive inverse."""
        return (-int(a)) % self.q

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        return (int(a) * int(b)) % self.q

    def pow(self, a: int, e: int) -> int:
        """Field exponentiation ``a**e``; negative exponents invert first."""
        a = self.normalize(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        return pow(a, e, self.q)

    def inv(self, a: int) -> int:
        """Multiplicative inverse of ``a``.

        Raises
        ------
        ZeroDivisionError
            If ``a`` is zero in the field.
        """
        a = self.normalize(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        # Fermat's little theorem: a^(q-2) = a^-1 for prime q.
        return pow(a, self.q - 2, self.q)

    # ------------------------------------------------------------------
    # array arithmetic
    # ------------------------------------------------------------------
    def asarray(self, values: Iterable[int] | np.ndarray) -> np.ndarray:
        """Convert ``values`` to a canonical numpy array of field elements."""
        arr = np.asarray(values, dtype=self.dtype)
        if arr.dtype == np.dtype(object):
            return np.vectorize(lambda x: int(x) % self.q, otypes=[object])(arr)
        return np.mod(arr, self.q)

    def zeros(self, shape) -> np.ndarray:
        """An all-zero array of field elements."""
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        """An all-one array of field elements."""
        if self.uses_object_dtype:
            out = np.empty(shape, dtype=object)
            out[...] = 1
            return out
        return np.ones(shape, dtype=self.dtype)

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field addition of two arrays."""
        return np.mod(np.add(a, b), self.q)

    def sub_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field subtraction of two arrays."""
        return np.mod(np.subtract(a, b), self.q)

    def scale(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply an array of field elements by a scalar."""
        return np.mod(np.multiply(a, self.normalize(scalar)), self.q)

    def dot(self, a: np.ndarray, b: np.ndarray) -> int:
        """Inner product of two vectors of field elements."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        if self.uses_object_dtype:
            total = 0
            for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
                total = (total + int(x) * int(y)) % self.q
            return total
        # Guard against int64 overflow by reducing via Python ints when the
        # accumulated dot product could exceed 2^63.
        max_terms = a.size
        if max_terms * (self.q - 1) ** 2 >= 2**62:
            total = 0
            for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
                total = (total + int(x) * int(y)) % self.q
            return total
        return int(np.mod(np.dot(a, b), self.q))

    def random_elements(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Uniformly random field elements with the given shape."""
        if self.uses_object_dtype:
            flat_count = int(np.prod(shape)) if shape else 1
            bits = self.q.bit_length()
            values = []
            while len(values) < flat_count:
                # Rejection sampling from [0, 2^bits) to stay uniform.
                # repro: allow[REP404] an rng byte draw of a big-field element, not the layout
                candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
                candidate &= (1 << bits) - 1
                if candidate < self.q:
                    values.append(candidate)
            out = np.empty(flat_count, dtype=object)
            out[:] = values
            return out.reshape(shape)
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    # ------------------------------------------------------------------
    # niceties
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF({self.q})"

    def __contains__(self, value: int) -> bool:
        try:
            v = int(value)
        except (TypeError, ValueError):
            return False
        return 0 <= v < self.q


@lru_cache(maxsize=None)
def _cached_field(q: int) -> GF:
    return GF(q)


def get_field(q: int) -> GF:
    """Return a cached ``GF(q)`` instance (fields are immutable)."""
    return _cached_field(q)


#: The binary field, by far the most common choice in the paper.
GF2 = get_field(2)
