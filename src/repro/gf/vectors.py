"""Helpers for vectors over prime fields.

Tokens are ``d``-bit strings that the coding layer reinterprets as
``ceil(d / lg q)``-dimensional vectors over ``F_q`` (Section 5.1).  This
module provides the integer <-> field-vector packing used for that
reinterpretation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .field import GF

__all__ = ["symbols_needed", "int_to_vector", "vector_to_int"]


@lru_cache(maxsize=4096)
def symbols_needed(num_bits: int, q: int) -> int:
    """Number of ``F_q`` symbols needed to encode ``num_bits`` bits.

    This is the ``d' = ceil(d / lg q)`` of Section 5.1 with ``lg`` the real
    base-2 logarithm: the smallest ``d'`` with ``q**d' >= 2**num_bits``.  (For
    non-power-of-two fields this differs from dividing by the *transmission*
    cost ``ceil(lg q)`` of a symbol, which would under-provision capacity.)
    Cached: the coding hot path asks the same (d, q) pair every round.
    """
    if num_bits < 0:
        raise ValueError(f"bit count must be non-negative, got {num_bits}")
    if num_bits == 0:
        return 0
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    length = max(1, math.ceil(num_bits / math.log2(q)))
    # Guard against floating-point underestimation near exact powers.
    while q**length < (1 << num_bits):
        length += 1
    while length > 1 and q ** (length - 1) >= (1 << num_bits):
        length -= 1
    return length


def int_to_vector(field: GF, value: int, length: int) -> np.ndarray:
    """Encode a non-negative integer as a length-``length`` base-q vector.

    The least-significant symbol comes first.  Raises if the value does not
    fit, so a token can never silently lose bits.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    out = field.zeros(length)
    remaining = int(value)
    for i in range(length):
        out[i] = remaining % field.q
        remaining //= field.q
    if remaining:
        raise ValueError(
            f"value {value} does not fit into {length} symbols over GF({field.q})"
        )
    return out


def vector_to_int(field: GF, vector: np.ndarray | Sequence[int]) -> int:
    """Inverse of :func:`int_to_vector`."""
    total = 0
    for symbol in reversed(list(np.asarray(vector).ravel().tolist())):
        total = total * field.q + int(symbol) % field.q
    return total
