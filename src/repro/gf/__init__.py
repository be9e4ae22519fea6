"""Finite-field arithmetic substrate.

Everything the network-coding layer needs: prime fields ``GF(q)``, the
integer <-> field-vector packing of token payloads, and the bit-packed
GF(2) bases — one per node (:class:`GF2Basis`) and batched over the whole
network (:class:`GF2BasisBatch`) — for the common XOR case.  Elimination
over a general field lives in :class:`repro.coding.Subspace`.
"""

from ..bits import masks_to_packed, packed_to_masks
from .field import (
    GF,
    GF2,
    field_bits,
    get_field,
    is_prime,
    next_prime,
    smallest_prime_at_least,
)
from .gf2 import GF2Basis
from .packed import GF2BasisBatch
from .vectors import int_to_vector, symbols_needed, vector_to_int

__all__ = [
    "GF",
    "GF2",
    "GF2Basis",
    "GF2BasisBatch",
    "field_bits",
    "get_field",
    "int_to_vector",
    "is_prime",
    "masks_to_packed",
    "next_prime",
    "packed_to_masks",
    "smallest_prime_at_least",
    "symbols_needed",
    "vector_to_int",
]
