"""Network-coding core: generations, subspaces, derandomization.

Over GF(2) — the paper's "replace linear combinations by XORs" — the whole
layer is *mask-native*: a coded vector is one Python integer bit mask from
:meth:`GenerationState.compose` through the packed
:class:`~repro.tokens.message.CodedMessage` wire format to
:meth:`GenerationState.receive` and mask-level Gauss-Jordan decoding.  See
:mod:`repro.coding.subspace` and :mod:`repro.coding.rlnc` for the API.
"""

from .deterministic import (
    DeterministicSchedule,
    deterministic_header_bits,
    failure_probability_log2,
    omniscient_field_order,
    union_bound_holds,
    union_bound_margin_log2,
    witness_count_log2,
    witness_description_bits,
)
from .rlnc import Generation, GenerationState
from .subspace import Subspace

__all__ = [
    "DeterministicSchedule",
    "Generation",
    "GenerationState",
    "Subspace",
    "deterministic_header_bits",
    "failure_probability_log2",
    "omniscient_field_order",
    "union_bound_holds",
    "union_bound_margin_log2",
    "witness_count_log2",
    "witness_description_bits",
]
