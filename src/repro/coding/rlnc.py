"""Random linear network coding generations: encode, recombine, decode.

Section 5.1 in executable form.  A :class:`Generation` fixes the coding
parameters for one indexed-broadcast instance: ``k`` dimensions (tokens or
blocks of tokens), payload size in bits, and the field ``GF(q)``.  Nodes
hold a :class:`~repro.coding.subspace.Subspace` of augmented vectors
``v_i = e_i || t_i`` and exchange random linear combinations of everything
they have received.

Mask-native fast path (``q = 2``): the augmented vector of a coded message
is a single integer bit mask from :meth:`GenerationState.compose` through
the wire (:meth:`CodedMessage.from_mask <repro.tokens.message.CodedMessage>`)
to :meth:`GenerationState.receive` — no per-symbol tuples, no numpy
round-trips.  ``source_mask`` / ``message_from_mask`` / ``mask_from_message``
are the packed counterparts of the generic array API, which remains for
general prime fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..gf import GF, field_bits, get_field, symbols_needed, int_to_vector, vector_to_int
from ..tokens.message import CodedMessage
from .subspace import Subspace

__all__ = ["Generation", "GenerationState"]


@dataclass(frozen=True)
class Generation:
    """Parameters of one network-coding generation.

    Attributes
    ----------
    k:
        Number of coded dimensions (indexed tokens or blocks).
    payload_bits:
        Size in bits of each dimension's payload (the ``d`` of the paper, or
        the block size for grouped "meta-tokens").
    field_order:
        The field size ``q`` (prime).
    generation_id:
        Tag distinguishing concurrent/successive generations; carried in
        every coded message.
    """

    k: int
    payload_bits: int
    field_order: int = 2
    generation_id: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"a generation needs k >= 1 dimensions, got {self.k}")
        if self.payload_bits < 0:
            raise ValueError(f"payload size must be >= 0, got {self.payload_bits}")

    @classmethod
    def for_message(cls, message: CodedMessage) -> "Generation":
        """The generation a coded message belongs to, read off its dimensions.

        A node that did not open the generation itself joins it this way
        when the first coded message of the window arrives.
        """
        return cls(
            k=message.num_coefficients,
            payload_bits=message.num_payload_symbols * field_bits(message.field_order),
            field_order=message.field_order,
            generation_id=message.generation,
        )

    @property
    def field(self) -> GF:
        """The coding field."""
        return get_field(self.field_order)

    @cached_property
    def payload_symbols(self) -> int:
        """Number of ``F_q`` symbols per payload (``d' = ceil(d / lg q)``)."""
        return symbols_needed(self.payload_bits, self.field_order)

    @cached_property
    def vector_length(self) -> int:
        """Length of an augmented coding vector (``k + d'``)."""
        return self.k + self.payload_symbols

    @property
    def message_bits(self) -> int:
        """Size of one coded message (Lemma 5.3's ``k lg q + d``)."""
        bits_per_symbol = self.field.bits_per_symbol
        return (self.k + self.payload_symbols) * bits_per_symbol

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def source_vector(self, index: int, payload: int) -> np.ndarray:
        """The augmented vector ``e_index || payload`` a source injects.

        ``index`` is the dimension this payload occupies (0-based) and
        ``payload`` its content as an integer of at most ``payload_bits`` bits.
        """
        if not 0 <= index < self.k:
            raise IndexError(f"dimension index {index} out of range for k={self.k}")
        field = self.field
        vector = field.zeros(self.vector_length)
        vector[index] = 1
        if self.payload_symbols:
            vector[self.k :] = int_to_vector(field, payload, self.payload_symbols)
        return vector

    def source_mask(self, index: int, payload: int) -> int:
        """Packed form of :meth:`source_vector`: ``e_index || payload`` as a mask.

        GF(2) only — over ``q = 2`` the LSB-first symbol encoding of a
        payload integer *is* its binary representation, so the augmented
        vector is simply ``(1 << index) | (payload << k)``.
        """
        if self.field_order != 2:
            raise ValueError("source_mask requires GF(2)")
        if not 0 <= index < self.k:
            raise IndexError(f"dimension index {index} out of range for k={self.k}")
        payload = int(payload)
        if payload < 0 or payload.bit_length() > self.payload_symbols:
            raise ValueError(
                f"payload {payload} does not fit into {self.payload_symbols} "
                f"symbols over GF(2)"
            )
        return (1 << index) | (payload << self.k)

    def new_state(self) -> "GenerationState":
        """A fresh per-node state (empty received subspace) for this generation."""
        return GenerationState(self)

    # ------------------------------------------------------------------
    # message <-> vector conversion
    # ------------------------------------------------------------------
    def message_from_vector(self, sender: int, vector: np.ndarray) -> CodedMessage:
        """Wrap an augmented vector as a tuple-form :class:`CodedMessage`."""
        arr = self.field.asarray(vector).ravel()
        if arr.shape[0] != self.vector_length:
            raise ValueError(
                f"vector length {arr.shape[0]} != expected {self.vector_length}"
            )
        return CodedMessage(
            sender=sender,
            coefficients=tuple(int(x) for x in arr[: self.k].tolist()),
            payload=tuple(int(x) for x in arr[self.k :].tolist()),
            field_order=self.field_order,
            generation=self.generation_id,
        )

    def message_from_mask(self, sender: int, mask: int) -> CodedMessage:
        """Wrap a packed augmented vector as a packed :class:`CodedMessage`."""
        if self.field_order != 2:
            raise ValueError("message_from_mask requires GF(2)")
        return CodedMessage.from_mask(
            sender=sender,
            mask=mask,
            k=self.k,
            payload_symbols=self.payload_symbols,
            generation=self.generation_id,
        )

    def _check_message(self, message: CodedMessage) -> None:
        if message.field_order != self.field_order:
            raise ValueError(
                f"message field GF({message.field_order}) != generation field "
                f"GF({self.field_order})"
            )
        if (
            message.num_coefficients != self.k
            or message.num_payload_symbols != self.payload_symbols
        ):
            raise ValueError("message dimensions do not match this generation")

    def vector_from_message(self, message: CodedMessage) -> np.ndarray:
        """Unwrap a :class:`CodedMessage` back into an augmented vector."""
        self._check_message(message)
        field = self.field
        vector = field.zeros(self.vector_length)
        for i, value in enumerate(message.coefficients):
            vector[i] = field.normalize(value)
        for i, value in enumerate(message.payload):
            vector[self.k + i] = field.normalize(value)
        return vector

    def mask_from_message(self, message: CodedMessage) -> int:
        """Unwrap a :class:`CodedMessage` into a packed augmented vector.

        Zero-cost for packed messages; tuple-form GF(2) messages are packed
        on the fly so mixed traffic interoperates.
        """
        if self.field_order != 2:
            raise ValueError("mask_from_message requires GF(2)")
        self._check_message(message)
        if message.mask is not None:
            return message.mask
        return message.coefficient_mask() | (message.payload_mask() << self.k)


class GenerationState:
    """Per-node state for one coding generation: the received subspace.

    Over GF(2) every operation below stays in the packed integer-mask
    representation end to end.
    """

    def __init__(self, generation: Generation):
        self.generation = generation
        self.subspace = Subspace(generation.field, generation.vector_length)
        self._mask_native = generation.field_order == 2

    # ------------------------------------------------------------------
    # knowledge updates
    # ------------------------------------------------------------------
    def add_source(self, index: int, payload: int) -> bool:
        """Inject a locally-known payload for dimension ``index``."""
        if self._mask_native:
            return self.subspace.insert(self.generation.source_mask(index, payload))
        return self.subspace.insert(self.generation.source_vector(index, payload))

    def receive(self, message: CodedMessage) -> bool:
        """Incorporate a received coded message; return True if innovative."""
        if self._mask_native:
            return self.subspace.insert(self.generation.mask_from_message(message))
        return self.subspace.insert(self.generation.vector_from_message(message))

    def receive_vector(self, vector: int | np.ndarray) -> bool:
        """Incorporate a raw augmented vector (mask or array); True if innovative."""
        return self.subspace.insert(vector)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def compose(self, sender: int, rng: np.random.Generator) -> CodedMessage | None:
        """A random linear combination of everything received, as a message.

        Returns None when the node has received nothing for this generation
        yet (it then has nothing useful to contribute).  The combination is
        never the zero vector (see :meth:`Subspace.random_combination`).
        """
        if self._mask_native:
            mask = self.subspace.random_combination_mask(rng)
            if mask is None:
                return None
            return self.generation.message_from_mask(sender, mask)
        combination = self.subspace.random_combination(rng)
        if combination is None:
            return None
        return self.generation.message_from_vector(sender, combination)

    def compose_with_coefficients(self, sender: int, coefficients: Sequence[int]) -> CodedMessage | None:
        """Combine the current basis with explicit coefficients (deterministic coding)."""
        if self.subspace.rank == 0:
            return None
        coefficients = list(coefficients)[: self.subspace.rank]
        if self._mask_native:
            mask = self.subspace.combination_mask_with(coefficients)
            return self.generation.message_from_mask(sender, mask)
        combination = self.subspace.combination_with(coefficients)
        return self.generation.message_from_vector(sender, combination)

    # ------------------------------------------------------------------
    # queries / decoding
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Dimension of the received span."""
        return self.subspace.rank

    def coefficient_rank(self) -> int:
        """Rank of the span projected on the coefficient block."""
        return self.subspace.coefficient_rank(self.generation.k)

    def can_decode(self) -> bool:
        """True iff all ``k`` dimensions can be recovered."""
        return self.subspace.can_decode(self.generation.k)

    def decode_payloads(self) -> list[int] | None:
        """Recover all ``k`` payloads as integers, or None if not yet decodable.

        On the GF(2) path the decoded payload masks *are* the payload
        integers (LSB-first bits), so no unpacking happens at all.
        """
        k = self.generation.k
        if self._mask_native:
            if not self.subspace.can_decode(k):
                return None
            return self.subspace.decode_payload_masks(k)
        vectors = self.subspace.decode(k)
        if vectors is None:
            return None
        field = self.generation.field
        return [vector_to_int(field, v) for v in vectors]

    def senses(self, direction: int | Sequence[int] | np.ndarray) -> bool:
        """Definition 5.1 sensing of a coefficient-space direction (mask or array)."""
        return self.subspace.senses(direction)
