"""Message envelopes with explicit bit-size accounting.

Accounting for message size is the heart of the paper's contribution
(Sections 2.1 and 3): the coefficient header of network coding is *not*
free, and whether coding wins depends on how header, payload and control
information fit into the ``O(b)``-bit per-round message budget.

Every message a protocol sends is therefore wrapped in an envelope that
computes its size in bits from its actual content.  The simulator enforces
the budget: a protocol that tries to send more than ``slack * b`` bits in
one round raises :class:`MessageSizeExceeded` (the slack constant reflects
the ``O(b)`` in the model statement and defaults to a small constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .token import Token, TokenId

__all__ = [
    "MessageSizeExceeded",
    "MessageBudget",
    "Message",
    "TokenForwardMessage",
    "CodedMessage",
    "ControlMessage",
    "uid_bits",
]


class MessageSizeExceeded(RuntimeError):
    """Raised when a protocol message exceeds the per-round bit budget."""


def uid_bits(n: int) -> int:
    """Bits needed for a node UID in an ``n``-node network (``O(log n)``)."""
    return max(1, math.ceil(math.log2(max(2, n))))


@dataclass(frozen=True)
class MessageBudget:
    """The per-round message budget ``O(b)``.

    Attributes
    ----------
    b:
        The nominal message size parameter (must satisfy ``b >= log n``).
    slack:
        Constant factor capturing the ``O(·)`` — messages up to
        ``slack * b`` bits are legal.
    """

    b: int
    slack: float = 8.0

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError(f"message size b must be >= 1, got {self.b}")
        if self.slack < 1:
            raise ValueError(f"slack must be >= 1, got {self.slack}")

    @property
    def limit_bits(self) -> int:
        """The hard per-message bit limit."""
        return int(math.floor(self.slack * self.b))

    def check(self, message: "Message") -> None:
        """Raise :class:`MessageSizeExceeded` if the message is over budget."""
        size = message.size_bits
        if size > self.limit_bits:
            raise MessageSizeExceeded(
                f"{type(message).__name__} is {size} bits, exceeding the "
                f"budget of {self.limit_bits} bits (b={self.b}, slack={self.slack})"
            )

    def validate_parameters(self, n: int) -> None:
        """Check the model requirement ``b >= log n``."""
        if self.b < uid_bits(n):
            raise ValueError(
                f"message size b={self.b} violates the model requirement "
                f"b >= log n = {uid_bits(n)} for n={n}"
            )


@dataclass(frozen=True)
class Message:
    """Base class for all protocol messages.

    Subclasses must provide :attr:`size_bits`.  ``sender`` is filled in by
    the simulator for bookkeeping; the *receiving protocol logic* must not
    use it in any way that violates anonymity assumptions beyond what the
    paper allows (neighbours' messages are received without pre-knowledge of
    who the neighbours would be; sender identity inside a received message
    is legitimate information a node may include about itself).
    """

    sender: int

    @property
    def size_bits(self) -> int:
        """Size of the message in bits."""
        return 0


@dataclass(frozen=True)
class TokenForwardMessage(Message):
    """A token-forwarding message: one or more (id, payload) token copies."""

    tokens: tuple[Token, ...] = ()

    @property
    def size_bits(self) -> int:
        # Computed once per message: the runner reads the size at least twice
        # per broadcast (budget check + accounting) every round.
        cached = self.__dict__.get("_size_bits")
        if cached is None:
            cached = sum(t.token_id.bits + t.size_bits for t in self.tokens)
            object.__setattr__(self, "_size_bits", cached)
        return cached

    def token_mask(self, token_index: Mapping[TokenId, int]) -> int | None:
        """The carried tokens as a bitmask over ``token_index``.

        None when a carried token is missing from the index.  Computed once
        per message and index: every receiver of a broadcast shares the
        run's index, so the mask is built once, not once per receiver.  The
        cache is keyed by the index object, so a mask built for another
        index is never reused.
        """
        cached = self.__dict__.get("_token_mask")
        if cached is not None and cached[0] is token_index:
            return cached[1]
        mask = 0
        for token in self.tokens:
            bit = token_index.get(token.token_id)
            if bit is None:
                object.__setattr__(self, "_token_mask", (token_index, None))
                return None
            mask |= 1 << bit
        object.__setattr__(self, "_token_mask", (token_index, mask))
        return mask


class CodedMessage(Message):
    """A random-linear-network-coding message.

    Two equivalent representations are supported:

    * **Tuple form** (any field): explicit ``coefficients`` and ``payload``
      tuples of ``F_q`` symbols.
    * **Packed form** (GF(2) only): a single integer bit ``mask`` holding the
      augmented vector ``[coefficients | payload]`` (bit ``i`` is coordinate
      ``i``), together with the split point ``k`` and the payload length
      ``payload_symbols``.  This is the mask-native wire format the coded hot
      path uses so a vector is never expanded into per-symbol tuples between
      ``compose`` and ``deliver``.

    The ``coefficients`` / ``payload`` accessors work for both forms (for a
    packed message they materialise tuples lazily and cache them), so
    consumers that only inspect dimensions should prefer the cheap
    :attr:`num_coefficients` / :attr:`num_payload_symbols`.

    Attributes
    ----------
    coefficients:
        The coefficient header: one ``F_q`` symbol per coded dimension
        (``k`` of them), costing ``k * ceil(lg q)`` bits.
    payload:
        The coded payload symbols (``ceil(d / lg q)`` of them).
    field_order:
        The field size ``q``.
    generation:
        Identifier of the coding generation / epoch this message belongs to
        (e.g. which block of gathered tokens is being broadcast).  Costs
        ``O(log n)`` bits.
    dimension_ids:
        Optional explicit identifiers of the coded dimensions when indices
        are not globally agreed (costed explicitly when present).
    mask:
        Packed GF(2) augmented vector, or None in tuple form.
    """

    def __init__(
        self,
        sender: int,
        coefficients: tuple[int, ...] = (),
        payload: tuple[int, ...] = (),
        field_order: int = 2,
        generation: int = 0,
        dimension_ids: tuple[TokenId, ...] | None = None,
        *,
        mask: int | None = None,
        k: int | None = None,
        payload_symbols: int | None = None,
    ):
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "field_order", int(field_order))
        object.__setattr__(self, "generation", int(generation))
        object.__setattr__(self, "dimension_ids", dimension_ids)
        if mask is not None:
            if field_order != 2:
                raise ValueError("packed coded messages require GF(2)")
            if k is None or payload_symbols is None:
                raise ValueError("packed form needs mask, k and payload_symbols")
            if coefficients or payload:
                raise ValueError("give either (coefficients, payload) or a mask, not both")
            mask = int(mask)
            if mask < 0 or mask.bit_length() > k + payload_symbols:
                raise ValueError(
                    f"mask of {mask.bit_length()} bits does not fit k + d' = "
                    f"{k + payload_symbols}"
                )
            object.__setattr__(self, "mask", mask)
            object.__setattr__(self, "k", int(k))
            object.__setattr__(self, "payload_symbols", int(payload_symbols))
            object.__setattr__(self, "_coefficients", None)
            object.__setattr__(self, "_payload", None)
        else:
            if k is not None or payload_symbols is not None:
                raise ValueError("k / payload_symbols are only valid with a mask")
            object.__setattr__(self, "mask", None)
            object.__setattr__(self, "k", len(coefficients))
            object.__setattr__(self, "payload_symbols", len(payload))
            object.__setattr__(self, "_coefficients", tuple(coefficients))
            object.__setattr__(self, "_payload", tuple(payload))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_mask(
        cls,
        sender: int,
        mask: int,
        k: int,
        payload_symbols: int,
        generation: int = 0,
        dimension_ids: tuple[TokenId, ...] | None = None,
    ) -> "CodedMessage":
        """Build a packed GF(2) message from an augmented-vector bit mask."""
        return cls(
            sender=sender,
            generation=generation,
            dimension_ids=dimension_ids,
            mask=mask,
            k=k,
            payload_symbols=payload_symbols,
        )

    # ------------------------------------------------------------------
    # representation accessors
    # ------------------------------------------------------------------
    @property
    def is_packed(self) -> bool:
        """True when this message carries the packed GF(2) wire format."""
        return self.mask is not None

    @property
    def num_coefficients(self) -> int:
        """Number of coded dimensions (cheap for both forms)."""
        return self.k

    @property
    def num_payload_symbols(self) -> int:
        """Number of payload symbols (cheap for both forms)."""
        return self.payload_symbols

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The coefficient symbols (lazily unpacked for packed messages)."""
        cached = self._coefficients
        if cached is None:
            mask = self.mask
            cached = tuple((mask >> i) & 1 for i in range(self.k))
            object.__setattr__(self, "_coefficients", cached)
        return cached

    @property
    def payload(self) -> tuple[int, ...]:
        """The payload symbols (lazily unpacked for packed messages)."""
        cached = self._payload
        if cached is None:
            shifted = self.mask >> self.k
            cached = tuple((shifted >> i) & 1 for i in range(self.payload_symbols))
            object.__setattr__(self, "_payload", cached)
        return cached

    def coefficient_mask(self) -> int:
        """The coefficient block as a bit mask (GF(2) messages only)."""
        if self.mask is not None:
            return self.mask & ((1 << self.k) - 1)
        if self.field_order != 2:
            raise ValueError("coefficient_mask is only defined over GF(2)")
        mask = 0
        for i, value in enumerate(self._coefficients):
            if int(value) & 1:
                mask |= 1 << i
        return mask

    def payload_mask(self) -> int:
        """The payload block as a bit mask (GF(2) messages only)."""
        if self.mask is not None:
            return self.mask >> self.k
        if self.field_order != 2:
            raise ValueError("payload_mask is only defined over GF(2)")
        mask = 0
        for i, value in enumerate(self._payload):
            if int(value) & 1:
                mask |= 1 << i
        return mask

    # ------------------------------------------------------------------
    # size accounting (identical for both forms)
    # ------------------------------------------------------------------
    @property
    def symbol_bits(self) -> int:
        """Bits per ``F_q`` symbol."""
        return max(1, math.ceil(math.log2(self.field_order)))

    @property
    def header_bits(self) -> int:
        """Cost of the coefficient header (the paper's coding overhead)."""
        bits = self.num_coefficients * self.symbol_bits
        if self.dimension_ids is not None:
            bits += sum(tid.bits for tid in self.dimension_ids)
        return bits

    @property
    def payload_bits(self) -> int:
        """Cost of the coded payload."""
        return self.num_payload_symbols * self.symbol_bits

    @property
    def size_bits(self) -> int:
        cached = self.__dict__.get("_size_bits")
        if cached is None:
            generation_bits = max(1, int(self.generation).bit_length())
            cached = self.header_bits + self.payload_bits + generation_bits
            object.__setattr__(self, "_size_bits", cached)
        return cached

    # ------------------------------------------------------------------
    # value semantics (a packed message equals its tuple-form twin)
    # ------------------------------------------------------------------
    def _identity(self) -> tuple:
        return (
            self.sender,
            self.field_order,
            self.generation,
            self.dimension_ids,
            self.coefficients,
            self.payload,
        )

    def __eq__(self, other: object) -> bool:
        # Exact-class comparison (matching the previous dataclass semantics):
        # a FreeHeaderCodedMessage is never equal to a plain CodedMessage,
        # but packed and tuple forms of the same message are equal.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_packed:
            body = f"mask={self.mask:#x}, k={self.k}, payload_symbols={self.payload_symbols}"
        else:
            body = f"coefficients={self._coefficients!r}, payload={self._payload!r}"
        return (
            f"{type(self).__name__}(sender={self.sender}, {body}, "
            f"field_order={self.field_order}, generation={self.generation})"
        )


@dataclass(frozen=True)
class ControlMessage(Message):
    """A small control-plane message (floods of ids, priorities, counters...).

    ``fields`` maps a short field name to either an integer (costed at its
    bit length, minimum 1), a :class:`TokenId` (costed at its id size), or a
    sequence of either (costed as the sum).  Field names are part of the
    protocol's finite alphabet and are costed at a constant 4 bits each.
    """

    fields: Mapping[str, object] = field(default_factory=dict)

    @staticmethod
    def _value_bits(value: object) -> int:
        if isinstance(value, TokenId):
            return value.bits
        if isinstance(value, Token):
            return value.token_id.bits + value.size_bits
        if isinstance(value, bool):
            return 1
        if isinstance(value, int):
            return max(1, int(value).bit_length())
        if isinstance(value, (tuple, list)):
            return sum(ControlMessage._value_bits(v) for v in value)
        raise TypeError(f"cannot account bits for field value of type {type(value)!r}")

    @property
    def size_bits(self) -> int:
        cached = self.__dict__.get("_size_bits")
        if cached is None:
            cached = sum(
                4 + self._value_bits(value) for value in self.fields.values()
            )  # 4 bits per field tag
            object.__setattr__(self, "_size_bits", cached)
        return cached
