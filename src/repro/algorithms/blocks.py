"""Packing tokens into blocks, and the coded broadcast every coding protocol shares.

Every coding algorithm of the paper has two parts.  It first solves
*indexing*: it agrees which token or block ("meta-token") sits in which
coded dimension.  It then runs Lemma 5.3's network-coded indexed broadcast
of those dimensions.  The protocols differ only in the first part, so this
module holds the second:

* the block format (:func:`encode_block` / :func:`decode_block`) and the
  b/2 payload vs coefficient-header split (:func:`block_layout`);
* :func:`token_dimension`, the single-token indexing rule of the standalone
  k-indexed broadcast (``index_of`` or the origin UID);
* :func:`decoded_tokens`, decode a complete span back into tokens;
* :class:`BlockBroadcast`, the coded window of one Section 7 iteration,
  which naive-coded, greedy-forward and priority-forward embed.

Several algorithms gather tokens and group them into larger blocks so that
fewer coding coefficients are needed per bit of payload (Section 7:
"grouped together to a smaller number of larger meta-tokens").  A block is
encoded as a fixed-width bit string so it can be used directly as the
payload of one coded dimension:

``[count : 16 bits][token_0][token_1]...``

where each token slot is ``2 * id_bits + d`` bits wide (origin UID, sequence
number, payload).  Encoding the identifiers inside the block is what lets a
decoder recover *which* tokens it received without any global pre-agreed
index: the indexing agrees only which blocks occupy which coded dimension,
and the block content carries the rest.
"""

from __future__ import annotations

from typing import Sequence

from ..coding.rlnc import Generation, GenerationState
from ..gf import field_bits
from ..tokens.message import CodedMessage, Message
from ..tokens.token import Token, TokenId
from .base import ProtocolConfig, ProtocolNode

__all__ = [
    "BlockBroadcast",
    "token_slot_bits",
    "block_bits",
    "block_layout",
    "max_tokens_per_block",
    "encode_block",
    "decode_block",
    "decoded_tokens",
    "token_dimension",
]

_COUNT_BITS = 16


def token_slot_bits(config: ProtocolConfig) -> int:
    """Width of one token slot inside a block."""
    return 2 * config.id_bits + config.token_bits


def block_bits(config: ProtocolConfig, tokens_per_block: int) -> int:
    """Total width of a block holding up to ``tokens_per_block`` tokens."""
    if tokens_per_block < 1:
        raise ValueError(f"a block must hold at least one token, got {tokens_per_block}")
    return _COUNT_BITS + tokens_per_block * token_slot_bits(config)


def max_tokens_per_block(config: ProtocolConfig, payload_budget_bits: int) -> int:
    """Largest number of tokens whose block fits into ``payload_budget_bits``."""
    slot = token_slot_bits(config)
    available = payload_budget_bits - _COUNT_BITS
    return max(1, available // slot) if available >= slot else 1


def block_layout(config: ProtocolConfig) -> tuple[int, int]:
    """``(tokens per block, blocks per generation)`` for a message of ``b`` bits.

    The budget splits roughly in half between the payload (one block of
    ``~b/2d`` tokens) and the coefficient header (``~b/2`` blocks, one
    field symbol each).  Capacity planning uses the nominal ``b``; the
    budget's slack constant only absorbs the ``O(b)`` bookkeeping overhead.
    """
    limit = config.b
    tokens_per_block = max_tokens_per_block(config, limit // 2)
    symbol_bits = field_bits(config.field_order)
    header_budget = max(
        symbol_bits, limit - block_bits(config, tokens_per_block) - 32
    )
    return tokens_per_block, max(1, header_budget // symbol_bits)


def token_dimension(config: ProtocolConfig, token: Token, k: int) -> int:
    """The coded dimension of a single token in the standalone k-indexed broadcast.

    ``config.extra['index_of']`` (a ``TokenId -> index`` mapping) when
    given; otherwise the origin UID, which is the canonical ``k = n``
    "one token per node" instance.
    """
    index_of = config.extra.get("index_of")
    if index_of is not None:
        return int(index_of[token.token_id])  # type: ignore[index]
    return token.token_id.origin % k


def encode_block(config: ProtocolConfig, tokens: Sequence[Token], tokens_per_block: int) -> int:
    """Pack up to ``tokens_per_block`` tokens into a block payload integer."""
    if len(tokens) > tokens_per_block:
        raise ValueError(
            f"block capacity is {tokens_per_block} tokens, got {len(tokens)}"
        )
    if len(tokens) >= (1 << _COUNT_BITS):
        raise ValueError("block count field overflow")
    slot = token_slot_bits(config)
    value = len(tokens)
    offset = _COUNT_BITS
    for token in tokens:
        if token.size_bits != config.token_bits:
            raise ValueError(
                f"token size {token.size_bits} != configured d={config.token_bits}"
            )
        slot_value = (
            (token.token_id.origin & ((1 << config.id_bits) - 1))
            | ((token.token_id.sequence & ((1 << config.id_bits) - 1)) << config.id_bits)
            | (token.payload << (2 * config.id_bits))
        )
        value |= slot_value << offset
        offset += slot
    return value


def decode_block(config: ProtocolConfig, value: int, tokens_per_block: int) -> list[Token]:
    """Unpack a block payload integer back into its tokens."""
    slot = token_slot_bits(config)
    count = value & ((1 << _COUNT_BITS) - 1)
    if count > tokens_per_block:
        raise ValueError(
            f"decoded block claims {count} tokens but capacity is {tokens_per_block}"
        )
    tokens = []
    offset = _COUNT_BITS
    id_mask = (1 << config.id_bits) - 1
    payload_mask = (1 << config.token_bits) - 1
    for _ in range(count):
        slot_value = (value >> offset) & ((1 << slot) - 1)
        origin = slot_value & id_mask
        sequence = (slot_value >> config.id_bits) & id_mask
        payload = (slot_value >> (2 * config.id_bits)) & payload_mask
        tokens.append(
            Token(
                token_id=TokenId(origin=origin, sequence=sequence),
                payload=payload,
                size_bits=config.token_bits,
            )
        )
        offset += slot
    return tokens


def decoded_tokens(
    config: ProtocolConfig, state: GenerationState, tokens_per_block: int
) -> list[Token] | None:
    """Every token of a complete span, in dimension order; None while it is incomplete."""
    payloads = state.decode_payloads()
    if payloads is None:
        return None
    return [
        token
        for payload in payloads
        for token in decode_block(config, payload, tokens_per_block)
    ]


class BlockBroadcast:
    """The coded window of one Section 7 iteration (Lemma 5.3 over blocks).

    The embedding protocol solves the indexing (which block sits in which
    dimension) and drives the window: :meth:`begin` when the window opens,
    :meth:`compose` / :meth:`receive` each round, :meth:`finish` when it
    closes.  A node that holds none of the blocks joins the generation of
    the first coded message it hears.  ``delivered`` is the embedding
    protocol's set of tokens out of consideration, held by reference.
    """

    def __init__(self, owner: ProtocolNode, tokens_per_block: int, delivered: set[TokenId]):
        self.owner = owner
        self.tokens_per_block = tokens_per_block
        self.delivered = delivered
        self.state: GenerationState | None = None

    def begin(self, generation_id: int, blocks: Sequence[Sequence[Token]]) -> None:
        """Open a generation with one dimension per block; inject the blocks held here.

        An empty block is one this node does not hold.  With no blocks at
        all the window stays closed until a coded message arrives.
        """
        self.state = None
        if not blocks:
            return
        config = self.owner.config
        generation = Generation(
            k=len(blocks),
            payload_bits=block_bits(config, self.tokens_per_block),
            field_order=config.field_order,
            generation_id=generation_id,
        )
        state = generation.new_state()
        for index, tokens in enumerate(blocks):
            if tokens:
                state.add_source(index, encode_block(config, tokens, self.tokens_per_block))
        self.state = state

    def compose(self) -> Message | None:
        """A random combination of the window's span, or None before it opens."""
        if self.state is None:
            return None
        return self.state.compose(self.owner.uid, self.owner.rng)

    def receive(self, messages: Sequence[Message]) -> None:
        """Insert the round's coded messages whose dimension count matches the window."""
        for message in messages:
            if isinstance(message, CodedMessage):
                if self.state is None:
                    self.state = Generation.for_message(message).new_state()
                if message.num_coefficients == self.state.generation.k:
                    self.state.receive(message)

    def finish(self) -> None:
        """Learn every decoded token, mark it delivered, and close the window."""
        if self.state is not None:
            for token in decoded_tokens(self.owner.config, self.state, self.tokens_per_block) or ():
                self.owner._learn_token(token)
                self.delivered.add(token.token_id)
        self.state = None

    @property
    def rank(self) -> int:
        """Dimension of the window's span (0 while it is closed)."""
        return self.state.rank if self.state is not None else 0
