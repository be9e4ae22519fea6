"""The protocol interface all dissemination algorithms implement.

A protocol is a per-node state machine driven by the simulator in
synchronous rounds (Section 4.1):

1. the node *composes* a message for the round knowing only its own state
   (never its neighbours — broadcast is anonymous);
2. the adversary fixes the round topology;
3. the node *delivers* the set of messages broadcast by its neighbours.

Everything a node may legitimately know is provided through
:class:`ProtocolConfig` (the problem parameters ``n``, ``k``, ``d``, ``b``,
``T`` — all assumed known in the paper) plus its own initial tokens.

Protocols signal what they have learned through :meth:`ProtocolNode.known_token_ids`
and :meth:`ProtocolNode.decoded_tokens`; the simulator uses these for
completion detection and correctness checking.  Adaptive adversaries see
the ``known`` dicts (and :meth:`ProtocolNode.coded_rank`) only through
the round kernel's whole-network
:class:`~repro.network.adversary.RoundState`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..tokens.message import Message, MessageBudget, TokenForwardMessage, uid_bits
from ..tokens.token import Token, TokenId

__all__ = [
    "ProtocolConfig",
    "ProtocolNode",
    "ProtocolFactory",
    "log2_ceil",
]


def log2_ceil(n: int) -> int:
    """``ceil(log2(n))`` clamped below at 1; the ubiquitous ``log n`` of the paper."""
    return max(1, math.ceil(math.log2(max(2, n))))


@dataclass(frozen=True)
class ProtocolConfig:
    """Shared problem parameters every node knows.

    Attributes
    ----------
    n:
        Number of nodes (the paper assumes ``n`` is known up to a factor 2).
    k:
        Number of tokens to disseminate.
    token_bits:
        Token size ``d`` in bits.
    budget:
        The per-round message budget (``b`` and its constant slack).
    stability:
        The network's stability parameter ``T`` (1 = fully dynamic).
    field_order:
        Field size ``q`` used by coding protocols.
    extra:
        Free-form per-protocol tuning knobs (phase-length constants etc.).
    """

    n: int
    k: int
    token_bits: int
    budget: MessageBudget
    stability: int = 1
    field_order: int = 2
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.token_bits < 1:
            raise ValueError(f"token size d must be >= 1, got {self.token_bits}")
        if self.token_bits > self.budget.b:
            raise ValueError(
                f"the model requires d <= b, got d={self.token_bits} > b={self.budget.b}"
            )
        if self.stability < 1:
            raise ValueError(f"stability T must be >= 1, got {self.stability}")
        self.budget.validate_parameters(self.n)

    @property
    def b(self) -> int:
        """The nominal message size in bits."""
        return self.budget.b

    @property
    def log_n(self) -> int:
        """``ceil(log2 n)``, the id/identifier size scale."""
        return log2_ceil(self.n)

    @property
    def id_bits(self) -> int:
        """Bits of a node UID."""
        return uid_bits(self.n)

    def extra_int(self, key: str, default: int) -> int:
        """Read an integer tuning knob from ``extra``."""
        value = self.extra.get(key, default)
        return int(value)  # type: ignore[arg-type]


class ProtocolNode(abc.ABC):
    """Per-node protocol state machine.

    Knowledge is tracked twice: the authoritative ``known`` dict (id ->
    Token) and, when the runner enables it, an incremental integer
    ``knowledge_mask`` — one bit per token index of the run's placement —
    maintained by :meth:`_learn_token`.  The mask is what makes the
    runner's per-round completion / progress / useless-delivery accounting
    O(1) per node instead of O(k) frozenset rebuilding.

    Forwarding messages get a mask too (:meth:`TokenForwardMessage.token_mask`,
    built once per message against the same index), so a protocol hands
    its whole inbox to :meth:`_learn_messages`: an inbox that brings
    nothing new costs one cached mask read per message and one mask test,
    with no :meth:`_learn_message` call and no :meth:`_learn_token` call.
    """

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        self.uid = uid
        self.config = config
        self.rng = rng
        #: Tokens (id -> Token) this node can currently output.
        self.known: dict[TokenId, Token] = {}
        #: Token-id -> bit index mapping installed by the runner's mask engine.
        self._token_index: Mapping[TokenId, int] | None = None
        self._knowledge_mask: int = 0
        #: ``len(self.known)`` the last time the mask was known to be in sync.
        self._mask_synced: int = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self, initial_tokens: Sequence[Token]) -> None:
        """Install the node's initial tokens (called once before round 0)."""
        for token in initial_tokens:
            self.known[token.token_id] = token

    @abc.abstractmethod
    def compose(self, round_index: int) -> Message | None:
        """Choose the message to broadcast this round (None = stay silent).

        The node does not know who its neighbours will be; the message may
        depend only on the node's own state and shared problem parameters.
        """

    @abc.abstractmethod
    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        """Receive all messages broadcast by this round's neighbours."""

    # ------------------------------------------------------------------
    # knowledge inspection (used for completion detection / adversaries)
    # ------------------------------------------------------------------
    def known_token_ids(self) -> frozenset:
        """Identifiers of tokens this node can currently reconstruct."""
        return frozenset(self.known)

    def decoded_tokens(self) -> dict[TokenId, Token]:
        """The tokens this node can output, keyed by identifier."""
        return dict(self.known)

    def coded_rank(self) -> int:
        """Dimension of any coded subspace held (0 for non-coding protocols)."""
        return 0

    def finished(self) -> bool:
        """True when the node has locally terminated (optional; default False)."""
        return False

    # ------------------------------------------------------------------
    # incremental knowledge-mask tracking (the runner's fast-path contract)
    # ------------------------------------------------------------------
    def enable_mask_tracking(self, token_index: Mapping[TokenId, int]) -> bool:
        """Install the run's token-id -> bit-index mapping.

        Called once by the runner after :meth:`setup`.  Returns False (and
        leaves tracking off) for subclasses that override
        :meth:`known_token_ids`, since the ``known`` dict is then not
        guaranteed to be the authoritative knowledge record; the runner
        rejects such protocols on every engine.
        """
        if type(self).known_token_ids is not ProtocolNode.known_token_ids:
            return False
        self._token_index = token_index
        self._knowledge_mask = 0
        self._mask_synced = 0
        return True

    def knowledge_mask(self) -> int:
        """The node's knowledge as a bitmask over the run's token indices.

        O(1) when in sync (the common case — :meth:`_learn_token` maintains
        the mask incrementally); resynchronises from ``known`` only after an
        out-of-band mutation.  Requires :meth:`enable_mask_tracking`.
        """
        if self._token_index is None:
            raise RuntimeError("mask tracking not enabled")
        if self._mask_synced != len(self.known):
            index = self._token_index
            mask = 0
            for token_id in self.known:
                bit = index.get(token_id)
                if bit is not None:
                    mask |= 1 << bit
            self._knowledge_mask = mask
            self._mask_synced = len(self.known)
        return self._knowledge_mask

    # ------------------------------------------------------------------
    # small shared helpers
    # ------------------------------------------------------------------
    def _learn_token(self, token: Token) -> bool:
        """Record a token; return True if it was new to this node."""
        if token.token_id in self.known:
            return False
        if self._token_index is not None and self._mask_synced == len(self.known):
            bit = self._token_index.get(token.token_id)
            if bit is not None:
                self._knowledge_mask |= 1 << bit
            self._mask_synced += 1
        self.known[token.token_id] = token
        return True

    def _learn_message(self, message: TokenForwardMessage) -> None:
        """Record every token a forwarding message carries.

        O(1) when the message brings nothing new: with the mask in sync, a
        message whose token mask lies inside the knowledge mask is skipped.
        Otherwise (tracking off or out of sync, a token missing from the
        index, or a new token) every token goes through :meth:`_learn_token`,
        so subclass overrides still fire.
        """
        index = self._token_index
        if index is not None and self._mask_synced == len(self.known):
            carried = message.token_mask(index)
            if carried is not None and not carried & ~self._knowledge_mask:
                return
        for token in message.tokens:
            self._learn_token(token)

    def _learn_messages(self, messages: Sequence[Message]) -> None:
        """Record every token the inbox's forwarding messages carry.

        With the mask in sync, the OR of the messages' token masks is tested
        once against the knowledge mask, and an inbox inside it returns
        there.  Otherwise (tracking off or out of sync, a token missing from
        the index, or something new) each forwarding message goes through
        :meth:`_learn_message` in inbox order, exactly as a per-message loop
        would.  Other message types are skipped.
        """
        index = self._token_index
        if index is not None and self._mask_synced == len(self.known):
            union = 0
            for message in messages:
                if isinstance(message, TokenForwardMessage):
                    carried = message.token_mask(index)
                    if carried is None:
                        break
                    union |= carried
            else:
                if not union & ~self._knowledge_mask:
                    return
        for message in messages:
            if isinstance(message, TokenForwardMessage):
                self._learn_message(message)


#: A protocol factory builds one node instance given (uid, config, rng).
ProtocolFactory = Callable[[int, ProtocolConfig, np.random.Generator], ProtocolNode]
