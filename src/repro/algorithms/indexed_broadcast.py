"""Network-coded k-indexed broadcast (Section 5, Lemma 5.3).

The k-indexed-broadcasting subproblem: ``k`` tokens carrying distinct,
globally-agreed indices ``1..k`` must reach every node.  The algorithm is
random linear network coding in its purest form: every source injects the
augmented vector ``e_i || t_i`` for its token(s), and in every round every
node broadcasts a uniformly random linear combination of everything it has
received.  Lemma 5.3: with field size ``q >= 2`` this completes in
``O(n + k)`` rounds w.h.p. using messages of ``k lg q + d`` bits.

Because this is the standalone subproblem, the index of each initially-held
token is part of the input; it is supplied through ``config.extra``:

* ``index_of`` — a mapping ``TokenId -> index`` (0-based).  If absent, the
  token's origin UID is used as its index, which is exactly the canonical
  ``k = n`` "one token per node" instance.

The block payload of each dimension embeds the token identifier next to the
token bits (see :mod:`repro.algorithms.blocks`), so decoding recovers the
actual tokens, not just anonymous payloads.

Performance: over GF(2) the whole compose → broadcast → deliver → decode
loop is mask-native — every coded vector is one Python integer bit mask (see
:mod:`repro.coding.subspace` and the packed
:class:`~repro.tokens.message.CodedMessage` wire format), which is what
makes n = 64+ sweeps of this benchmark cheap.

The same node class also implements the *deterministic* variant of
Corollary 6.2 when ``config.extra['deterministic_schedule']`` carries a
:class:`~repro.coding.deterministic.DeterministicSchedule`: instead of fresh
randomness, coefficients come from the pre-committed schedule (and the field
must then be the large field of Theorem 6.1 for the guarantee to hold
against an omniscient adversary).

Every single-generation coder is this node with a different ``compose`` or
``deliver``: :class:`~repro.algorithms.deterministic.DeterministicIndexedBroadcastNode`,
the free-header :class:`~repro.algorithms.centralized.CentralizedCodedNode`
and the patch-sharing :class:`~repro.algorithms.tstable.TStablePatchNode`.
Their indexing rule is :func:`~repro.algorithms.blocks.token_dimension`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..coding.deterministic import DeterministicSchedule
from ..coding.rlnc import Generation
from ..tokens.message import CodedMessage, Message
from ..tokens.token import Token
from .base import ProtocolConfig, ProtocolNode
from .blocks import block_bits, decoded_tokens, encode_block, token_dimension

__all__ = ["IndexedBroadcastNode"]


class IndexedBroadcastNode(ProtocolNode):
    """Pure RLNC indexed broadcast (Lemma 5.3 / Corollary 6.2)."""

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        # repro: allow[REP304] the one static single-token generation every single-generation coder inherits
        self.generation = Generation(
            k=max(1, config.k),
            payload_bits=block_bits(config, tokens_per_block=1),
            field_order=config.field_order,
        )
        self.state = self.generation.new_state()
        self._schedule: DeterministicSchedule | None = config.extra.get(  # type: ignore[assignment]
            "deterministic_schedule"
        )
        self._decoded = False
        #: True while the span may have grown since the last decode attempt.
        #: ``can_decode`` can only flip when an insert is innovative, so the
        #: per-round decode check is skipped entirely once the span stops
        #: growing (in particular every delivery round after span completion).
        self._span_dirty = False

    # ------------------------------------------------------------------
    def setup(self, initial_tokens: Sequence[Token]) -> None:
        super().setup(initial_tokens)
        for token in initial_tokens:
            payload = encode_block(self.config, [token], tokens_per_block=1)
            index = token_dimension(self.config, token, self.generation.k)
            if self.state.add_source(index, payload):
                self._span_dirty = True

    # ------------------------------------------------------------------
    def compose(self, round_index: int) -> Message | None:
        if self._schedule is not None:
            coefficients = self._schedule.coefficients(
                self.uid, round_index, self.state.rank
            )
            return self.state.compose_with_coefficients(self.uid, coefficients)
        return self.state.compose(self.uid, self.rng)

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        for message in messages:
            if isinstance(message, CodedMessage) and message.generation == self.generation.generation_id:
                if self.state.receive(message):
                    self._span_dirty = True
        self._try_decode()

    # ------------------------------------------------------------------
    def _try_decode(self) -> None:
        if self._decoded or not self._span_dirty:
            return
        self._span_dirty = False
        tokens = decoded_tokens(self.config, self.state, tokens_per_block=1)
        if tokens is None:
            return
        for token in tokens:
            self._learn_token(token)
        self._decoded = True

    def coded_rank(self) -> int:
        return self.state.rank

    def finished(self) -> bool:
        return self._decoded
