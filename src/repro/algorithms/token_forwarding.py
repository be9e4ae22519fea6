"""Knowledge-based token-forwarding baselines (Theorem 2.1 / Kuhn et al.).

Two variants are provided:

* :class:`TokenForwardingNode` — the phase-based flooding algorithm of Kuhn
  et al., generalised to ``b >= d`` as described after Theorem 2.1: in each
  phase of ``n`` rounds all nodes flood the ``b/d`` smallest not-yet-delivered
  tokens they know; at the end of the phase those tokens are (consistently)
  marked delivered.  This solves k-token dissemination in ``O(nkd/b + n)``
  rounds against any adversary, which is tight for knowledge-based token
  forwarding.

* :class:`PipelinedTokenForwardingNode` — a pipelined variant for more
  stable networks: within each stable block of ``T`` rounds a node never
  repeats a token it has already broadcast during the block, so on a static
  (or T-stable) topology tokens flow in a pipeline instead of one batch per
  ``n``-round phase.  This captures the factor-``T`` (but, per the KLO lower
  bound, no more) speedup available to token forwarding.

Both are *knowledge-based*: the broadcast depends only on the set of tokens
the node currently knows (plus the round number and the shared parameters).
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from ..tokens.message import Message, TokenForwardMessage
from ..tokens.token import Token, TokenId
from .base import ProtocolConfig, ProtocolNode

__all__ = [
    "TokenForwardingNode",
    "PipelinedTokenForwardingNode",
    "tokens_per_message",
]


def _token_sort_key(token: Token) -> TokenId:
    return token.token_id


#: Sentinel distinguishing "no cached compose yet" from a cached ``None``
#: (a node with nothing pending legitimately broadcasts nothing).
_STALE = object()


def tokens_per_message(config: ProtocolConfig) -> int:
    """How many (id, payload) token copies fit into one ``b``-bit message.

    The paper charges a token ``d`` bits and treats its identifier as free
    metadata of size ``O(log n) <= b``; we account the identifier explicitly,
    which only changes constants.
    """
    per_token_bits = config.token_bits + 2 * config.id_bits
    return max(1, config.budget.b // per_token_bits)


class TokenForwardingNode(ProtocolNode):
    """Phase-based flooding token forwarding (the KLO baseline).

    The pending (known, not yet delivered) tokens are kept in an
    incrementally-maintained sorted list — one ``bisect.insort`` per newly
    learned token — instead of being re-sorted from the ``known`` dict on
    every ``compose``, which was the protocol's dominant per-round cost.
    Delivered tokens are compacted out at each phase boundary (they are
    never broadcast again), keeping the per-round prefix scan short.

    Tuning knobs (``config.extra``):

    * ``phase_length`` — rounds per flooding phase (default ``n``).
    """

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        self.delivered: set[TokenId] = set()
        self.phase_length = config.extra_int("phase_length", config.n)
        self.batch = tokens_per_message(config)
        #: Known tokens sorted by id, possibly still containing a few
        #: delivered stragglers between phase-boundary compactions.
        self._sorted_known: list[Token] = []
        #: Memoised compose() result; invalidated whenever pending changes.
        self._compose_cache: Message | None | object = _STALE

    def setup(self, initial_tokens: Sequence[Token]) -> None:
        super().setup(initial_tokens)
        self._sorted_known = sorted(self.known.values(), key=_token_sort_key)
        self._compose_cache = _STALE

    # ------------------------------------------------------------------
    def _undelivered_prefix(self, limit: int) -> list[Token]:
        """The up-to-``limit`` smallest known-but-undelivered tokens."""
        out: list[Token] = []
        delivered = self.delivered
        for token in self._sorted_known:
            if token.token_id not in delivered:
                out.append(token)
                if len(out) == limit:
                    break
        return out

    def _invalidate_compose_cache(self) -> None:
        """Drop the memoised compose() result (state restored out-of-band)."""
        self._compose_cache = _STALE

    def compose(self, round_index: int) -> Message | None:
        # The broadcast depends only on the pending set, which changes far
        # less often than once per round; reuse the (immutable) message until
        # a learn or a phase commit invalidates it.
        if self._compose_cache is not _STALE:
            return self._compose_cache  # type: ignore[return-value]
        pending = self._undelivered_prefix(self.batch)
        message = (
            TokenForwardMessage(sender=self.uid, tokens=tuple(pending))
            if pending
            else None
        )
        self._compose_cache = message
        return message

    def _learn_token(self, token: Token) -> bool:
        if super()._learn_token(token):
            bisect.insort(self._sorted_known, token, key=_token_sort_key)
            self._compose_cache = _STALE
            return True
        return False

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        self._learn_messages(messages)
        # At a phase boundary, commit the smallest pending tokens as delivered.
        # All nodes see the same global minimum set after a full flooding
        # phase, so the delivered sets stay consistent across nodes.
        if (round_index + 1) % self.phase_length == 0:
            for token in self._undelivered_prefix(self.batch):
                self.delivered.add(token.token_id)
            self._sorted_known = [
                t for t in self._sorted_known if t.token_id not in self.delivered
            ]
            self._compose_cache = _STALE


class PipelinedTokenForwardingNode(ProtocolNode):
    """Pipelined (round-robin sweep) flooding that benefits from stability.

    Every round a node broadcasts the smallest tokens it knows that it has
    not yet broadcast in the current *sweep*; once everything it knows has
    been sent, a new sweep starts.  On a static topology this is the classic
    pipelined flood finishing in ``O(n + kd/b)`` rounds; on a T-stable
    topology neighbours stay fixed long enough for a sweep to hand over many
    distinct tokens per neighbour, which is where the factor-``T`` advantage
    of stable networks for token forwarding comes from (Theorem 2.1).

    The "fewest sends first, then smallest id" candidate order is kept in
    incrementally-maintained buckets (send count -> id-sorted token list)
    instead of re-sorting every known token each round: compose pops the
    prefix of the lowest buckets (O(batch) plus the shifted list tails) and
    a newly learned token is one ``bisect.insort`` into bucket zero —
    mirroring :class:`TokenForwardingNode`'s sorted-pending list.
    """

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        self.batch = tokens_per_message(config)
        #: How many times each known token has been broadcast by this node.
        self._send_counts: dict[TokenId, int] = {}
        #: send count -> known tokens with that count, sorted by id.
        self._buckets: dict[int, list[Token]] = {}

    def setup(self, initial_tokens: Sequence[Token]) -> None:
        super().setup(initial_tokens)
        if self.known:
            self._buckets = {0: sorted(self.known.values(), key=_token_sort_key)}

    def compose(self, round_index: int) -> Message | None:
        if not self.known:
            return None
        # Forward never-sent tokens first (classic pipelining); once every
        # known token has been sent at least once, keep cycling so nodes that
        # meet us later in a dynamic network still receive everything.  The
        # chosen tokens are the prefix of the buckets in ascending (count,
        # id) order — exactly sorted(known, key=(count, id))[:batch].
        chosen: list[Token] = []
        moved: list[tuple[int, list[Token]]] = []
        for count in sorted(self._buckets):
            bucket = self._buckets[count]
            take = self.batch - len(chosen)
            if take <= 0:
                break
            taken = bucket[:take]
            del bucket[:take]
            if not bucket:
                del self._buckets[count]
            chosen.extend(taken)
            moved.append((count + 1, taken))
        # Re-file after the scan so a token sent this round cannot be taken
        # again from the next bucket within the same compose.
        for target, taken in moved:
            destination = self._buckets.setdefault(target, [])
            for token in taken:
                self._send_counts[token.token_id] = target
                bisect.insort(destination, token, key=_token_sort_key)
        return TokenForwardMessage(sender=self.uid, tokens=tuple(chosen))

    def _learn_token(self, token: Token) -> bool:
        if super()._learn_token(token):
            bisect.insort(
                self._buckets.setdefault(0, []), token, key=_token_sort_key
            )
            return True
        return False

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        self._learn_messages(messages)
