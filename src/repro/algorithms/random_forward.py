"""The random-forward gathering primitive (Lemma 7.2) and its standalone protocol.

``random-forward``: for ``O(n)`` rounds every node broadcasts ``b/d`` tokens
chosen uniformly at random from those it knows; afterwards the node with the
maximum token count is identified by ``O(n)`` rounds of flooding.  Lemma 7.2
shows the identified node then knows either all remaining tokens or at least
``sqrt(bk/d)`` of them with high probability.

Two pieces live here:

* :class:`RandomForwardNode` — the primitive run forever, used as an
  *uncoordinated* dissemination baseline (it alone already matches the
  token-forwarding bound ``O(nkd/b)`` in expectation, with most broadcasts
  wasted towards the end, exactly the effect Section 5.2 describes);
* :class:`GatherState` — the reusable phase logic (random forwarding +
  max-count leader election) that ``greedy-forward`` and
  ``priority-forward`` embed as their gathering step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..tokens.message import ControlMessage, Message, TokenForwardMessage
from ..tokens.token import Token, TokenId
from .base import ProtocolConfig, ProtocolNode
from .token_forwarding import tokens_per_message

__all__ = ["RandomForwardNode", "GatherState", "LeaderInfo", "random_batch"]


def random_batch(rng: np.random.Generator, items: list, batch: int) -> list:
    """``batch`` distinct items drawn uniformly at random; all of them if there are no more.

    The one ``b/d`` draw of Lemma 7.2's random forwarding: a single
    ``rng.choice`` without replacement, so every caller consumes the
    node's stream identically.
    """
    if len(items) <= batch:
        return items
    # repro: allow[REP304] the one b/d random draw of Lemma 7.2 that every forwarding phase calls
    indices = rng.choice(len(items), size=batch, replace=False)
    return [items[int(i)] for i in indices]


class RandomForwardNode(ProtocolNode):
    """Forward ``b/d`` uniformly random known tokens every round, forever."""

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        self.batch = tokens_per_message(config)

    def compose(self, round_index: int) -> Message | None:
        if not self.known:
            return None
        chosen = random_batch(self.rng, list(self.known.values()), self.batch)
        return TokenForwardMessage(sender=self.uid, tokens=tuple(chosen))

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        self._learn_messages(messages)


@dataclass
class LeaderInfo:
    """Current best (count, uid) pair seen during max-count flooding."""

    count: int = -1
    uid: int = -1

    def update(self, count: int, uid: int) -> None:
        """Keep the lexicographically largest (count, -uid) — max count, min uid tie-break."""
        if count > self.count or (count == self.count and (self.uid < 0 or uid < self.uid)):
            self.count = count
            self.uid = uid

    def as_fields(self) -> dict:
        return {"count": max(0, self.count), "leader": max(0, self.uid)}


class GatherState:
    """The embeddable gather phase: random-forward then leader identification.

    The embedding protocol drives it with :meth:`compose` / :meth:`deliver`
    during its gather window and reads off :attr:`leader` afterwards.  The
    phase has two sub-windows of configurable length (both ``Theta(n)``):
    ``forward_rounds`` of random forwarding, then ``flood_rounds`` of flooding
    the best ``(token count, uid)`` pair seen so far.
    """

    def __init__(
        self,
        owner: ProtocolNode,
        forward_rounds: int,
        flood_rounds: int,
        excluded: set[TokenId] | None = None,
    ):
        self.owner = owner
        self.config = owner.config
        self.forward_rounds = max(1, forward_rounds)
        self.flood_rounds = max(1, flood_rounds)
        self.batch = tokens_per_message(owner.config)
        self.leader = LeaderInfo()
        #: Token ids no longer "in consideration" (already disseminated); the
        #: set is held by reference so the embedding protocol can keep it live.
        self.excluded = excluded if excluded is not None else set()
        self._local_counted = False

    # ------------------------------------------------------------------
    @property
    def total_rounds(self) -> int:
        """Length of the whole gather phase in rounds."""
        return self.forward_rounds + self.flood_rounds

    def _eligible_tokens(self) -> list[Token]:
        return [
            token
            for tid, token in self.owner.known.items()
            if tid not in self.excluded
        ]

    def _ensure_local_count(self) -> None:
        if not self._local_counted:
            self.leader.update(len(self._eligible_tokens()), self.owner.uid)
            self._local_counted = True

    # ------------------------------------------------------------------
    def compose(self, phase_round: int) -> Message | None:
        """Message for round ``phase_round`` (0-based within the gather phase)."""
        if phase_round < self.forward_rounds:
            tokens = self._eligible_tokens()
            if not tokens:
                return None
            chosen = random_batch(self.owner.rng, tokens, self.batch)
            return TokenForwardMessage(sender=self.owner.uid, tokens=tuple(chosen))
        # Leader-election flooding window.
        self._ensure_local_count()
        return ControlMessage(sender=self.owner.uid, fields=self.leader.as_fields())

    def deliver(self, phase_round: int, messages: Sequence[Message]) -> None:
        """Process the round's inbound messages."""
        for message in messages:
            if isinstance(message, TokenForwardMessage):
                self.owner._learn_message(message)
            elif isinstance(message, ControlMessage):
                count = int(message.fields.get("count", 0))  # type: ignore[arg-type]
                leader = int(message.fields.get("leader", 0))  # type: ignore[arg-type]
                self._ensure_local_count()
                self.leader.update(count, leader)
        if phase_round == self.forward_rounds - 1:
            # Random forwarding just ended: seed the flood with our own count.
            self._ensure_local_count()

    # ------------------------------------------------------------------
    def elected_leader(self) -> int:
        """UID of the node identified as holding the maximum token count."""
        self._ensure_local_count()
        return self.leader.uid

    def elected_count(self) -> int:
        """The maximum token count that was flooded."""
        self._ensure_local_count()
        return max(0, self.leader.count)
