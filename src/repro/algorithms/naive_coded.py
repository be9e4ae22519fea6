"""The naive coded dissemination algorithm (Corollary 7.1).

Each iteration has two phases:

1. **ID flood** (``n`` rounds): every node floods the smallest
   ``Theta(b / log n)`` identifiers of tokens it knows that have not been
   disseminated yet.  After ``n`` rounds all nodes know the globally smallest
   such identifiers and sort them to obtain a consistent index assignment.
2. **Coded broadcast** (``n + m`` rounds): the selected tokens are
   disseminated with network-coded indexed broadcast; all nodes then mark
   them delivered.

The flood is this protocol's indexing rule: the sorted window of smallest
identifiers puts one token in each coded dimension.  The coded window itself
is the shared :class:`~repro.algorithms.blocks.BlockBroadcast`, with one
token per block.

Corollary 7.1: this takes ``O(nk log n / b)`` rounds — only a ``log n / d``
factor better than token forwarding, which is the motivation for the
gathering-based algorithms (greedy-forward / priority-forward) that follow
it in the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..tokens.message import ControlMessage, Message
from ..tokens.token import TokenId
from .base import ProtocolConfig, ProtocolNode
from .blocks import BlockBroadcast

__all__ = ["NaiveCodedNode"]


class NaiveCodedNode(ProtocolNode):
    """Flood-the-smallest-IDs indexing + coded indexed broadcast."""

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        n = config.n
        # How many token ids fit in one flooding message (Theta(b / log n)).
        per_id_bits = 2 * config.id_bits + 8
        self.ids_per_message = max(1, config.b // per_id_bits)
        self.flood_rounds = config.extra_int("flood_rounds", n)
        # O(n + #selected) with the q = 2 constant of ~2, plus slack.
        self.broadcast_rounds = config.extra_int(
            "broadcast_rounds", 2 * n + 2 * self.ids_per_message + 16
        )
        self.iteration_length = self.flood_rounds + self.broadcast_rounds

        self.delivered: set[TokenId] = set()
        self._candidate_ids: set[TokenId] = set()
        self._selected: list[TokenId] = []
        self.broadcast = BlockBroadcast(self, tokens_per_block=1, delivered=self.delivered)

    # ------------------------------------------------------------------
    def _phase(self, round_index: int) -> tuple[str, int, int]:
        iteration = round_index // self.iteration_length
        offset = round_index % self.iteration_length
        if offset < self.flood_rounds:
            return "flood", offset, iteration
        return "broadcast", offset - self.flood_rounds, iteration

    def _undelivered_ids(self) -> list[TokenId]:
        return sorted(tid for tid in self.known if tid not in self.delivered)

    def _flood_candidates(self) -> list[TokenId]:
        pending = sorted(set(self._undelivered_ids()) | self._candidate_ids - self.delivered)
        return pending[: self.ids_per_message]

    # ------------------------------------------------------------------
    def compose(self, round_index: int) -> Message | None:
        phase, offset, iteration = self._phase(round_index)
        if phase == "flood":
            if offset == 0:
                self._candidate_ids = set(self._undelivered_ids()[: self.ids_per_message])
                self._selected = []
            candidates = self._flood_candidates()
            if not candidates:
                return None
            return ControlMessage(sender=self.uid, fields={"ids": tuple(candidates)})
        # broadcast phase
        if offset == 0:
            self._start_broadcast(iteration)
        return self.broadcast.compose()

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        phase, offset, _iteration = self._phase(round_index)
        if phase == "flood":
            for message in messages:
                if isinstance(message, ControlMessage):
                    ids = message.fields.get("ids", ())
                    for tid in ids:  # type: ignore[union-attr]
                        if isinstance(tid, TokenId) and tid not in self.delivered:
                            self._candidate_ids.add(tid)
            # Keep only the smallest window so the flood converges on the
            # globally smallest identifiers.
            self._candidate_ids = set(sorted(self._candidate_ids)[: self.ids_per_message])
            return
        self.broadcast.receive(messages)
        if offset == self.broadcast_rounds - 1:
            self._finish_broadcast()

    # ------------------------------------------------------------------
    def _start_broadcast(self, iteration: int) -> None:
        self._selected = sorted(self._candidate_ids)[: self.ids_per_message]
        self.broadcast.begin(
            iteration + 1,
            [[self.known[tid]] if tid in self.known else [] for tid in self._selected],
        )

    def _finish_broadcast(self) -> None:
        self.broadcast.finish()
        for tid in self._selected:
            # Only mark a selected token delivered if we actually hold it now;
            # otherwise its identifier keeps being flooded until it arrives.
            if tid in self.known:
                self.delivered.add(tid)
        self._candidate_ids = set()
        self._selected = []

    def coded_rank(self) -> int:
        return self.broadcast.rank
