"""The greedy-forward algorithm (Section 7, Theorem 7.3).

Each iteration of the outer loop has three synchronised phases whose lengths
are fixed functions of the shared parameters (so all nodes agree on phase
boundaries without communication):

1. **gather** (``Theta(n)`` rounds): the random-forward primitive — every
   node broadcasts ``b/d`` random tokens it knows that are still "in
   consideration" (Lemma 7.2);
2. **elect** (``Theta(n)`` rounds): flood the maximum (token count, UID)
   pair to identify a node that gathered the most tokens;
3. **broadcast** (``Theta(n + #blocks)`` rounds): the identified leader
   groups up to ``~b^2/d`` of its tokens into blocks of ``~b/2d`` tokens and
   disseminates them with network-coded indexed broadcast; every node that
   decodes removes those tokens from consideration.

The loop repeats until an election reports that no tokens remain.  Theorem
7.3: the whole process takes ``O(nkd/b^2 + nb)`` rounds w.h.p. — a factor
``~b`` faster than the token-forwarding lower bound.

The election is this protocol's indexing rule: only the leader holds the
blocks, so its sorted token order fixes every dimension.  Gathering is the
shared :class:`~repro.algorithms.random_forward.GatherState` and the coded
window the shared :class:`~repro.algorithms.blocks.BlockBroadcast`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..tokens.message import Message
from ..tokens.token import TokenId
from .base import ProtocolConfig, ProtocolNode
from .blocks import BlockBroadcast, block_layout
from .random_forward import GatherState

__all__ = ["GreedyForwardNode"]


class GreedyForwardNode(ProtocolNode):
    """One node of the greedy-forward protocol.

    Tuning knobs (``config.extra``):

    * ``gather_rounds`` — length of the random-forward window (default ``n``).
    * ``elect_rounds`` — length of the leader-election flood (default ``n``).
    * ``broadcast_rounds`` — length of the coded broadcast window
      (default ``2 (n + min(b, n)) + 16``).
    """

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        n = config.n
        self.gather_rounds = config.extra_int("gather_rounds", n)
        self.elect_rounds = config.extra_int("elect_rounds", n)
        # The coded broadcast of up to ~b/2 blocks needs O(n + #blocks)
        # rounds; with q = 2 the hidden constant is ~2 (each crossing
        # succeeds with probability 1/2), so the default window is
        # 2(n + #blocks) plus slack.
        self.broadcast_rounds = config.extra_int(
            "broadcast_rounds", 2 * n + 2 * min(config.b, n) + 16
        )
        self.iteration_length = (
            self.gather_rounds + self.elect_rounds + self.broadcast_rounds
        )

        self.tokens_per_block, self.max_blocks = block_layout(config)

        #: Tokens already disseminated by a completed coded broadcast.
        self.delivered: set[TokenId] = set()
        self._gather: GatherState | None = None
        self._leader_uid: int | None = None
        self._leader_count: int = 0
        self.broadcast = BlockBroadcast(self, self.tokens_per_block, self.delivered)
        self._broadcast_token_ids: list[TokenId] = []
        self._exhausted = False

    # ------------------------------------------------------------------
    # phase bookkeeping
    # ------------------------------------------------------------------
    def _phase(self, round_index: int) -> tuple[str, int, int]:
        """Return (phase name, round within phase, iteration index)."""
        iteration = round_index // self.iteration_length
        offset = round_index % self.iteration_length
        if offset < self.gather_rounds + self.elect_rounds:
            return "gather", offset, iteration
        return "broadcast", offset - self.gather_rounds - self.elect_rounds, iteration

    def _eligible_ids(self) -> set[TokenId]:
        return {tid for tid in self.known if tid not in self.delivered}

    def _ensure_gather(self) -> GatherState:
        if self._gather is None:
            self._gather = GatherState(
                owner=self,
                forward_rounds=self.gather_rounds,
                flood_rounds=self.elect_rounds,
                excluded=self.delivered,
            )
        return self._gather

    # ------------------------------------------------------------------
    # broadcast phase helpers
    # ------------------------------------------------------------------
    def _start_broadcast(self, iteration: int) -> None:
        gather = self._ensure_gather()
        self._leader_uid = gather.elected_leader()
        self._leader_count = gather.elected_count()
        self._gather = None
        self._broadcast_token_ids = []
        if self._leader_count <= 0:
            self._exhausted = True
            return
        if self._leader_uid != self.uid:
            return
        # We are the leader: group our eligible tokens into blocks and seed a
        # fresh coding generation for this iteration.
        eligible = sorted(self._eligible_ids())
        chosen = eligible[: self.max_blocks * self.tokens_per_block]
        self.broadcast.begin(
            iteration + 1,
            [
                [self.known[tid] for tid in chosen[i : i + self.tokens_per_block]]
                for i in range(0, len(chosen), self.tokens_per_block)
            ],
        )
        self._broadcast_token_ids = chosen

    def _finish_broadcast(self) -> None:
        self.broadcast.finish()
        # Leaders mark their broadcast tokens delivered even if (improbably)
        # some other node failed to decode; re-gathering would pick strays up.
        for tid in self._broadcast_token_ids:
            self.delivered.add(tid)
        self._broadcast_token_ids = []

    # ------------------------------------------------------------------
    # protocol interface
    # ------------------------------------------------------------------
    def compose(self, round_index: int) -> Message | None:
        if self._exhausted:
            return None
        phase, offset, iteration = self._phase(round_index)
        if phase == "gather":
            if offset == 0:
                self._gather = None  # fresh gather state per iteration
            return self._ensure_gather().compose(offset)
        # broadcast phase
        if offset == 0:
            self._start_broadcast(iteration)
        return self.broadcast.compose()

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        if self._exhausted:
            return
        phase, offset, _iteration = self._phase(round_index)
        if phase == "gather":
            self._ensure_gather().deliver(offset, messages)
            return
        self.broadcast.receive(messages)
        # Stragglers from neighbours still in their gather window.
        self._learn_messages(messages)
        if offset == self.broadcast_rounds - 1:
            self._finish_broadcast()

    def coded_rank(self) -> int:
        return self.broadcast.rank

    def finished(self) -> bool:
        return self._exhausted
