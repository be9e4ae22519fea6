"""The priority-forward algorithm (Section 7, Lemma 7.4 / Theorem 7.5).

greedy-forward works well for small ``b`` but for very large message sizes
the random-forward primitive cannot gather ``b^2/d`` tokens at one node.
priority-forward avoids the single-gatherer bottleneck: nodes group the
tokens they know into blocks of ``~b/d`` tokens, give every block a random
``O(log n)``-bit priority, agree on the ``Theta(b)`` smallest priorities by
flooding, and broadcast the corresponding blocks with network-coded indexed
broadcast; broadcast tokens leave consideration and the loop repeats.
Lemma 7.4 shows ``O((1 + kd/b^2) log n)`` iterations suffice.

Implementation notes (where this deviates from the paper's pseudo-code):

* We implement the variant the paper describes *before* its final
  log-factor optimisation: the ``Theta(b)`` smallest block priorities are
  indexed by naive flooding rather than by the recursive call marked ``(*)``
  in the pseudo-code.  This gives the ``O(log^2 n / b^2 * nkd + n log^2 n)``
  bound the paper states explicitly as the fallback; the extra ``log n``
  does not change who wins any comparison we benchmark.
* Each iteration is preceded by a short random-forward window so every token
  is replicated onto ``Omega(n/b)`` nodes, which is the precondition
  Lemma 7.4's analysis starts from (the paper obtains it from the
  greedy-forward prefix).

The priority flood is this protocol's indexing rule: the sorted window of
smallest block descriptors fixes every dimension, and each block's holder
injects it.  The spread draw is the shared
:func:`~repro.algorithms.random_forward.random_batch` and the coded window
the shared :class:`~repro.algorithms.blocks.BlockBroadcast`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..tokens.message import ControlMessage, Message, TokenForwardMessage
from ..tokens.token import TokenId
from .base import ProtocolConfig, ProtocolNode
from .blocks import BlockBroadcast, block_layout
from .random_forward import random_batch
from .token_forwarding import tokens_per_message

__all__ = ["PriorityForwardNode", "BlockDescriptor"]


@dataclass(frozen=True, order=True)
class BlockDescriptor:
    """A block's identity during the priority flood: (priority, holder, seq)."""

    priority: int
    holder: int
    sequence: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.priority, self.holder, self.sequence)


class PriorityForwardNode(ProtocolNode):
    """One node of the priority-forward protocol."""

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        n = config.n
        # Capacity planning uses the nominal b; the budget slack only absorbs
        # constant-factor bookkeeping overhead.
        limit = config.b

        self.spread_rounds = config.extra_int("spread_rounds", n)
        self.flood_rounds = config.extra_int("flood_rounds", n)

        # Block structure: ~b/d tokens per block (half the budget for payload).
        self.tokens_per_block, blocks_by_header = block_layout(config)

        # How many block descriptors fit into one flooding message; the number
        # of blocks selected per iteration is capped by it so the smallest
        # priorities actually flood everywhere within the window.
        descriptor_bits = 3 * config.id_bits + 16
        self.descriptors_per_message = max(1, limit // descriptor_bits)
        self.select_count = max(1, min(blocks_by_header, self.descriptors_per_message))

        # O(n + #blocks) with the q = 2 constant of ~2, plus slack.
        self.broadcast_rounds = config.extra_int(
            "broadcast_rounds", 2 * n + 2 * self.select_count + 16
        )
        self.iteration_length = (
            self.spread_rounds + self.flood_rounds + self.broadcast_rounds
        )
        self.forward_batch = tokens_per_message(config)
        self.priority_bits = 2 * config.log_n + 4

        self.delivered: set[TokenId] = set()
        self._my_blocks: dict[tuple[int, int], list[TokenId]] = {}
        self._candidates: set[BlockDescriptor] = set()
        self._selected: list[BlockDescriptor] = []
        self.broadcast = BlockBroadcast(self, self.tokens_per_block, self.delivered)

    # ------------------------------------------------------------------
    def _phase(self, round_index: int) -> tuple[str, int, int]:
        iteration = round_index // self.iteration_length
        offset = round_index % self.iteration_length
        if offset < self.spread_rounds:
            return "spread", offset, iteration
        offset -= self.spread_rounds
        if offset < self.flood_rounds:
            return "flood", offset, iteration
        return "broadcast", offset - self.flood_rounds, iteration

    def _eligible_tokens(self) -> list[TokenId]:
        return sorted(tid for tid in self.known if tid not in self.delivered)

    # ------------------------------------------------------------------
    # phase transitions
    # ------------------------------------------------------------------
    def _form_blocks(self) -> None:
        """Group eligible tokens into blocks and draw their random priorities."""
        self._my_blocks = {}
        self._candidates = set()
        eligible = self._eligible_tokens()
        for seq, start in enumerate(range(0, len(eligible), self.tokens_per_block)):
            block_ids = eligible[start : start + self.tokens_per_block]
            priority = int(self.rng.integers(0, 1 << self.priority_bits))
            descriptor = BlockDescriptor(priority=priority, holder=self.uid, sequence=seq)
            self._my_blocks[(self.uid, seq)] = block_ids
            self._candidates.add(descriptor)

    def _own_block(self, descriptor: BlockDescriptor) -> list[TokenId]:
        """The token ids of a block this node formed; empty for anyone else's."""
        return self._my_blocks.get((descriptor.holder, descriptor.sequence), [])

    def _start_broadcast(self, iteration: int) -> None:
        self._selected = sorted(self._candidates)[: self.select_count]
        self.broadcast.begin(
            iteration + 1,
            [
                [self.known[tid] for tid in self._own_block(descriptor) if tid in self.known]
                for descriptor in self._selected
            ],
        )

    def _finish_broadcast(self) -> None:
        self.broadcast.finish()
        # Our own selected blocks leave consideration regardless; their tokens
        # are known to us already.
        for descriptor in self._selected:
            self.delivered.update(self._own_block(descriptor))
        self._selected = []
        self._candidates = set()

    # ------------------------------------------------------------------
    # protocol interface
    # ------------------------------------------------------------------
    def compose(self, round_index: int) -> Message | None:
        phase, offset, iteration = self._phase(round_index)
        if phase == "spread":
            eligible = self._eligible_tokens()
            if not eligible:
                return None
            chosen_ids = random_batch(self.rng, eligible, self.forward_batch)
            return TokenForwardMessage(
                sender=self.uid, tokens=tuple(self.known[tid] for tid in chosen_ids)
            )
        if phase == "flood":
            if offset == 0:
                self._form_blocks()
            smallest = sorted(self._candidates)[: self.descriptors_per_message]
            if not smallest:
                return None
            return ControlMessage(
                sender=self.uid,
                fields={"blocks": tuple(d.as_tuple() for d in smallest)},
            )
        # broadcast phase
        if offset == 0:
            self._start_broadcast(iteration)
        return self.broadcast.compose()

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        phase, offset, _iteration = self._phase(round_index)
        if phase == "spread":
            self._learn_messages(messages)
            return
        if phase == "flood":
            for message in messages:
                if isinstance(message, ControlMessage):
                    for entry in message.fields.get("blocks", ()):  # type: ignore[union-attr]
                        priority, holder, sequence = entry
                        self._candidates.add(
                            BlockDescriptor(
                                priority=int(priority),
                                holder=int(holder),
                                sequence=int(sequence),
                            )
                        )
            # Keep only the current smallest window so the flood converges.
            self._candidates = set(sorted(self._candidates)[: self.select_count])
            return
        self.broadcast.receive(messages)
        if offset == self.broadcast_rounds - 1:
            self._finish_broadcast()

    def coded_rank(self) -> int:
        return self.broadcast.rank
