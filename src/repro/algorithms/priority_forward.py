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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..coding.rlnc import Generation, GenerationState
from ..gf import field_bits
from ..tokens.message import CodedMessage, ControlMessage, Message, TokenForwardMessage
from ..tokens.token import TokenId
from .base import ProtocolConfig, ProtocolNode
from .blocks import block_bits, decode_block, encode_block, max_tokens_per_block
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
        self.tokens_per_block = max_tokens_per_block(config, limit // 2)
        self.block_payload_bits = block_bits(config, self.tokens_per_block)
        symbol_bits = field_bits(config.field_order)
        header_budget = max(symbol_bits, limit - self.block_payload_bits - 32)
        blocks_by_header = max(1, header_budget // symbol_bits)

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
        self._generation_state: GenerationState | None = None

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

    def _start_broadcast(self, iteration: int) -> None:
        self._selected = sorted(self._candidates)[: self.select_count]
        self._generation_state = None
        if not self._selected:
            return
        generation = Generation(
            k=len(self._selected),
            payload_bits=self.block_payload_bits,
            field_order=self.config.field_order,
            generation_id=iteration + 1,
        )
        state = generation.new_state()
        for index, descriptor in enumerate(self._selected):
            key = (descriptor.holder, descriptor.sequence)
            if descriptor.holder == self.uid and key in self._my_blocks:
                block_ids = [tid for tid in self._my_blocks[key] if tid in self.known]
                if block_ids:
                    payload = encode_block(
                        self.config,
                        [self.known[tid] for tid in block_ids[: self.tokens_per_block]],
                        self.tokens_per_block,
                    )
                    state.add_source(index, payload)
        self._generation_state = state

    def _finish_broadcast(self) -> None:
        state = self._generation_state
        if state is not None and state.can_decode():
            payloads = state.decode_payloads()
            if payloads is not None:
                for payload in payloads:
                    for token in decode_block(self.config, payload, self.tokens_per_block):
                        self._learn_token(token)
                        self.delivered.add(token.token_id)
        # Our own selected blocks leave consideration regardless; their tokens
        # are known to us already.
        for descriptor in self._selected:
            key = (descriptor.holder, descriptor.sequence)
            if descriptor.holder == self.uid and key in self._my_blocks:
                for tid in self._my_blocks[key]:
                    self.delivered.add(tid)
        self._generation_state = None
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
            if len(eligible) <= self.forward_batch:
                chosen_ids = eligible
            else:
                indices = self.rng.choice(
                    len(eligible), size=self.forward_batch, replace=False
                )
                chosen_ids = [eligible[int(i)] for i in indices]
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
        if self._generation_state is None:
            return None
        return self._generation_state.compose(self.uid, self.rng)

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        phase, offset, _iteration = self._phase(round_index)
        if phase == "spread":
            for message in messages:
                if isinstance(message, TokenForwardMessage):
                    self._learn_message(message)
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
        for message in messages:
            if isinstance(message, CodedMessage):
                state = self._generation_from_message(message)
                if state is not None and message.num_coefficients == state.generation.k:
                    state.receive(message)
        if offset == self.broadcast_rounds - 1:
            self._finish_broadcast()

    def _generation_from_message(self, message: CodedMessage) -> GenerationState | None:
        if self._generation_state is None:
            symbol_bits = field_bits(message.field_order)
            generation = Generation(
                k=message.num_coefficients,
                payload_bits=message.num_payload_symbols * symbol_bits,
                field_order=message.field_order,
                generation_id=message.generation,
            )
            self._generation_state = generation.new_state()
        return self._generation_state

    def coded_rank(self) -> int:
        return self._generation_state.rank if self._generation_state else 0
