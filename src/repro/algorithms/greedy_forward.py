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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..coding.rlnc import Generation, GenerationState
from ..gf import field_bits
from ..tokens.message import CodedMessage, ControlMessage, Message, TokenForwardMessage
from ..tokens.token import TokenId
from .base import ProtocolConfig, ProtocolNode
from .blocks import block_bits, decode_block, encode_block, max_tokens_per_block
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

        # Block structure: split the budget roughly in half between payload
        # (one block of ~b/2d tokens) and coefficient header (~b/2 blocks).
        # Capacity planning uses the nominal b; the slack constant of the
        # budget only absorbs the O(b) bookkeeping overhead.
        limit = config.b
        self.tokens_per_block = max_tokens_per_block(config, limit // 2)
        self.block_payload_bits = block_bits(config, self.tokens_per_block)
        symbol_bits = field_bits(config.field_order)
        header_budget = max(symbol_bits, limit - self.block_payload_bits - 32)
        self.max_blocks = max(1, header_budget // symbol_bits)

        #: Tokens already disseminated by a completed coded broadcast.
        self.delivered: set[TokenId] = set()
        self._gather: GatherState | None = None
        self._leader_uid: int | None = None
        self._leader_count: int = 0
        self._generation_state: GenerationState | None = None
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
        self._generation_state = None
        self._broadcast_token_ids = []
        if self._leader_count <= 0:
            self._exhausted = True
            return
        if self._leader_uid != self.uid:
            return
        # We are the leader: group our eligible tokens into blocks and seed a
        # fresh coding generation for this iteration.
        eligible = sorted(self._eligible_ids())
        capacity = self.max_blocks * self.tokens_per_block
        chosen = eligible[:capacity]
        if not chosen:
            return
        blocks = [
            chosen[i : i + self.tokens_per_block]
            for i in range(0, len(chosen), self.tokens_per_block)
        ]
        generation = Generation(
            k=len(blocks),
            payload_bits=self.block_payload_bits,
            field_order=self.config.field_order,
            generation_id=iteration + 1,
        )
        state = generation.new_state()
        for index, block_ids in enumerate(blocks):
            payload = encode_block(
                self.config,
                [self.known[tid] for tid in block_ids],
                self.tokens_per_block,
            )
            state.add_source(index, payload)
        self._generation_state = state
        self._broadcast_token_ids = chosen

    def _generation_from_message(self, message: CodedMessage) -> GenerationState:
        """Lazily join the leader's generation based on observed dimensions."""
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

    def _finish_broadcast(self) -> None:
        state = self._generation_state
        if state is not None and state.can_decode():
            payloads = state.decode_payloads()
            if payloads is not None:
                for payload in payloads:
                    for token in decode_block(self.config, payload, self.tokens_per_block):
                        self._learn_token(token)
                        self.delivered.add(token.token_id)
        # Leaders mark their broadcast tokens delivered even if (improbably)
        # some other node failed to decode; re-gathering would pick strays up.
        for tid in self._broadcast_token_ids:
            self.delivered.add(tid)
        self._generation_state = None
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
        if self._exhausted or self._generation_state is None:
            return None
        return self._generation_state.compose(self.uid, self.rng)

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        if self._exhausted:
            return
        phase, offset, _iteration = self._phase(round_index)
        if phase == "gather":
            self._ensure_gather().deliver(offset, messages)
            return
        for message in messages:
            if isinstance(message, CodedMessage):
                state = self._generation_from_message(message)
                if message.num_coefficients == state.generation.k:
                    state.receive(message)
            elif isinstance(message, (TokenForwardMessage, ControlMessage)):
                # Stragglers from a neighbour still in its gather window.
                if isinstance(message, TokenForwardMessage):
                    for token in message.tokens:
                        self._learn_token(token)
        if offset == self.broadcast_rounds - 1:
            self._finish_broadcast()

    def coded_rank(self) -> int:
        return self._generation_state.rank if self._generation_state else 0

    def finished(self) -> bool:
        return self._exhausted
