"""Tests for the network-coded dissemination protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    BlockBroadcast,
    CentralizedCodedNode,
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
    PriorityForwardNode,
    TokenForwardingNode,
    block_bits,
    decode_block,
    encode_block,
    max_tokens_per_block,
    token_slot_bits,
)
from repro.algorithms.blocks import block_layout
from repro.analysis import indexed_broadcast_rounds
from repro.coding import Generation
from repro.network import (
    BottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    RandomTreeAdversary,
    StaticAdversary,
    TokenIsolationAdversary,
)
from repro.simulation import run_dissemination, standard_instance
from repro.tokens import (
    MessageBudget,
    Token,
    TokenId,
    make_tokens,
    one_token_per_node,
    place_tokens,
)
from tests.conftest import make_config


class TestBlockPacking:
    def test_roundtrip_single_token(self, rng):
        config = make_config(8)
        tokens = make_tokens(1, 8, rng)
        value = encode_block(config, tokens, tokens_per_block=1)
        assert decode_block(config, value, tokens_per_block=1) == tokens

    def test_roundtrip_multiple_tokens(self, rng):
        config = make_config(16)
        tokens = make_tokens(5, 8, rng)
        value = encode_block(config, tokens, tokens_per_block=8)
        assert decode_block(config, value, tokens_per_block=8) == tokens

    def test_partial_block(self, rng):
        config = make_config(16)
        tokens = make_tokens(2, 8, rng)
        value = encode_block(config, tokens, tokens_per_block=4)
        decoded = decode_block(config, value, tokens_per_block=4)
        assert decoded == tokens

    def test_empty_block(self):
        config = make_config(8)
        assert decode_block(config, encode_block(config, [], 3), 3) == []

    def test_capacity_overflow_raises(self, rng):
        config = make_config(8)
        tokens = make_tokens(3, 8, rng)
        with pytest.raises(ValueError):
            encode_block(config, tokens, tokens_per_block=2)

    def test_count_field_overflows_at_two_to_the_sixteen(self):
        # The count field is 16 bits wide: 2^16 tokens fit no block, even
        # one whose capacity admits them.
        config = make_config(8)
        token = Token(token_id=TokenId(origin=1, sequence=0), payload=0, size_bits=8)
        capacity = 1 << 16
        with pytest.raises(ValueError, match="block count field overflow"):
            encode_block(config, [token] * capacity, tokens_per_block=capacity)

    def test_roundtrip_keeps_odd_sequence_numbers(self):
        config = make_config(16)  # 4-bit ids: sequences 0..15
        tokens = [
            Token(token_id=TokenId(origin=origin, sequence=sequence), payload=0xA5, size_bits=8)
            for origin, sequence in ((0, 1), (3, 7), (9, 15), (15, 14))
        ]
        value = encode_block(config, tokens, tokens_per_block=4)
        assert decode_block(config, value, tokens_per_block=4) == tokens

    def test_layout_at_one_config(self):
        # n=16 (4-bit ids), d=8: a slot is 16 bits.  Half of b=128 holds a
        # 16-bit count and 3 slots, a 64-bit block; the header gets
        # 128 - 64 - 32 (reserve) = 32 one-bit GF(2) coefficients.
        assert block_layout(make_config(16, d=8, b=128)) == (3, 32)

    def test_wrong_token_size_raises(self, rng):
        config = make_config(8, d=16)
        tokens = make_tokens(1, 8, rng)
        with pytest.raises(ValueError):
            encode_block(config, tokens, tokens_per_block=1)

    def test_block_bits_consistent_with_slots(self):
        config = make_config(8)
        assert block_bits(config, 3) == 16 + 3 * token_slot_bits(config)
        assert max_tokens_per_block(config, block_bits(config, 3)) >= 3

    def test_block_bits_rejects_zero_capacity(self):
        config = make_config(8)
        with pytest.raises(ValueError):
            block_bits(config, 0)


class TestBlockBroadcast:
    """The coded window naive-coded, greedy-forward and priority-forward share."""

    @staticmethod
    def _message(config, rng, tokens):
        """A coded message of a generation with one dimension per token."""
        generation = Generation(k=len(tokens), payload_bits=block_bits(config, 1), generation_id=1)
        state = generation.new_state()
        for index, token in enumerate(tokens):
            state.add_source(index, encode_block(config, [token], 1))
        return state.compose(1, rng)

    def test_receive_skips_messages_of_another_dimension_count(self, rng):
        config = make_config(4, d=8, b=48)
        owner = NaiveCodedNode(0, config, rng)
        window = BlockBroadcast(owner, tokens_per_block=1, delivered=owner.delivered)
        tokens = make_tokens(3, 8, rng)
        window.begin(1, [[tokens[0]], []])
        window.receive([self._message(config, rng, tokens)])
        assert window.rank == 1
        window.receive([self._message(config, rng, tokens[1:])])
        assert window.rank == 2

    def test_receive_joins_the_first_generation_heard(self, rng):
        config = make_config(4, d=8, b=48)
        owner = NaiveCodedNode(0, config, rng)
        window = BlockBroadcast(owner, tokens_per_block=1, delivered=owner.delivered)
        tokens = make_tokens(3, 8, rng)
        window.receive(
            [self._message(config, rng, tokens), self._message(config, rng, tokens[:2])]
        )
        assert window.state.generation.k == 3
        assert window.rank == 1


class TestIndexedBroadcast:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: RandomConnectedAdversary(seed=1),
        lambda: PathShuffleAdversary(seed=2),
        lambda: BottleneckAdversary(),
        lambda: RandomTreeAdversary(seed=3),
    ])
    def test_completes_and_correct(self, rng, adversary_factory):
        n = 10
        config = make_config(n, b=n + 32)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(IndexedBroadcastNode, config, placement, adversary_factory())
        assert result.completed and result.correct

    def test_rounds_linear_in_n_plus_k(self, rng):
        # Lemma 5.3: O(n + k) rounds; with q = 2 the constant is small.
        n = 24
        config = make_config(n, b=n + 32)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(IndexedBroadcastNode, config, placement, BottleneckAdversary())
        assert result.rounds <= 6 * indexed_broadcast_rounds(n, n)

    def test_explicit_index_map(self, rng):
        n, k = 8, 4
        tokens = make_tokens(k, 8, rng)
        placement = place_tokens(tokens, n, rng)
        index_of = {t.token_id: i for i, t in enumerate(sorted(tokens, key=lambda t: t.token_id))}
        config = make_config(n, k=k, b=64, extra={"index_of": index_of})
        result = run_dissemination(IndexedBroadcastNode, config, placement, BottleneckAdversary())
        assert result.completed and result.correct

    def test_against_token_isolation_adversary(self, rng):
        n = 10
        placement = one_token_per_node(n, 8, rng)
        target = placement.tokens[0].token_id
        config = make_config(n, b=n + 32)
        result = run_dissemination(
            IndexedBroadcastNode, config, placement, TokenIsolationAdversary(target)
        )
        assert result.completed and result.correct

    def test_nodes_report_finished_after_decoding(self, rng):
        n = 8
        config = make_config(n, b=n + 32)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(
            IndexedBroadcastNode, config, placement, RandomConnectedAdversary(seed=4),
            stop_at_completion=True,
        )
        assert all(node.finished() for node in result.nodes)
        assert all(node.coded_rank() >= n for node in result.nodes)

    def test_message_size_matches_lemma(self, rng):
        # Messages are k lg q + d (+ id/count overhead we account explicitly).
        n = 12
        config = make_config(n, b=n + 40)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(
            IndexedBroadcastNode, config, placement, RandomConnectedAdversary(seed=6)
        )
        assert result.metrics.max_message_bits <= config.budget.limit_bits
        assert result.metrics.max_message_bits >= n  # the coefficient header alone


class TestGreedyForward:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: RandomConnectedAdversary(seed=1),
        lambda: PathShuffleAdversary(seed=5),
        lambda: BottleneckAdversary(),
    ])
    def test_completes_and_correct(self, rng, adversary_factory):
        n = 10
        config = make_config(n, d=8, b=48)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(GreedyForwardNode, config, placement, adversary_factory())
        assert result.completed and result.correct

    def test_concentrated_tokens_instance(self, rng):
        # All k tokens start at the first two nodes: gathering is trivial but
        # dissemination still has to reach everyone.
        n, k = 12, 6
        tokens = make_tokens(k, 8, rng, origins=[0, 0, 0, 1, 1, 1])
        placement = place_tokens(tokens, n, rng)
        config = make_config(n, k=k, d=8, b=48)
        result = run_dissemination(GreedyForwardNode, config, placement, BottleneckAdversary())
        assert result.completed and result.correct

    def test_leader_retires_its_broadcast_tokens_without_decoding(self, rng, monkeypatch):
        # The leader takes its blocks out of consideration whatever any
        # window decodes, its own included.
        extra = {"gather_rounds": 1, "elect_rounds": 1, "broadcast_rounds": 1}
        config = make_config(4, k=3, d=8, b=160, extra=extra)
        node = GreedyForwardNode(0, config, rng)
        tokens = make_tokens(3, 8, rng, origins=[0, 0, 0])
        node.setup(tokens)
        monkeypatch.setattr(node.broadcast, "finish", lambda: None)
        for round_index in range(3):
            node.compose(round_index)
            node.deliver(round_index, [])
        assert node.delivered == {token.token_id for token in tokens}

    def test_beats_forwarding_with_large_messages(self, rng):
        # With b >> d, greedy-forward should need clearly fewer rounds than
        # phase-based token forwarding against the same adversary.
        n = 20
        d = 8
        b = 160
        placement = one_token_per_node(n, d, rng)
        coded = run_dissemination(
            GreedyForwardNode, make_config(n, d=d, b=b), placement, BottleneckAdversary()
        )
        forwarding = run_dissemination(
            TokenForwardingNode, make_config(n, d=d, b=d), placement, BottleneckAdversary()
        )
        assert coded.completed and forwarding.completed
        assert coded.rounds < forwarding.rounds


class TestNaiveCoded:
    def test_completes_and_correct(self, rng):
        n = 8
        config = make_config(n, d=8, b=48)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(NaiveCodedNode, config, placement, RandomConnectedAdversary(seed=2))
        assert result.completed and result.correct

    def test_completes_under_bottleneck(self, rng):
        n = 8
        config = make_config(n, d=8, b=48)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(NaiveCodedNode, config, placement, BottleneckAdversary())
        assert result.completed and result.correct

    def test_short_flood_mixes_generations_of_different_dimension_counts(self):
        # A one-round flood on a shuffled path leaves nodes with different
        # selections, so windows of different dimension counts meet in one
        # run; each must skip the other's messages rather than insert them.
        n = 12
        config = make_config(n, k=n, d=8, b=64, extra={"flood_rounds": 1})
        result = run_dissemination(
            NaiveCodedNode,
            config,
            standard_instance(n, n, 8, seed=0),
            PathShuffleAdversary(seed=1),
            seed=0,
            engine="mask",
            max_rounds=40,
        )
        assert result.metrics.rounds_executed == 40
        assert not result.completed


class TestPriorityForward:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: RandomConnectedAdversary(seed=3),
        lambda: BottleneckAdversary(),
    ])
    def test_completes_and_correct(self, rng, adversary_factory):
        n = 10
        config = make_config(n, d=8, b=64)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(PriorityForwardNode, config, placement, adversary_factory())
        assert result.completed and result.correct

    def test_handles_concentrated_instance(self, rng):
        n, k = 10, 5
        tokens = make_tokens(k, 8, rng, origins=[0] * k)
        placement = place_tokens(tokens, n, rng)
        config = make_config(n, k=k, d=8, b=64)
        result = run_dissemination(PriorityForwardNode, config, placement, PathShuffleAdversary(seed=8))
        assert result.completed and result.correct


class TestCentralized:
    def test_completes_in_linear_time(self, rng):
        n = 20
        config = make_config(n, d=8, b=16)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(CentralizedCodedNode, config, placement, BottleneckAdversary())
        assert result.completed and result.correct
        # Corollary 2.6: Theta(n); allow the q = 2 constant.
        assert result.rounds <= 6 * n

    def test_header_is_free(self, rng):
        n = 16
        config = make_config(n, d=8, b=16)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(
            CentralizedCodedNode, config, placement, RandomConnectedAdversary(seed=1)
        )
        # The charged message size excludes the n-symbol coefficient header,
        # so it stays near the payload size even though k = 16 dimensions are coded.
        assert result.metrics.max_message_bits < 64

    def test_centralized_faster_than_distributed_with_same_budget(self, rng):
        n = 16
        b = 16  # too small for the distributed header, fine for centralized
        placement = one_token_per_node(n, 8, rng)
        centralized = run_dissemination(
            CentralizedCodedNode, make_config(n, d=8, b=b), placement, BottleneckAdversary()
        )
        forwarding = run_dissemination(
            TokenForwardingNode, make_config(n, d=8, b=b), placement, BottleneckAdversary()
        )
        assert centralized.rounds < forwarding.rounds
