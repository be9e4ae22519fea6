"""Unit tests for tokens, placements and message size accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import symbols_needed
from repro.tokens import (
    CodedMessage,
    ControlMessage,
    MessageBudget,
    MessageSizeExceeded,
    Token,
    TokenForwardMessage,
    TokenId,
    make_tokens,
    one_token_per_node,
    place_tokens,
    uid_bits,
)


class TestTokenId:
    def test_ordering_is_lexicographic(self):
        assert TokenId(0, 1) < TokenId(1, 0)
        assert TokenId(2, 0) < TokenId(2, 5)

    def test_bits_positive(self):
        assert TokenId(0, 0).bits >= 2
        assert TokenId(1023, 3).bits >= 10

    def test_hashable_and_equal(self):
        assert TokenId(3, 1) == TokenId(3, 1)
        assert len({TokenId(3, 1), TokenId(3, 1), TokenId(3, 2)}) == 2


class TestToken:
    def test_payload_must_fit(self):
        with pytest.raises(ValueError):
            Token(TokenId(0, 0), payload=256, size_bits=8)
        with pytest.raises(ValueError):
            Token(TokenId(0, 0), payload=-1, size_bits=8)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Token(TokenId(0, 0), payload=0, size_bits=0)

    def test_payload_bits_roundtrip(self):
        t = Token(TokenId(1, 0), payload=0b1011, size_bits=4)
        assert t.payload_bits() == (1, 1, 0, 1)


class TestTokenFactories:
    def test_make_tokens_count_and_size(self, rng):
        tokens = make_tokens(7, 16, rng)
        assert len(tokens) == 7
        assert all(t.size_bits == 16 for t in tokens)
        assert len({t.token_id for t in tokens}) == 7

    def test_make_tokens_sequence_numbers_per_origin(self, rng):
        tokens = make_tokens(4, 8, rng, origins=[0, 0, 1, 0])
        sequences = [t.token_id.sequence for t in tokens if t.token_id.origin == 0]
        assert sorted(sequences) == [0, 1, 2]

    def test_make_tokens_origin_mismatch(self, rng):
        with pytest.raises(ValueError):
            make_tokens(3, 8, rng, origins=[0, 1])

    def test_one_token_per_node(self, rng):
        placement = one_token_per_node(9, 8, rng)
        assert placement.k == 9
        for token in placement.tokens:
            assert placement.holders[token.token_id] == frozenset({token.token_id.origin})

    def test_place_tokens_copies(self, rng):
        tokens = make_tokens(5, 8, rng)
        placement = place_tokens(tokens, 20, rng, copies=3)
        for token in tokens:
            holders = placement.holders[token.token_id]
            assert len(holders) >= 3
            assert token.token_id.origin in holders

    def test_placement_queries(self, rng):
        placement = one_token_per_node(6, 8, rng)
        assert len(placement.all_ids()) == 6
        assert len(placement.tokens_at(3)) == 1
        assert placement.by_id()[placement.tokens[0].token_id] == placement.tokens[0]

    @given(
        n=st.integers(1, 12),
        k=st.integers(0, 16),
        copies=st.integers(1, 5),
        at_origin=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_tokens_at_matches_the_holder_scan(self, n, k, copies, at_origin, seed):
        # The per-holder index is built once per placement; every node's
        # list must be the full scan over the tokens, in placement order.
        rng = np.random.default_rng(seed)
        origins = rng.integers(0, n + 2, size=k).tolist()
        tokens = make_tokens(k, 8, rng, origins=origins)
        placement = place_tokens(tokens, n, rng, copies=copies, at_origin=at_origin)
        for node in range(n + 2):
            scan = [t for t in placement.tokens if node in placement.holders[t.token_id]]
            assert placement.tokens_at(node) == scan
        # Each call hands out a fresh list.
        placement.tokens_at(0).append(None)
        assert None not in placement.tokens_at(0)


class TestMessageSizes:
    def test_uid_bits(self):
        assert uid_bits(2) == 1
        assert uid_bits(16) == 4
        assert uid_bits(17) == 5

    def test_token_forward_message_size(self):
        t1 = Token(TokenId(1, 0), payload=3, size_bits=8)
        t2 = Token(TokenId(2, 0), payload=9, size_bits=8)
        msg = TokenForwardMessage(sender=0, tokens=(t1, t2))
        assert msg.size_bits == (t1.token_id.bits + 8) + (t2.token_id.bits + 8)

    def test_empty_forward_message_is_zero_bits(self):
        assert TokenForwardMessage(sender=0, tokens=()).size_bits == 0

    def test_coded_message_header_and_payload(self):
        msg = CodedMessage(
            sender=1,
            coefficients=(1, 0, 1, 1),
            payload=(1, 0, 0, 0, 1, 1, 0, 1),
            field_order=2,
            generation=3,
        )
        assert msg.header_bits == 4
        assert msg.payload_bits == 8
        assert msg.size_bits == 4 + 8 + 2  # + generation tag bits
        # Lemma 5.3's k lg q + d over GF(257): a 16-bit block takes
        # symbols_needed(16, 257) = 2 symbols of ceil(lg 257) = 9 bits each,
        # so its payload costs 18 bits, not 16.
        wide = CodedMessage(
            sender=1,
            coefficients=(1,) * 10,
            payload=(256,) * symbols_needed(16, 257),
            field_order=257,
            generation=3,
        )
        assert wide.header_bits == 90
        assert wide.payload_bits == 18
        assert wide.size_bits == 90 + 18 + 2

    def test_coded_message_larger_field_costs_more(self):
        gf2 = CodedMessage(sender=0, coefficients=(1,) * 10, payload=(1,) * 8, field_order=2)
        gf257 = CodedMessage(sender=0, coefficients=(1,) * 10, payload=(1,) * 8, field_order=257)
        assert gf257.header_bits == 9 * 10
        assert gf257.size_bits > gf2.size_bits

    def test_coded_message_with_dimension_ids(self):
        tid = TokenId(3, 1)
        msg = CodedMessage(
            sender=0, coefficients=(1, 1), payload=(0,), field_order=2,
            dimension_ids=(tid, tid),
        )
        assert msg.header_bits == 2 + 2 * tid.bits

    def test_control_message_sizes(self):
        msg = ControlMessage(sender=0, fields={"count": 7, "leader": 3})
        # 2 field tags (4 bits each) + 3 bits + 2 bits
        assert msg.size_bits == 4 + 3 + 4 + 2

    def test_control_message_with_token_id_and_lists(self):
        tid = TokenId(2, 1)
        msg = ControlMessage(sender=0, fields={"ids": (tid, tid), "flag": True})
        assert msg.size_bits == 4 + 2 * tid.bits + 4 + 1

    def test_control_message_rejects_unknown_type(self):
        msg = ControlMessage(sender=0, fields={"bad": 3.14})
        with pytest.raises(TypeError):
            _ = msg.size_bits


class TestMessageBudget:
    def test_budget_check_passes_within_limit(self):
        budget = MessageBudget(b=64, slack=2.0)
        msg = ControlMessage(sender=0, fields={"x": (1 << 100) - 1})
        budget.check(msg)  # 104 bits <= 128

    def test_budget_check_rejects_oversized(self):
        budget = MessageBudget(b=16, slack=1.0)
        msg = ControlMessage(sender=0, fields={"x": (1 << 40) - 1})
        with pytest.raises(MessageSizeExceeded):
            budget.check(msg)

    def test_budget_validate_parameters(self):
        MessageBudget(b=8).validate_parameters(100)
        with pytest.raises(ValueError):
            MessageBudget(b=3).validate_parameters(100)

    def test_budget_invalid_construction(self):
        with pytest.raises(ValueError):
            MessageBudget(b=0)
        with pytest.raises(ValueError):
            MessageBudget(b=8, slack=0.5)

    def test_limit_bits(self):
        assert MessageBudget(b=10, slack=3.0).limit_bits == 30
