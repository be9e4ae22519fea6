"""Tests for the token-forwarding baselines and the random-forward primitive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    GatherState,
    PipelinedTokenForwardingNode,
    RandomForwardNode,
    TokenForwardingNode,
    tokens_per_message,
)
from repro.network import (
    BottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
    TStableAdversary,
    path_topology,
)
from repro.simulation import build_nodes, run_dissemination, standard_instance
from repro.tokens import (
    ControlMessage,
    MessageBudget,
    Token,
    TokenForwardMessage,
    TokenId,
    one_token_per_node,
)
from repro.analysis import token_forwarding_rounds
from tests.conftest import make_config


class TestTokensPerMessage:
    def test_scales_with_budget(self):
        small = make_config(16, d=8, b=32)
        large = make_config(16, d=8, b=256)
        assert tokens_per_message(large) > tokens_per_message(small)

    def test_at_least_one(self):
        config = make_config(16, d=16, b=16)
        assert tokens_per_message(config) >= 1


class TestFloodingTokenForwarding:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: RandomConnectedAdversary(seed=1),
        lambda: PathShuffleAdversary(seed=2),
        lambda: BottleneckAdversary(),
        lambda: StaticAdversary(path_topology),
    ])
    def test_completes_and_correct_under_every_adversary(self, rng, adversary_factory):
        config = make_config(10)
        placement = one_token_per_node(10, 8, rng)
        result = run_dissemination(TokenForwardingNode, config, placement, adversary_factory())
        assert result.completed and result.correct

    def test_messages_respect_budget(self, rng):
        config = make_config(12, d=8, b=40)
        placement = one_token_per_node(12, 8, rng)
        result = run_dissemination(
            TokenForwardingNode, config, placement, RandomConnectedAdversary(seed=3)
        )
        assert result.metrics.max_message_bits <= config.budget.limit_bits

    def test_round_count_close_to_theory_on_bottleneck(self, rng):
        # Against the adaptive bottleneck adversary the phase-based algorithm
        # should be within a small constant of the nkd/b + n bound.
        n = 12
        config = make_config(n, d=8, b=n + 16)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(TokenForwardingNode, config, placement, BottleneckAdversary())
        predicted = token_forwarding_rounds(n, n, 8, n + 16)
        assert result.rounds <= 6 * predicted

    def test_larger_messages_fewer_rounds(self, rng):
        n = 12
        placement = one_token_per_node(n, 8, rng)
        small = run_dissemination(
            TokenForwardingNode, make_config(n, d=8, b=32), placement, BottleneckAdversary()
        )
        large = run_dissemination(
            TokenForwardingNode, make_config(n, d=8, b=128), placement, BottleneckAdversary()
        )
        assert large.rounds < small.rounds

    def test_delivered_sets_consistent(self, rng):
        # After completion, every node has marked the same tokens delivered.
        config = make_config(8)
        placement = one_token_per_node(8, 8, rng)
        result = run_dissemination(
            TokenForwardingNode, config, placement, RandomConnectedAdversary(seed=4),
            stop_at_completion=False, max_rounds=8 * 10,
        )
        delivered_sets = {frozenset(node.delivered) for node in result.nodes}
        assert len(delivered_sets) == 1

    def test_knowledge_monotone(self, rng):
        config = make_config(8)
        placement = one_token_per_node(8, 8, rng)
        result = run_dissemination(
            TokenForwardingNode, config, placement, RandomConnectedAdversary(seed=5),
            track_progress=True,
        )
        means = [entry[2] for entry in result.metrics.progress]
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


class TestPipelinedForwarding:
    def test_completes_on_static_graph_quickly(self, rng):
        n = 16
        config = make_config(n, d=8, b=24)
        placement = one_token_per_node(n, 8, rng)
        result = run_dissemination(
            PipelinedTokenForwardingNode, config, placement, StaticAdversary(path_topology)
        )
        assert result.completed and result.correct
        # Pipelined flooding on a static path: O(n + k d / b), far below n*k.
        assert result.rounds <= 6 * n

    def test_completes_on_tstable_network(self, rng):
        n = 12
        config = make_config(n, stability=4)
        placement = one_token_per_node(n, 8, rng)
        adversary = TStableAdversary(RandomConnectedAdversary(seed=3), stability=4)
        result = run_dissemination(PipelinedTokenForwardingNode, config, placement, adversary)
        assert result.completed and result.correct

    def test_stability_helps(self, rng):
        n = 16
        placement = one_token_per_node(n, 8, rng)
        fully_dynamic = run_dissemination(
            PipelinedTokenForwardingNode,
            make_config(n, d=8, b=24, stability=1),
            placement,
            PathShuffleAdversary(seed=9),
        )
        stable = run_dissemination(
            PipelinedTokenForwardingNode,
            make_config(n, d=8, b=24, stability=8),
            placement,
            TStableAdversary(PathShuffleAdversary(seed=9), stability=8),
        )
        assert stable.rounds <= fully_dynamic.rounds


class TestRandomForward:
    def test_completes_eventually(self, rng):
        config = make_config(10)
        placement = one_token_per_node(10, 8, rng)
        result = run_dissemination(
            RandomForwardNode, config, placement, RandomConnectedAdversary(seed=2)
        )
        assert result.completed and result.correct

    def test_waste_grows_toward_the_end(self, rng):
        # Section 5.2: most forwarding broadcasts are wasted in the end phase.
        config = make_config(14)
        placement = one_token_per_node(14, 8, rng)
        result = run_dissemination(
            RandomForwardNode, config, placement, BottleneckAdversary(),
        )
        assert result.metrics.waste_fraction > 0.05

    def test_gather_state_lemma_7_2_gathering(self, rng):
        # After ~n rounds of random forwarding, some node holds many tokens
        # (Lemma 7.2: at least sqrt(bk/d) of them, or all).
        n = 20
        config = make_config(n, d=8, b=32)
        placement = one_token_per_node(n, 8, rng)
        nodes = build_nodes(RandomForwardNode, config, placement, rng)
        adversary = PathShuffleAdversary(seed=11)
        from repro.simulation.runner import run_dissemination as run

        result = run(
            RandomForwardNode, config, placement, adversary,
            max_rounds=n, stop_at_completion=False,
        )
        best = max(len(node.known_token_ids()) for node in result.nodes)
        bound = np.sqrt(config.b * config.k / config.token_bits)
        assert best >= min(config.k, int(bound))

    def test_gather_state_leader_election(self, rng):
        # Drive a GatherState pair directly: after flooding, both agree on the
        # node with the larger count.
        config = make_config(4)
        placement = one_token_per_node(4, 8, rng)
        nodes = build_nodes(RandomForwardNode, config, placement, rng)
        # Give node 2 extra knowledge.
        for token in placement.tokens:
            nodes[2]._learn_token(token)
        gathers = [GatherState(node, forward_rounds=1, flood_rounds=4) for node in nodes]
        for phase_round in range(5):
            messages = [g.compose(phase_round) for g in gathers]
            for i, g in enumerate(gathers):
                inbox = [m for j, m in enumerate(messages) if m is not None and j != i]
                g.deliver(phase_round, inbox)
        leaders = {g.elected_leader() for g in gathers}
        assert leaders == {2}
        assert all(g.elected_count() == 4 for g in gathers)


def _forwarding_state(node) -> dict:
    """Everything a forwarding node's future behaviour depends on."""
    if isinstance(node, TokenForwardingNode):
        return {
            "known": node.known,
            "delivered": node.delivered,
            "sorted_pending": node._sorted_known,
        }
    return {"known": node.known, "send_counts": node._send_counts, "buckets": node._buckets}


class TestMessageSkip:
    """``_learn_message`` skips a message that brings nothing new by one mask
    test; a node doing so must stay indistinguishable from one that learns
    every carried token one by one (mask tracking off)."""

    PLACEMENT = standard_instance(6, 8, 8, seed=0)
    INDEX = {tid: bit for bit, tid in enumerate(sorted(PLACEMENT.all_ids()))}

    def _pair(self, node_class, initial):
        config = make_config(6, k=8, b=64, extra={"phase_length": 3})
        tracked, untracked = (
            node_class(0, config, np.random.default_rng(0)) for _ in range(2)
        )
        for node in (tracked, untracked):
            node.setup(initial)
        # As the runner does: install the index, then sync the mask once.
        assert tracked.enable_mask_tracking(self.INDEX)
        tracked.knowledge_mask()
        return tracked, untracked

    @pytest.mark.parametrize(
        "node_class", [TokenForwardingNode, PipelinedTokenForwardingNode]
    )
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_token_learning(self, node_class, data):
        tokens = self.PLACEMENT.tokens
        # A token missing from the run's index disables the fast path.
        foreign = Token(TokenId(origin=99, sequence=0), payload=1, size_bits=8)
        pool = list(tokens) + [foreign]
        initial = data.draw(st.lists(st.sampled_from(tokens), unique=True))
        tracked, untracked = self._pair(node_class, initial)
        sent: list[TokenForwardMessage] = []
        # phase_length 3: rounds 2, 5 and 8 commit a phase.
        for round_index in range(data.draw(st.integers(1, 9))):
            assert tracked.compose(round_index) == untracked.compose(round_index)
            inbox = []
            for _ in range(data.draw(st.integers(0, 4))):
                if sent and data.draw(st.booleans()):
                    # Re-delivered: fully known after its first delivery.
                    inbox.append(data.draw(st.sampled_from(sent)))
                else:
                    # Possibly partly known, possibly repeating a token.
                    carried = data.draw(st.lists(st.sampled_from(pool), max_size=5))
                    inbox.append(TokenForwardMessage(sender=1, tokens=tuple(carried)))
            sent.extend(inbox)
            tracked.deliver(round_index, inbox)
            untracked.deliver(round_index, inbox)
            assert _forwarding_state(tracked) == _forwarding_state(untracked)
        assert tracked.compose(99) == untracked.compose(99)
        assert _forwarding_state(tracked) == _forwarding_state(untracked)
        assert untracked.enable_mask_tracking(self.INDEX)
        assert tracked.knowledge_mask() == untracked.knowledge_mask()

    @pytest.mark.parametrize(
        "node_class", [TokenForwardingNode, PipelinedTokenForwardingNode]
    )
    def test_known_message_touches_no_token(self, node_class, monkeypatch):
        tokens = self.PLACEMENT.tokens
        tracked, untracked = self._pair(node_class, tokens[:4])
        known = TokenForwardMessage(sender=1, tokens=tuple(tokens[1:3]))
        learned: list[Token] = []
        original = node_class._learn_token

        def counting(node, token):
            learned.append(token)
            return original(node, token)

        monkeypatch.setattr(node_class, "_learn_token", counting)
        tracked.deliver(0, [known, known])
        assert learned == []
        untracked.deliver(0, [known])
        assert learned == list(known.tokens)
        partly_new = TokenForwardMessage(sender=1, tokens=tuple(tokens[3:6]))
        tracked.deliver(0, [partly_new])
        assert learned[2:] == list(partly_new.tokens)

    def test_token_mask_is_cached_per_index(self):
        tokens = self.PLACEMENT.tokens
        message = TokenForwardMessage(sender=1, tokens=(tokens[0], tokens[2], tokens[0]))
        assert message.token_mask(self.INDEX) == 0b101
        reversed_index = {tid: 7 - bit for tid, bit in self.INDEX.items()}
        assert message.token_mask(reversed_index) == 0b10100000
        assert message.token_mask(self.INDEX) == 0b101
        assert message.token_mask({tokens[0].token_id: 0}) is None


def _learn_state(node) -> dict:
    """The node's knowledge record, in order, with its mask bookkeeping."""
    state = {
        "known": list(node.known.items()),
        "mask": node._knowledge_mask,
        "synced": node._mask_synced,
    }
    if isinstance(node, TokenForwardingNode):
        state["sorted_known"] = list(node._sorted_known)
    if isinstance(node, PipelinedTokenForwardingNode):
        state["buckets"] = {count: list(bucket) for count, bucket in node._buckets.items()}
    return state


class TestLearnMessages:
    """``_learn_messages`` tests the inbox's OR against the knowledge mask
    once; it must leave a node exactly as the per-message loop it replaced
    (``_learn_message`` on every forwarding message, in inbox order) does."""

    PLACEMENT = TestMessageSkip.PLACEMENT
    INDEX = TestMessageSkip.INDEX

    @pytest.mark.parametrize(
        "node_class", [TokenForwardingNode, PipelinedTokenForwardingNode, RandomForwardNode]
    )
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_message_loop(self, node_class, data):
        tokens = self.PLACEMENT.tokens
        # Tokens outside the run's index: their messages have no mask.
        foreign = [
            Token(TokenId(origin=99, sequence=s), payload=s, size_bits=8) for s in range(2)
        ]
        pool = list(tokens) + foreign
        config = make_config(6, k=8, b=64)
        batched, reference = (
            node_class(0, config, np.random.default_rng(0)) for _ in range(2)
        )
        initial = data.draw(st.lists(st.sampled_from(tokens), unique=True))
        sync = data.draw(st.booleans())
        for node in (batched, reference):
            node.setup(initial)
            assert node.enable_mask_tracking(self.INDEX)
            if sync:
                node.knowledge_mask()
        sent: list = []
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                # Out of band: ``known`` grows without the mask, which is
                # then out of sync until the next knowledge_mask() call.
                token = data.draw(st.sampled_from(pool))
                for node in (batched, reference):
                    node.known.setdefault(token.token_id, token)
            if data.draw(st.booleans()):
                for node in (batched, reference):
                    node.knowledge_mask()
            inbox: list = []
            for _ in range(data.draw(st.integers(0, 5))):
                kind = data.draw(st.sampled_from(["new", "resent", "control"]))
                if kind == "control":
                    inbox.append(ControlMessage(sender=2, fields={"count": 1}))
                elif kind == "resent" and sent:
                    inbox.append(data.draw(st.sampled_from(sent)))
                else:
                    carried = data.draw(st.lists(st.sampled_from(pool), max_size=4))
                    inbox.append(TokenForwardMessage(sender=1, tokens=tuple(carried)))
            sent.extend(m for m in inbox if isinstance(m, TokenForwardMessage))
            batched._learn_messages(inbox)
            for message in inbox:
                if isinstance(message, TokenForwardMessage):
                    reference._learn_message(message)
            assert _learn_state(batched) == _learn_state(reference)
        assert batched.knowledge_mask() == reference.knowledge_mask()

    def test_known_inbox_calls_no_per_message_learn(self, monkeypatch):
        tokens = self.PLACEMENT.tokens
        config = make_config(6, k=8, b=64)
        node = TokenForwardingNode(0, config, np.random.default_rng(0))
        node.setup(tokens[:4])
        assert node.enable_mask_tracking(self.INDEX)
        node.knowledge_mask()
        calls: list = []
        original = TokenForwardingNode._learn_message
        monkeypatch.setattr(
            TokenForwardingNode,
            "_learn_message",
            lambda self, message: calls.append(message) or original(self, message),
        )
        known = [
            TokenForwardMessage(sender=1, tokens=tuple(tokens[0:2])),
            ControlMessage(sender=2, fields={"count": 1}),
            TokenForwardMessage(sender=3, tokens=tuple(tokens[2:4])),
        ]
        node._learn_messages(known)
        assert calls == []
        # One unknown token anywhere sends every forwarding message through
        # the per-message path, in inbox order.
        partly_new = TokenForwardMessage(sender=4, tokens=(tokens[3], tokens[4]))
        node._learn_messages(known + [partly_new])
        assert calls == [known[0], known[2], partly_new]
        assert tokens[4].token_id in node.known
