"""Tests for the T-stable patch protocol, deterministic coding and counting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    DeterministicIndexedBroadcastNode,
    IndexedBroadcastNode,
    PatchShareCoordinator,
    TokenForwardingNode,
    count_nodes_via_doubling,
    deterministic_broadcast_config,
    make_tstable_factory,
)
from repro.algorithms.base import ProtocolConfig
from repro.coding import DeterministicSchedule, omniscient_field_order
from repro.network import (
    BottleneckAdversary,
    OmniscientBottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    TStableAdversary,
)
from repro.scenarios import make_scenario
from repro.simulation import run_dissemination, standard_instance
from repro.tokens import MessageBudget, make_tokens, one_token_per_node, place_tokens
from tests.conftest import make_config


class TestTStablePatchProtocol:
    def _run(self, n, stability, seed=0, adversary_seed=1, d=8):
        rng = np.random.default_rng(seed)
        config = make_config(n, d=d, b=n + 32, stability=stability)
        placement = one_token_per_node(n, d, rng)
        factory = make_tstable_factory(config, seed=seed)
        adversary = TStableAdversary(RandomConnectedAdversary(seed=adversary_seed), stability)
        return run_dissemination(factory, config, placement, adversary)

    @pytest.mark.parametrize("stability", [4, 8])
    def test_completes_and_correct(self, stability):
        result = self._run(n=12, stability=stability)
        assert result.completed and result.correct

    def test_completes_under_path_shuffle(self):
        rng = np.random.default_rng(3)
        n, stability = 12, 6
        config = make_config(n, d=8, b=n + 32, stability=stability)
        placement = one_token_per_node(n, 8, rng)
        factory = make_tstable_factory(config, seed=3)
        adversary = TStableAdversary(PathShuffleAdversary(seed=4), stability)
        result = run_dissemination(factory, config, placement, adversary)
        assert result.completed and result.correct

    def test_learning_through_the_coordinator_is_not_useless(self):
        # Patch nodes learn in the coordinator's after_round, not in their
        # own deliver; change flags taken between the two called every
        # delivery of this run useless (3512 of 3512).
        n, stability = 16, 8
        config = make_config(n, b=n + 32, stability=stability)
        result = run_dissemination(
            make_tstable_factory(config, seed=0),
            config,
            standard_instance(n, n, 8, seed=0),
            make_scenario("edge_markov_stable4", n, seed=0),
            seed=0,
        )
        assert result.completed and result.correct
        assert 0 < result.metrics.useless_deliveries < result.metrics.deliveries

    def test_coordinator_shared_across_nodes(self):
        config = make_config(8, stability=4)
        factory = make_tstable_factory(config, seed=0)
        rng = np.random.default_rng(0)
        a = factory(0, config, rng)
        b = factory(1, config, rng)
        assert a.shared_coordinator is b.shared_coordinator
        assert isinstance(a.shared_coordinator, PatchShareCoordinator)

    def test_coordinator_phases_partition_the_block(self):
        config = make_config(16, stability=8)
        coordinator = PatchShareCoordinator(config, seed=0)
        phases = [coordinator.phase_in_block(r) for r in range(8)]
        assert phases[0] == "setup"
        assert phases[-1] == "pass"
        assert coordinator.setup_rounds + coordinator.pass_rounds >= config.stability

    def test_radius_scales_with_stability(self):
        small = PatchShareCoordinator(make_config(32, stability=4), seed=0)
        large = PatchShareCoordinator(make_config(32, stability=40), seed=0)
        assert large.radius >= small.radius


class TestDeterministicCoding:
    def test_config_builder_uses_large_field(self):
        config = deterministic_broadcast_config(6, 3, 8)
        assert config.field_order >= omniscient_field_order(6, 3) - 1
        assert "deterministic_schedule" in config.extra

    def test_requires_schedule(self):
        config = make_config(6, k=3)
        with pytest.raises(ValueError):
            DeterministicIndexedBroadcastNode(0, config, np.random.default_rng(0))

    def _placement_and_index(self, n, k, d, seed=0):
        rng = np.random.default_rng(seed)
        tokens = make_tokens(k, d, rng)
        placement = place_tokens(tokens, n, rng)
        index_of = {t.token_id: i for i, t in enumerate(tokens)}
        return placement, index_of

    def test_deterministic_broadcast_completes_against_adaptive_adversary(self):
        n, k, d = 6, 3, 8
        placement, index_of = self._placement_and_index(n, k, d)
        base = deterministic_broadcast_config(n, k, d)
        config = ProtocolConfig(
            n=n, k=k, token_bits=d, budget=base.budget, field_order=base.field_order,
            extra={**dict(base.extra), "index_of": index_of},
        )
        result = run_dissemination(
            DeterministicIndexedBroadcastNode, config, placement, BottleneckAdversary()
        )
        assert result.completed and result.correct

    def test_deterministic_broadcast_against_omniscient_adversary(self):
        # Theorem 6.1: with the large field even an adversary that sees the
        # committed messages cannot stall the spread.
        n, k, d = 6, 2, 8
        placement, index_of = self._placement_and_index(n, k, d, seed=1)
        base = deterministic_broadcast_config(n, k, d)
        config = ProtocolConfig(
            n=n, k=k, token_bits=d, budget=base.budget, field_order=base.field_order,
            extra={**dict(base.extra), "index_of": index_of},
        )
        result = run_dissemination(
            DeterministicIndexedBroadcastNode, config, placement,
            OmniscientBottleneckAdversary(), max_rounds=20 * n,
        )
        assert result.completed and result.correct

    def test_runs_are_identical_across_seeds(self):
        # The protocol uses no runtime randomness: two runs with different
        # runner seeds produce identical round counts.
        n, k, d = 6, 2, 8
        placement, index_of = self._placement_and_index(n, k, d, seed=2)
        base = deterministic_broadcast_config(n, k, d)
        config = ProtocolConfig(
            n=n, k=k, token_bits=d, budget=base.budget, field_order=base.field_order,
            extra={**dict(base.extra), "index_of": index_of},
        )
        r1 = run_dissemination(
            DeterministicIndexedBroadcastNode, config, placement, BottleneckAdversary(), seed=1
        )
        r2 = run_dissemination(
            DeterministicIndexedBroadcastNode, config, placement, BottleneckAdversary(), seed=99
        )
        assert r1.rounds == r2.rounds

    def test_schedule_header_cost_reflected_in_budget(self):
        config = deterministic_broadcast_config(8, 4, 8)
        # Corollary 6.2: message size k^2 log n + d, much larger than the
        # randomized k + d.
        assert config.budget.b > 4 * 8


class TestCounting:
    def test_counting_with_token_forwarding(self):
        outcome = count_nodes_via_doubling(
            TokenForwardingNode, n_true=10, token_bits=8, b=64,
            adversary_factory=lambda: RandomConnectedAdversary(seed=3),
        )
        assert outcome.exact_count == 10
        assert outcome.estimate >= 10
        assert outcome.estimate < 2 * 16  # first power of two >= 10, doubled at most once more
        assert outcome.attempts >= 3  # guesses 2, 4, 8 must fail

    def test_counting_with_coded_broadcast(self):
        outcome = count_nodes_via_doubling(
            IndexedBroadcastNode, n_true=9, token_bits=8, b=64,
            adversary_factory=lambda: RandomConnectedAdversary(seed=5),
        )
        assert outcome.exact_count == 9
        assert outcome.estimate >= 9

    def test_total_overhead_is_bounded(self):
        outcome = count_nodes_via_doubling(
            TokenForwardingNode, n_true=12, token_bits=8, b=64,
            adversary_factory=lambda: RandomConnectedAdversary(seed=7),
        )
        # The geometric-sum argument: all failed attempts together cost at
        # most a small multiple of the successful run.
        assert outcome.total_rounds <= 4 * outcome.final_rounds + 200
