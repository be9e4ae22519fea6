"""Unit tests for the simulation engine (runner, metrics, experiments)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms import IndexedBroadcastNode, TokenForwardingNode
from repro.algorithms.base import ProtocolConfig, ProtocolNode
from repro.network import (
    BottleneckAdversary,
    OmniscientBottleneckAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
    TStableAdversary,
    path_topology,
)
from repro.network.stability import is_t_stable
from repro.simulation import (
    Measurement,
    RunMetrics,
    fit_power_law,
    format_table,
    measure,
    run_dissemination,
    standard_instance,
)
from repro.tokens import (
    MessageBudget,
    MessageSizeExceeded,
    Token,
    TokenForwardMessage,
    one_token_per_node,
)
from tests.conftest import RecordingAdversary, make_config


class SilentNode(ProtocolNode):
    """A protocol that never sends anything (used to exercise non-completion)."""

    def compose(self, round_index):
        return None

    def deliver(self, round_index, messages):
        return None


class OversizedNode(ProtocolNode):
    """A protocol that violates the message budget on purpose."""

    def compose(self, round_index):
        # Send all known tokens repeated many times to blow the budget.
        tokens = tuple(list(self.known.values()) * 200)
        return TokenForwardMessage(sender=self.uid, tokens=tokens)

    def deliver(self, round_index, messages):
        return None


class NonMessageNode(ProtocolNode):
    """A protocol that composes something that is not a ``Message``."""

    def compose(self, round_index):
        return tuple(self.known.values())

    def deliver(self, round_index, messages):
        return None


class TestRunner:
    def test_completion_and_correctness(self, rng):
        config = make_config(10)
        placement = one_token_per_node(10, 8, rng)
        result = run_dissemination(
            TokenForwardingNode, config, placement, RandomConnectedAdversary(seed=1)
        )
        assert result.completed
        assert result.correct is True
        assert result.metrics.completion_round == result.rounds
        assert result.metrics.rounds_executed >= result.metrics.completion_round

    def test_non_completion_within_limit(self, rng):
        config = make_config(6)
        placement = one_token_per_node(6, 8, rng)
        result = run_dissemination(
            SilentNode, config, placement, RandomConnectedAdversary(seed=1), max_rounds=20
        )
        assert not result.completed
        assert result.correct is None
        assert result.metrics.rounds_executed == 20
        assert result.metrics.silent_rounds == 20 * 6

    def test_budget_violation_raises(self, rng):
        config = make_config(6, b=16)
        placement = one_token_per_node(6, 8, rng)
        with pytest.raises(MessageSizeExceeded, match="TokenForwardMessage"):
            run_dissemination(
                OversizedNode, config, placement, RandomConnectedAdversary(seed=1), max_rounds=5
            )

    def test_non_message_composition_raises(self, rng):
        config = make_config(6)
        placement = one_token_per_node(6, 8, rng)
        with pytest.raises(TypeError, match="non-Message"):
            run_dissemination(
                NonMessageNode, config, placement, RandomConnectedAdversary(seed=1), max_rounds=5
            )

    def test_reproducibility_same_seed(self, rng):
        config = make_config(10)
        placement = one_token_per_node(10, 8, rng)
        r1 = run_dissemination(
            IndexedBroadcastNode, config, placement, RandomConnectedAdversary(seed=7), seed=3
        )
        r2 = run_dissemination(
            IndexedBroadcastNode, config, placement, RandomConnectedAdversary(seed=7), seed=3
        )
        assert r1.rounds == r2.rounds
        assert r1.metrics.total_message_bits == r2.metrics.total_message_bits

    def test_record_topologies_and_stability(self, rng):
        config = make_config(8, stability=3)
        placement = one_token_per_node(8, 8, rng)
        adversary = RecordingAdversary(
            TStableAdversary(RandomConnectedAdversary(seed=2), stability=3)
        )
        run_dissemination(TokenForwardingNode, config, placement, adversary)
        assert adversary.topologies
        assert is_t_stable(adversary.topologies, 3)

    def test_track_progress(self, rng):
        config = make_config(8)
        placement = one_token_per_node(8, 8, rng)
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            RandomConnectedAdversary(seed=4),
            track_progress=True,
        )
        assert result.metrics.progress
        rounds, min_known, mean_known = result.metrics.progress[-1]
        assert min_known == 8
        # Knowledge is monotone non-decreasing.
        mins = [entry[1] for entry in result.metrics.progress]
        assert all(a <= b for a, b in zip(mins, mins[1:]))

    def test_omniscient_adversary_path(self, rng):
        config = make_config(8)
        placement = one_token_per_node(8, 8, rng)
        result = run_dissemination(
            IndexedBroadcastNode,
            config,
            placement,
            OmniscientBottleneckAdversary(),
        )
        assert result.completed

    def test_static_adversary_run(self, rng):
        config = make_config(9)
        placement = one_token_per_node(9, 8, rng)
        result = run_dissemination(
            TokenForwardingNode, config, placement, StaticAdversary(path_topology)
        )
        assert result.completed and result.correct

    def test_metrics_accounting(self, rng):
        config = make_config(8)
        placement = one_token_per_node(8, 8, rng)
        result = run_dissemination(
            TokenForwardingNode, config, placement, RandomConnectedAdversary(seed=5)
        )
        m = result.metrics
        assert m.broadcasts > 0
        assert m.total_message_bits > 0
        assert m.max_message_bits <= config.budget.limit_bits
        assert 0 <= m.waste_fraction <= 1
        assert m.average_message_bits > 0
        assert m.to_dict()["completed"] is True


class TestRecordingAdversary:
    """The wrapper that tests read a run's topologies through."""

    @pytest.mark.parametrize(
        "make_inner",
        [lambda: RandomConnectedAdversary(seed=1), OmniscientBottleneckAdversary],
        ids=["oblivious", "omniscient"],
    )
    def test_wrapping_leaves_the_run_unchanged(self, rng, make_inner):
        config = make_config(8)
        placement = one_token_per_node(8, 8, rng)
        plain = run_dissemination(IndexedBroadcastNode, config, placement, make_inner(), seed=1)
        recorder = RecordingAdversary(make_inner())
        assert recorder.sees_messages == make_inner().sees_messages
        recorded = run_dissemination(IndexedBroadcastNode, config, placement, recorder, seed=1)
        assert recorded.engine == plain.engine
        assert dataclasses.asdict(recorded.metrics) == dataclasses.asdict(plain.metrics)
        assert len(recorder.topologies) == recorded.metrics.rounds_executed

    def test_reset_starts_a_new_record(self, rng):
        config = make_config(8)
        placement = one_token_per_node(8, 8, rng)
        recorder = RecordingAdversary(RandomConnectedAdversary(seed=3))
        run_dissemination(TokenForwardingNode, config, placement, recorder, seed=1)
        first = [t.masks for t in recorder.topologies]
        result = run_dissemination(TokenForwardingNode, config, placement, recorder, seed=1)
        assert len(recorder.topologies) == result.metrics.rounds_executed
        assert [t.masks for t in recorder.topologies] == first


class TestMetricsUnit:
    def test_average_message_bits(self):
        m = RunMetrics(broadcasts=2, total_message_bits=40, max_message_bits=30)
        assert m.average_message_bits == 20

    def test_empty_metrics_safe(self):
        m = RunMetrics()
        assert m.average_message_bits == 0
        assert m.waste_fraction == 0
        assert not m.completed


class TestExperimentHarness:
    def test_standard_instance_one_per_node(self):
        placement = standard_instance(n=10, k=None, token_bits=8)
        assert placement.k == 10

    def test_standard_instance_concentrated(self):
        placement = standard_instance(n=10, k=4, token_bits=8)
        assert placement.k == 4
        origins = {t.token_id.origin for t in placement.tokens}
        assert origins <= set(range(4))

    def test_measure_aggregates(self):
        config = make_config(8)
        placement = standard_instance(8, None, 8)
        m = measure(
            TokenForwardingNode,
            config,
            placement,
            lambda: RandomConnectedAdversary(seed=3),
            repetitions=2,
        )
        assert isinstance(m, Measurement)
        assert m.repetitions == 2
        assert m.all_completed
        assert m.rounds_min <= m.rounds_mean <= m.rounds_max

    def test_fit_power_law_recovers_exponent(self):
        xs = [2, 4, 8, 16, 32]
        ys = [3 * x**2 for x in xs]
        alpha, c = fit_power_law(xs, ys)
        assert abs(alpha - 2.0) < 1e-9
        assert abs(c - 3.0) < 1e-6

    def test_fit_power_law_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    def test_format_table_renders_rows(self):
        rows = [{"n": 8, "rounds": 12.5, "speedup": 1.75}, {"n": 16, "rounds": 30.0}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].split(" | ") == ["n ", "rounds", "speedup"]
        assert "speedup" in text and "1.75" in text
        # A row missing a column renders it blank; columns follow row 0.
        assert lines[4].split(" | ") == ["16", "30.0  ", " " * len("speedup")]

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="t")
