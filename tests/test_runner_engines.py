"""Equivalence and contract tests for the runner's two execution engines.

The kernel engine (packed whole-network arrays) and the mask engine
(per-node objects, bitmask topologies, identity-cached validation, lazy
state views, incremental ``knowledge_mask`` tracking) implement the
identical round semantics; these tests pin that equivalence across
protocol/adversary pairs, check the mask engine's bookkeeping against an
independent rebuild from each node's ``known`` dict, and cover the auto
engine selection rules, the opaque-protocol rejection, the
once-per-topology validation cache, and the ``rng.spawn`` node-seeding
scheme.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import (
    CentralizedCodedNode,
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
    PipelinedTokenForwardingNode,
    PriorityForwardNode,
    RandomForwardNode,
    TokenForwardingNode,
    make_tstable_factory,
)
from repro.network import (
    BottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
    TStableAdversary,
    Topology,
    ring_topology,
)
from repro.network.adversary import Adversary
from repro.network.stability import is_t_stable, max_stability
from repro.scenarios import fault_model_for, make_scenario
from repro.simulation import run_dissemination, standard_instance
from repro.simulation.runner import build_nodes
from tests.conftest import make_config


def _run(factory, config, adversary, *, engine, seed=3, **kwargs):
    placement = standard_instance(config.n, config.k, config.token_bits, seed=seed)
    return run_dissemination(
        factory, config, placement, adversary, seed=seed, engine=engine, **kwargs
    )


PAIRS = [
    pytest.param(
        TokenForwardingNode, lambda: BottleneckAdversary(), 12, id="forwarding-bottleneck"
    ),
    pytest.param(
        IndexedBroadcastNode,
        lambda: RandomConnectedAdversary(seed=7),
        10,
        id="rlnc-random-connected",
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("factory,adversary_factory,n", PAIRS)
    def test_identical_metrics_and_knowledge(self, factory, adversary_factory, n):
        config = make_config(n)
        results = {
            engine: _run(
                factory,
                config,
                adversary_factory(),
                engine=engine,
                track_progress=True,
            )
            for engine in ("kernel", "mask")
        }
        kernel, mask = results["kernel"], results["mask"]
        assert mask.completed and mask.correct
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)
        assert kernel.correct == mask.correct
        for kernel_node, mask_node in zip(kernel.nodes, mask.nodes):
            assert kernel_node.known_token_ids() == mask_node.known_token_ids()

    def test_recorded_topologies_match_across_engines(self):
        config = make_config(10)
        kernel, mask = (
            _run(
                TokenForwardingNode,
                config,
                TStableAdversary(PathShuffleAdversary(seed=4), 3),
                engine=engine,
                record_topologies=True,
            )
            for engine in ("kernel", "mask")
        )
        assert len(kernel.topologies) == len(mask.topologies)
        for kernel_topology, mask_topology in zip(kernel.topologies, mask.topologies):
            assert isinstance(kernel_topology, Topology)
            assert isinstance(mask_topology, Topology)
            assert kernel_topology.edges == mask_topology.edges
        # The stability checkers consume Topology objects and their
        # networkx projections identically.
        projected = [topology.to_nx() for topology in mask.topologies]
        assert is_t_stable(mask.topologies, 3) == is_t_stable(projected, 3)
        assert max_stability(mask.topologies) == max_stability(projected)


class MutatingGraphAdversary(BottleneckAdversary):
    """Rewires and re-returns ONE ``nx.Graph`` object every round — a legal
    adversary pattern the runner must not serve stale conversions for.
    With ``fresh=True`` it returns a new copy of that graph instead, which
    no identity cache can confuse."""

    def __init__(self, fresh: bool = False):
        super().__init__()
        self._graph = nx.Graph()
        self._fresh = fresh

    def choose_topology(self, round_index, n, states, messages=None):
        fresh = super().choose_topology(round_index, n, states, messages)
        self._graph.clear()
        self._graph.add_nodes_from(range(n))
        self._graph.add_edges_from(fresh.edges)
        return self._graph.copy() if self._fresh else self._graph


class TestEngineEquivalence2:
    def test_mutated_reused_nx_graph_not_served_stale(self):
        # Regression: the validation cache must key only on immutable
        # Topology objects; an nx.Graph mutated in place between rounds has
        # the same id but different edges.
        config = make_config(10)
        reused = _run(TokenForwardingNode, config, MutatingGraphAdversary(), engine="mask")
        fresh = _run(
            TokenForwardingNode, config, MutatingGraphAdversary(fresh=True), engine="mask"
        )
        assert reused.completed and reused.correct
        assert dataclasses.asdict(reused.metrics) == dataclasses.asdict(fresh.metrics)


# ----------------------------------------------------------------------
# the mask engine's bookkeeping against an independent rebuild
# ----------------------------------------------------------------------


class ProbingAdversary(Adversary):
    """Delegates to ``inner`` and, at every round's topology choice (that
    is, after the previous round's deliveries), checks each node's
    ``knowledge_mask()`` against a mask rebuilt from its ``known`` dict and
    records whether every node's ``known_token_ids()`` covers every
    placement id.  Shares no code with the runner's mask bookkeeping."""

    def __init__(self, inner, nodes, placement):
        self.inner = inner
        self.nodes = nodes
        self.ids = placement.all_ids()
        self.index = {tid: bit for bit, tid in enumerate(sorted(self.ids))}
        self.all_complete: list[bool] = []

    @property
    def sees_messages(self) -> bool:  # type: ignore[override]
        return self.inner.sees_messages

    def reset(self) -> None:
        self.inner.reset()
        self.all_complete.clear()

    def check(self) -> None:
        for node in self.nodes:
            rebuilt = sum(1 << self.index[tid] for tid in node.known if tid in self.index)
            assert node.knowledge_mask() == rebuilt, node.uid
        self.all_complete.append(
            all(self.ids <= node.known_token_ids() for node in self.nodes)
        )

    def choose_topology(self, round_index, n, states, *messages):
        self.check()
        return self.inner.choose_topology(round_index, n, states, *messages)


PROBED = [
    pytest.param(TokenForwardingNode, 0, id="forwarding"),
    pytest.param(IndexedBroadcastNode, 0, id="indexed-broadcast"),
    pytest.param(GreedyForwardNode, 0, id="greedy"),
    pytest.param(NaiveCodedNode, 0, id="naive-coded"),
    pytest.param(RandomForwardNode, 0, id="random-forward"),
    pytest.param(PipelinedTokenForwardingNode, 0, id="pipelined-forward"),
    pytest.param(PriorityForwardNode, 64, id="priority-forward"),
    pytest.param(CentralizedCodedNode, 16, id="centralized"),
    pytest.param(None, 0, id="tstable-patches"),
]


class TestMaskTrackingInvariant:
    @pytest.mark.parametrize("scenario", ["edge_markov_stable4", "crash_recover_churn"])
    @pytest.mark.parametrize("protocol,b", PROBED)
    def test_masks_and_completion_round_match_an_independent_rebuild(
        self, protocol, b, scenario
    ):
        n, k = 12, 10
        config = make_config(n, k, b=b or None, stability=4)
        placement = standard_instance(n, k, config.token_bits, seed=1)
        inner = make_tstable_factory(config, seed=1) if protocol is None else protocol
        nodes: list = []

        def factory(uid, node_config, rng):
            nodes.append(inner(uid, node_config, rng))
            return nodes[-1]

        probe = ProbingAdversary(make_scenario(scenario, n, seed=1), nodes, placement)
        result = run_dissemination(
            factory,
            config,
            placement,
            probe,
            seed=1,
            engine="mask",
            faults=fault_model_for(scenario, n, seed=1),
            stop_at_completion=False,
            max_rounds=120,
        )
        assert result.engine == "mask" and result.nodes == nodes
        probe.check()  # the state after the last executed round
        # all_complete[r] describes the state after r rounds.
        assert len(probe.all_complete) == result.metrics.rounds_executed + 1
        first = next(
            (r for r, done in enumerate(probe.all_complete) if done and r > 0), None
        )
        assert result.metrics.completion_round == first


class OpaqueKnowledgeNode(TokenForwardingNode):
    """Same behaviour, but overrides ``known_token_ids`` — the runner can no
    longer trust the ``known`` dict to be authoritative for such a class."""

    def known_token_ids(self) -> frozenset:
        return frozenset(self.known)


class NeverAskedAdversary(BottleneckAdversary):
    def choose_topology(self, round_index, n, states, messages=None):
        raise AssertionError("the run reached round 0")


class TestEngineSelection:
    def test_auto_prefers_mask_engine(self):
        config = make_config(8)
        result = _run(
            TokenForwardingNode,
            config,
            BottleneckAdversary(),
            engine="auto",
            record_topologies=True,
        )
        assert result.completed
        assert all(isinstance(t, Topology) for t in result.topologies)

    @pytest.mark.parametrize("engine", ["auto", "mask", "kernel"])
    def test_every_engine_rejects_opaque_protocols(self, engine):
        config = make_config(8)
        with pytest.raises(ValueError, match="knowledge-mask"):
            _run(OpaqueKnowledgeNode, config, NeverAskedAdversary(), engine=engine)

    def test_unknown_engine_rejected(self):
        config = make_config(8)
        with pytest.raises(ValueError, match="engine"):
            _run(TokenForwardingNode, config, BottleneckAdversary(), engine="turbo")


class TestValidationCache:
    def test_static_topology_validated_once(self, monkeypatch):
        calls = {"n": 0}
        original = Topology.validate

        def counting_validate(self, n=None):
            calls["n"] += 1
            return original(self, n)

        monkeypatch.setattr(Topology, "validate", counting_validate)
        config = make_config(8)
        result = _run(
            TokenForwardingNode,
            config,
            StaticAdversary(ring_topology(8)),
            engine="mask",
        )
        assert result.metrics.rounds_executed > 5
        # Once inside StaticAdversary's own constructor-time check, once in
        # the runner's identity-keyed cache — never once per round.
        assert calls["n"] <= 2

    def test_tstable_blocks_validated_once_per_block(self, monkeypatch):
        calls = {"n": 0}
        original = Topology.validate

        def counting_validate(self, n=None):
            calls["n"] += 1
            return original(self, n)

        monkeypatch.setattr(Topology, "validate", counting_validate)
        stability = 5
        config = make_config(8, stability=stability)
        result = _run(
            TokenForwardingNode,
            config,
            TStableAdversary(PathShuffleAdversary(seed=1), stability),
            engine="mask",
        )
        rounds = result.metrics.rounds_executed
        assert rounds > stability
        blocks = -(-rounds // stability)
        assert calls["n"] <= blocks + 1


class TestNodeSeeding:
    """``build_nodes`` derives node randomness via ``rng.spawn``.

    Seed-compat note: before the round-engine PR, children were re-seeded
    with ``default_rng(rng.integers(0, 2**63 - 1))`` — a single 63-bit draw
    with a documented-exclusive upper bound.  The spawn scheme produces
    statistically independent SeedSequence streams instead; executions for a
    given master seed are still fully deterministic, but differ from runs
    recorded under the old scheme.
    """

    def test_spawn_streams_deterministic(self, rng):
        config = make_config(6)
        placement = standard_instance(6, 6, 8, seed=0)
        draws = []
        for _ in range(2):
            nodes = build_nodes(
                IndexedBroadcastNode, config, placement, np.random.default_rng(42)
            )
            draws.append([node.rng.integers(0, 2**32) for node in nodes])
        assert draws[0] == draws[1]

    def test_spawn_streams_differ_across_nodes(self):
        config = make_config(6)
        placement = standard_instance(6, 6, 8, seed=0)
        nodes = build_nodes(
            IndexedBroadcastNode, config, placement, np.random.default_rng(42)
        )
        first_draws = {int(node.rng.integers(0, 2**63)) for node in nodes}
        assert len(first_draws) == len(nodes)

    def test_full_run_deterministic_for_fixed_seed(self):
        config = make_config(8)
        first = _run(IndexedBroadcastNode, config, BottleneckAdversary(), engine="auto")
        second = _run(IndexedBroadcastNode, config, BottleneckAdversary(), engine="auto")
        assert dataclasses.asdict(first.metrics) == dataclasses.asdict(second.metrics)
