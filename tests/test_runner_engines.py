"""Equivalence and contract tests for the runner's two execution engines.

The kernel engine (packed whole-network arrays) and the mask engine
(per-node objects, bitmask topologies, remembered validation, lazy
state views, incremental ``knowledge_mask`` tracking) implement the
identical round semantics; these tests pin that equivalence across
protocol/adversary pairs, check the mask engine's bookkeeping against an
independent rebuild from each node's ``known`` dict, and cover the auto
engine selection rules, the opaque-protocol rejection, the
once-per-topology validation, and the ``rng.spawn`` node-seeding
scheme.  The mask engine's per-round shortcuts (completion re-tests
only for grown nodes, reused compose arrays) are checked against runs
whose answer is known in closed form.
"""

from __future__ import annotations

import dataclasses

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
from repro.algorithms.base import ProtocolNode
from repro.network import FaultModel
from repro.network.adversary import Adversary
from repro.network.stability import is_t_stable
from repro.scenarios import fault_model_for, make_scenario
from repro.simulation import kernels, run_dissemination, standard_instance
from repro.simulation import runner
from repro.simulation.metrics import RunMetrics
from repro.simulation.runner import ObjectKernel, build_nodes
from repro.tokens import ControlMessage
from tests.conftest import RecordingAdversary, make_config, nx_graph


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
        recorded = {}
        for engine in ("kernel", "mask"):
            adversary = RecordingAdversary(TStableAdversary(PathShuffleAdversary(seed=4), 3))
            _run(TokenForwardingNode, config, adversary, engine=engine)
            recorded[engine] = adversary.topologies
        kernel, mask = recorded["kernel"], recorded["mask"]
        assert len(kernel) == len(mask)
        for kernel_topology, mask_topology in zip(kernel, mask):
            assert isinstance(kernel_topology, Topology)
            assert isinstance(mask_topology, Topology)
            assert kernel_topology.edges == mask_topology.edges
        assert is_t_stable(mask, 3)


class NetworkxAdversary(BottleneckAdversary):
    """Returns each round's bottleneck topology as a ``networkx.Graph``,
    which is not a round topology: adversaries return ``Topology``."""

    def __init__(self):
        super().__init__()
        self.rounds: list[int] = []

    def choose_topology(self, round_index, n, state, messages=None):
        self.rounds.append(round_index)
        return nx_graph(super().choose_topology(round_index, n, state, messages))


class TestTopologyTypeGate:
    @pytest.mark.parametrize("engine", ["kernel", "mask"])
    def test_networkx_graph_rejected_in_round_zero(self, engine):
        adversary = NetworkxAdversary()
        with pytest.raises(TypeError, match="returned Graph; expected Topology"):
            _run(TokenForwardingNode, make_config(10), adversary, engine=engine)
        assert adversary.rounds == [0]

    @pytest.mark.parametrize("engine", ["kernel", "mask"])
    def test_disconnected_topology_after_reused_one_rejected(self, engine):
        # A reused topology passes on the validation it remembers; a fresh
        # illegal one after rounds of it still fails.
        with pytest.raises(ValueError, match="connected"):
            _run(
                TokenForwardingNode,
                make_config(10),
                ReusedThenDisconnectedAdversary(),
                engine=engine,
            )


class ReusedThenDisconnectedAdversary(Adversary):
    """Returns one path object for rounds 0-2, then a disconnected graph."""

    def __init__(self):
        self._path: Topology | None = None

    def choose_topology(self, round_index, n, state, messages=None):
        if round_index >= 3:
            return Topology.from_edges(n, [(u, u + 1) for u in range(n - 2)])
        if self._path is None:
            self._path = Topology.from_edges(n, [(u, u + 1) for u in range(n - 1)])
        return self._path


# ----------------------------------------------------------------------
# the mask engine's bookkeeping against an independent rebuild
# ----------------------------------------------------------------------


class ProbingAdversary(Adversary):
    """Delegates to ``inner`` and, at every round's topology choice (that
    is, after the previous round's deliveries), checks each node's
    ``knowledge_mask()`` against a mask rebuilt from its ``known`` dict,
    and the object kernel's ``completed_flags()`` against whether each
    node's ``known_token_ids()`` covers every placement id; records whether
    every node's does.  Shares no code with the runner's mask bookkeeping."""

    def __init__(self, inner, nodes, placement):
        self.inner = inner
        self.nodes = nodes
        self.ids = placement.all_ids()
        self.index = {tid: bit for bit, tid in enumerate(sorted(self.ids))}
        self.all_complete: list[bool] = []
        #: The run's ObjectKernel, installed when the runner builds it.
        self.kernel: ObjectKernel | None = None

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
        complete = [self.ids <= node.known_token_ids() for node in self.nodes]
        assert self.kernel is not None
        assert self.kernel.completed_flags().tolist() == complete
        self.all_complete.append(all(complete))

    def choose_topology(self, round_index, n, state, *messages):
        self.check()
        return self.inner.choose_topology(round_index, n, state, *messages)


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
        self, protocol, b, scenario, monkeypatch
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

        class RecordingKernel(ObjectKernel):
            def __init__(self, *args):
                super().__init__(*args)
                probe.kernel = self

        monkeypatch.setattr(runner, "ObjectKernel", RecordingKernel)
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
    def choose_topology(self, round_index, n, state, messages=None):
        raise AssertionError("the run reached round 0")


class TestEngineSelection:
    def test_auto_prefers_mask_engine(self):
        config = make_config(8)
        adversary = RecordingAdversary(BottleneckAdversary())
        result = _run(TokenForwardingNode, config, adversary, engine="auto")
        assert result.completed
        assert adversary.topologies
        assert all(isinstance(t, Topology) for t in adversary.topologies)

    @pytest.mark.parametrize("engine", ["auto", "mask", "kernel"])
    def test_every_engine_rejects_opaque_protocols(self, engine):
        config = make_config(8)
        with pytest.raises(ValueError, match="knowledge-mask"):
            _run(OpaqueKnowledgeNode, config, NeverAskedAdversary(), engine=engine)

    def test_unknown_engine_rejected(self):
        config = make_config(8)
        with pytest.raises(ValueError, match="engine"):
            _run(TokenForwardingNode, config, BottleneckAdversary(), engine="turbo")


class HandBuiltPathShuffleAdversary(PathShuffleAdversary):
    """PathShuffleAdversary's paths rebuilt from their edges, so no round's
    topology arrives pre-validated."""

    def choose_topology(self, round_index, n, state, messages=None):
        path = super().choose_topology(round_index, n, state, messages)
        return Topology.from_edges(n, path.edges)


def _count_full_validations(monkeypatch) -> dict[str, int]:
    """Count the ``Topology.validate`` calls that check the graph itself.

    The runner validates every round's topology, but a topology that
    already passed remembers it, and such a call is a flag test.
    """
    calls = {"full": 0}
    original = Topology.validate

    def counting_validate(self, n=None):
        calls["full"] += not self._valid
        return original(self, n)

    monkeypatch.setattr(Topology, "validate", counting_validate)
    return calls


class TestValidationCache:
    def test_static_topology_validated_once(self, monkeypatch):
        calls = _count_full_validations(monkeypatch)
        ring = Topology.from_edges(8, [(u, (u + 1) % 8) for u in range(8)])
        config = make_config(8)
        result = _run(
            TokenForwardingNode,
            config,
            StaticAdversary(ring),
            engine="mask",
        )
        assert result.metrics.rounds_executed > 5
        # Once, inside StaticAdversary's own constructor-time check — never
        # once per round.
        assert calls["full"] == 1

    def test_tstable_blocks_validated_once_per_block(self, monkeypatch):
        calls = _count_full_validations(monkeypatch)
        stability = 5
        config = make_config(8, stability=stability)
        result = _run(
            TokenForwardingNode,
            config,
            TStableAdversary(HandBuiltPathShuffleAdversary(seed=1), stability),
            engine="mask",
        )
        rounds = result.metrics.rounds_executed
        assert rounds > stability
        blocks = -(-rounds // stability)
        assert calls["full"] == blocks


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


class _Teacher:
    """Teaches node ``uid`` the placement in one hook: half at round ``uid``,
    the rest at round ``uid + 1``.  As a ``shared_coordinator`` it does so
    in ``after_round``."""

    def __init__(self, tokens, hook):
        self.tokens = list(tokens)
        self.hook = hook

    def teach(self, node, round_index, hook):
        if hook != self.hook:
            return
        half = len(self.tokens) // 2
        lesson = {node.uid: self.tokens[:half], node.uid + 1: self.tokens[half:]}
        for token in lesson.get(round_index, ()):
            node._learn_token(token)

    def on_topology(self, round_index, topology, nodes):
        pass

    def after_round(self, round_index, topology, nodes):
        for node in nodes:
            self.teach(node, round_index, "after_round")


class _TaughtNode(ProtocolNode):
    """A silent node that learns only from its :class:`_Teacher`."""

    def __init__(self, uid, config, rng, teacher):
        super().__init__(uid, config, rng)
        self.teacher = teacher
        if teacher.hook == "after_round":
            self.shared_coordinator = teacher

    def compose(self, round_index):
        self.teacher.teach(self, round_index, "compose")
        return None

    def deliver(self, round_index, messages):
        self.teacher.teach(self, round_index, "deliver")


class TestCompletionRefresh:
    """The mask engine re-tests completion only for nodes whose ``len(known)``
    moved; growth must be caught wherever it happens, in the same round."""

    @pytest.mark.parametrize("faults", [None, FaultModel(loss=0.1)], ids=["benign", "lossy"])
    @pytest.mark.parametrize("hook", ["deliver", "compose", "after_round"])
    def test_completion_round_wherever_nodes_learn(self, hook, faults):
        n, k = 6, 6
        config = make_config(n, k)
        placement = standard_instance(n, k, config.token_bits, seed=1)
        teacher = _Teacher(placement.tokens, hook)
        result = run_dissemination(
            lambda uid, node_config, rng: _TaughtNode(uid, node_config, rng, teacher),
            config,
            placement,
            StaticAdversary(ring_topology),
            engine="mask",
            faults=faults,
            max_rounds=3 * n,
        )
        # Node n - 1 learns its last tokens in round n: complete after n + 1.
        assert result.metrics.completion_round == n + 1
        if faults is not None:
            assert result.metrics.survivor_completion_round == n + 1
        assert result.correct


class _FixedControlNode(IndexedBroadcastNode):
    """Indexed broadcast that composes one fixed ControlMessage object.

    Every round is then a quiet round for the mask engine, and the message
    differs in size from a replayed coded vector.
    """

    def compose(self, round_index):
        if not hasattr(self, "fixed"):
            self.fixed = ControlMessage(sender=self.uid, fields={"hello": self.uid})
        return self.fixed


class _RecordingObjectKernel(ObjectKernel):
    def compose_all(self, round_index):
        arrays = super().compose_all(round_index)
        self.returned.append(arrays)
        return arrays


class TestQuietRoundAfterOverride:
    """A Byzantine-replay override writes the substitute's size into the
    round's ``sizes``; the next quiet round must account honest sizes."""

    def test_sizes_recomputed_after_override(self):
        n, k, byzantine, rounds = 8, 6, 3, 9
        config = make_config(n, k)
        placement = standard_instance(n, k, config.token_bits, seed=2)
        nodes = build_nodes(_FixedControlNode, config, placement, np.random.default_rng(0))
        token_index = {tid: i for i, tid in enumerate(sorted(placement.all_ids()))}
        for node in nodes:
            assert node.enable_mask_tracking(token_index)
        kernel = _RecordingObjectKernel(config, placement, token_index, nodes)
        kernel.returned = []
        bound = FaultModel(byzantine=(byzantine,), byzantine_mode="replay").bind(
            n, np.random.default_rng(1)
        )
        bound.attach_guard(runner._coded_span_guard(nodes))
        assert bound.guard is not None
        begin_round = bound.begin_round

        def every_other_round(round_index):
            # Substitute in even rounds only, so each override round is
            # followed by a quiet round without one.
            plan = begin_round(round_index)
            if round_index % 2:
                plan.substitute = {}
            return plan

        bound.begin_round = every_other_round
        metrics = RunMetrics()
        kernels.run_rounds(
            kernel,
            config,
            StaticAdversary(ring_topology),
            metrics,
            max_rounds=rounds,
            stop_at_completion=False,
            track_progress=False,
            faults=bound,
        )
        honest = [node.fixed.size_bits for node in nodes]
        replayed = nodes[byzantine].generation.message_from_mask(
            byzantine, bound.guard.replay_mask
        ).size_bits
        assert replayed != honest[byzantine]
        overrides = (rounds + 1) // 2
        assert metrics.total_message_bits == rounds * sum(honest) + overrides * (
            replayed - honest[byzantine]
        )
        assert metrics.max_message_bits == max(max(honest), replayed)
        assert metrics.broadcasts == rounds * n
        # The quiet rounds did hand back last round's arrays.
        returned = kernel.returned
        assert any(a[1] is b[1] for a, b in zip(returned, returned[1:]))
