"""Equivalence and contract tests for the vectorised kernel engine.

The kernel engine (packed knowledge matrices, CSR delivery, whole-network
compose/deliver array ops — see :mod:`repro.simulation.kernels`) implements
the identical round semantics as the mask engine; these tests pin metric
and knowledge equivalence across protocol/adversary pairs, the ``auto``
selection rules (kernel > mask), the packed-adjacency / CSR
representations on :class:`~repro.network.topology.Topology`, the
``to_nodes`` materialisation that keeps ``RunResult.nodes`` usable, and
the forwarding kernel's saturated-round skip and quiet-round compose
against twins that take neither shortcut, and the round loop's reuse of
its broadcast accounting against a kernel that never allows it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
    PipelinedTokenForwardingNode,
    PriorityForwardNode,
    RandomForwardNode,
    TokenForwardingNode,
)
from repro.bits import masks_to_packed
from repro.coding.rlnc import GenerationState
from repro.network import (
    BottleneckAdversary,
    CollisionModel,
    FaultModel,
    OmniscientBottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
    TStableAdversary,
    Topology,
    random_connected_topology,
    ring_topology,
)
from repro.simulation import (
    build_nodes,
    kernel_for,
    kernels,
    run_dissemination,
    standard_instance,
)
from repro.simulation.kernels import (
    KERNEL_REGISTRY,
    IndexedBroadcastKernel,
    RoundKernel,
    TokenForwardingKernel,
)
from repro.scenarios import make_scenario
from repro.simulation.metrics import RunMetrics
from tests.conftest import RecordingAdversary, make_config


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


class TestKernelEquivalence:
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
        assert kernel.engine == "kernel" and mask.engine == "mask"
        assert kernel.completed and kernel.correct
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)
        assert kernel.correct == mask.correct
        for kernel_node, mask_node in zip(kernel.nodes, mask.nodes):
            assert kernel_node.known_token_ids() == mask_node.known_token_ids()

    @pytest.mark.parametrize("factory,adversary_factory,n", PAIRS)
    def test_static_ring_equivalence(self, factory, adversary_factory, n):
        # Static topologies exercise the cached packed/CSR representations
        # across many rounds of one object.
        config = make_config(n)
        kernel = _run(factory, config, StaticAdversary(ring_topology(n)), engine="kernel")
        mask = _run(factory, config, StaticAdversary(ring_topology(n)), engine="mask")
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)

    def test_recorded_topologies_match_mask_engine(self):
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
            assert kernel_topology == mask_topology

    def test_run_past_completion_equivalence(self):
        # stop_at_completion=False exercises finished_all() on the coded
        # kernel (nodes terminate once decoded).
        config = make_config(8)
        runs = {
            engine: _run(
                IndexedBroadcastNode,
                config,
                RandomConnectedAdversary(seed=2),
                engine=engine,
                stop_at_completion=False,
                max_rounds=60,
            )
            for engine in ("kernel", "mask")
        }
        assert dataclasses.asdict(runs["kernel"].metrics) == dataclasses.asdict(
            runs["mask"].metrics
        )


class StateProbe(BottleneckAdversary):
    """The bottleneck adversary, recording every round's state as it reads it:
    the count and rank columns and the ``knows`` column of each placement
    token and of one id outside the placement."""

    def __init__(self, ids):
        super().__init__()
        self.ids = sorted(ids) + [("not", "placed")]
        self.rounds: list = []

    def choose_topology(self, round_index, n, state, messages=None):
        knows = np.array([state.knows(tid) for tid in self.ids])
        self.rounds.append((state.known_counts.tolist(), state.coded_ranks.tolist(), knows))
        return super().choose_topology(round_index, n, state, messages)


class TestRoundStateParity:
    @pytest.mark.parametrize("factory", [TokenForwardingNode, IndexedBroadcastNode])
    def test_engines_hand_the_adversary_the_same_state(self, factory):
        config = make_config(10)
        placement = standard_instance(config.n, config.k, config.token_bits, seed=3)
        probes = {}
        for engine in ("kernel", "mask"):
            probes[engine] = StateProbe(placement.all_ids())
            run = run_dissemination(
                factory, config, placement, probes[engine], seed=3, engine=engine
            )
            assert run.engine == engine and run.completed
        kernel, mask = probes["kernel"].rounds, probes["mask"].rounds
        assert len(kernel) == len(mask) > 1
        for (k_counts, k_ranks, k_knows), (m_counts, m_ranks, m_knows) in zip(kernel, mask):
            assert k_counts == m_counts and k_ranks == m_ranks
            assert np.array_equal(k_knows, m_knows)
            # A node's count is the number of placement tokens it knows.
            assert k_knows[:-1].sum(axis=0).tolist() == k_counts
            assert not k_knows[-1].any()
        assert kernel[0][2][:-1].sum() == config.k  # round 0: the placement


class TestToNodesParity:
    def test_forwarding_node_state_materialised(self):
        config = make_config(10)
        kernel = _run(TokenForwardingNode, config, BottleneckAdversary(), engine="kernel")
        mask = _run(TokenForwardingNode, config, BottleneckAdversary(), engine="mask")
        assert kernel.correct is True and kernel.correct == mask.correct
        next_round = kernel.metrics.rounds_executed
        for kernel_node, mask_node in zip(kernel.nodes, mask.nodes):
            assert kernel_node.known_token_ids() == mask_node.known_token_ids()
            assert kernel_node.delivered == mask_node.delivered
            # The materialised node keeps working: it composes the same
            # broadcast the object-engine node would.
            assert kernel_node.compose(next_round) == mask_node.compose(next_round)

    def test_correctness_check_runs_on_materialised_payloads(self):
        config = make_config(9)
        placement = standard_instance(9, 9, 8, seed=5)
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            RandomConnectedAdversary(seed=5),
            seed=5,
            engine="kernel",
        )
        assert result.correct is True
        expected = placement.by_id()
        for node in result.nodes:
            decoded = node.decoded_tokens()
            assert set(decoded) == set(expected)
            for token_id, token in expected.items():
                assert decoded[token_id].payload == token.payload


class TweakedForwardingNode(TokenForwardingNode):
    """Behaviourally identical subclass — must NOT inherit the kernel."""


class TestEngineSelection:
    def test_auto_prefers_kernel_engine(self):
        config = make_config(8)
        result = _run(TokenForwardingNode, config, BottleneckAdversary(), engine="auto")
        assert result.engine == "kernel"
        assert result.completed and result.correct

    def test_subclass_falls_back_to_mask(self):
        config = make_config(8)
        result = _run(TweakedForwardingNode, config, BottleneckAdversary(), engine="auto")
        assert result.engine == "mask"
        plain = _run(TokenForwardingNode, config, BottleneckAdversary(), engine="mask")
        assert dataclasses.asdict(result.metrics) == dataclasses.asdict(plain.metrics)

    def test_kernel_engine_rejects_unregistered_protocols(self):
        config = make_config(8)
        with pytest.raises(ValueError, match="RoundKernel"):
            _run(PriorityForwardNode, config, BottleneckAdversary(), engine="kernel")

    def test_auto_with_omniscient_adversary_uses_message_views(self):
        # Kernels with wire_message stay kernel-eligible under omniscient
        # adversaries — including the coded kernel, which rebuilds its wire
        # messages from the round's combination on demand.
        for kernel_cls in (TokenForwardingKernel, IndexedBroadcastKernel):
            assert kernel_cls.wire_message is not RoundKernel.wire_message
        config = make_config(8)
        for factory in (TokenForwardingNode, IndexedBroadcastNode):
            result = _run(
                factory, config, OmniscientBottleneckAdversary(), engine="auto"
            )
            assert result.engine == "kernel"
            mask = _run(
                factory, config, OmniscientBottleneckAdversary(), engine="mask"
            )
            assert dataclasses.asdict(result.metrics) == dataclasses.asdict(
                mask.metrics
            )

    def test_kernel_without_wire_message_cannot_be_built(self):
        # Omniscient adversaries read every kernel's messages, so a kernel
        # that leaves out the hook fails at construction, not mid-run.
        class NoWireMessage(RoundKernel):
            def compose_all(self, round_index):
                raise NotImplementedError

            def deliver_all(self, round_index, indices, indptr, active):
                raise NotImplementedError

            def _known_counts_now(self):
                raise NotImplementedError

            def all_complete(self):
                raise NotImplementedError

            def knows(self, token_id):
                raise NotImplementedError

        with pytest.raises(TypeError, match="wire_message"):
            NoWireMessage(None, None, None, None)

    def test_array_pipeline_nodes_run_on_the_kernel_engine(self, monkeypatch):
        # The coded kernel lifts the nodes' GF(2) subspace rows, which both
        # GenerationState pipelines fill identically: nodes kept off the
        # mask-native pipeline stay kernel-eligible and reproduce the mask
        # engine's metrics.
        config = make_config(8)
        native = _run(IndexedBroadcastNode, config, RandomConnectedAdversary(seed=1), engine="mask")
        original_init = GenerationState.__init__

        def array_pipeline_init(self, generation):
            original_init(self, generation)
            self._mask_native = False

        monkeypatch.setattr(GenerationState, "__init__", array_pipeline_init)
        runs = {
            engine: _run(IndexedBroadcastNode, config, RandomConnectedAdversary(seed=1), engine=engine)
            for engine in ("auto", "mask")
        }
        assert runs["auto"].engine == "kernel"
        assert runs["auto"].completed and runs["auto"].correct
        expected = dataclasses.asdict(native.metrics)
        assert dataclasses.asdict(runs["auto"].metrics) == expected
        assert dataclasses.asdict(runs["mask"].metrics) == expected

    def test_unknown_engine_rejected(self):
        config = make_config(8)
        with pytest.raises(ValueError, match="engine"):
            _run(TokenForwardingNode, config, BottleneckAdversary(), engine="warp")

    def test_kernel_for_screens_configurations(self):
        assert kernel_for(TokenForwardingNode, make_config(8)) is TokenForwardingKernel
        assert kernel_for(TweakedForwardingNode, make_config(8)) is None
        assert kernel_for(lambda uid, config, rng: None, make_config(8)) is None
        assert (
            kernel_for(IndexedBroadcastNode, make_config(8))
            is IndexedBroadcastKernel
        )
        # The coded kernels decline non-GF(2) fields; the deterministic
        # pre-committed-coefficients variant over GF(2) *is* batchable
        # (coefficient parities instead of rng draws).
        assert kernel_for(IndexedBroadcastNode, make_config(8, field_order=3)) is None
        config = make_config(8, extra={"deterministic_schedule": object()})
        assert kernel_for(IndexedBroadcastNode, config) is IndexedBroadcastKernel
        assert kernel_for(PriorityForwardNode, make_config(8)) is None

    def test_only_forwarding_and_indexed_broadcast_have_kernels(self):
        assert KERNEL_REGISTRY == {
            TokenForwardingNode: TokenForwardingKernel,
            IndexedBroadcastNode: IndexedBroadcastKernel,
        }
        retired = (
            GreedyForwardNode,
            NaiveCodedNode,
            RandomForwardNode,
            PipelinedTokenForwardingNode,
        )
        config = make_config(8)
        for factory in retired:
            assert kernel_for(factory, config) is None
            result = _run(factory, config, BottleneckAdversary(), engine="auto", max_rounds=5)
            assert result.engine == "mask"
            with pytest.raises(ValueError, match="RoundKernel"):
                _run(factory, config, BottleneckAdversary(), engine="kernel")



class TestPackedAdjacency:
    @given(
        n=st.integers(min_value=1, max_value=80),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_and_csr_round_trip(self, n, data):
        edge_count = data.draw(st.integers(min_value=0, max_value=3 * n))
        edges = [
            (
                data.draw(st.integers(min_value=0, max_value=n - 1)),
                data.draw(st.integers(min_value=0, max_value=n - 1)),
            )
            for _ in range(edge_count)
        ]
        edges = [(u, v) for u, v in edges if u != v]
        topology = Topology.from_edges(n, edges)

        packed = topology.packed_adjacency()
        assert packed.shape == (n, max(1, (n + 63) // 64))
        assert packed.dtype == np.uint64
        # Row round-trip: packed words are the little-endian limbs of the
        # integer masks.
        for uid in range(n):
            assert (
                int.from_bytes(packed[uid].astype("<u8").tobytes(), "little")
                == topology.masks[uid]
            )

        indices, indptr = topology.csr_adjacency()
        assert indptr[0] == 0 and indptr[-1] == indices.size
        for uid in range(n):
            neighbours = [v for v in range(n) if topology.masks[uid] >> v & 1]
            assert list(indices[indptr[uid] : indptr[uid + 1]]) == neighbours
            assert list(topology.neighbors_tuple(uid)) == neighbours

    def test_from_packed_masks_lazily_equal(self):
        reference = ring_topology(9)
        rebuilt = Topology.from_packed(9, np.array(reference.packed_adjacency()))
        assert rebuilt == reference
        assert hash(rebuilt) == hash(reference)
        assert rebuilt.masks == reference.masks
        assert {frozenset(e) for e in rebuilt.edges} == {
            frozenset(e) for e in reference.edges
        }

    def test_from_packed_validates_shape(self):
        with pytest.raises(ValueError, match="packed adjacency"):
            Topology.from_packed(9, np.zeros((9, 3), dtype=np.uint64))

    def test_hand_built_topologies_still_fully_validated(self):
        # pre_validated is reserved for builders; a hand-built disconnected
        # topology must still be rejected.
        disconnected = Topology(4, [0b0010, 0b0001, 0b1000, 0b0100])
        with pytest.raises(ValueError, match="connected"):
            disconnected.validate(4)
        loop = Topology(2, [0b11, 0b01])
        with pytest.raises(ValueError, match="self-loop"):
            loop.validate(2)

    def test_validate_memoises_success(self):
        topology = Topology(3, [0b010, 0b101, 0b010])
        assert not topology._valid
        topology.validate(3)
        assert topology._valid  # immutable object: validity is permanent

    def test_degenerate_bridge_not_pre_validated(self):
        # A (u, u) bridge writes a self-loop bit; the builder must not
        # certify such a topology, so validate() keeps rejecting it.
        from repro.network.topology import clique_pair_topology

        bad = clique_pair_topology(4, [0, 1], [2, 3], bridges=[(0, 2), (1, 1)])
        with pytest.raises(ValueError, match="self-loop"):
            bad.validate(4)

    def test_from_packed_does_not_freeze_or_alias_caller_array(self):
        source = np.array(ring_topology(8).packed_adjacency())
        topology = Topology.from_packed(8, source)
        source[0, 0] = 0  # caller's array stays writable...
        assert topology.packed_adjacency()[0, 0] != 0  # ...and is not aliased


class _FullDeliveryKernel(TokenForwardingKernel):
    """The forwarding kernel with the saturated-round skip turned off."""

    def compose_all(self, round_index):
        composed = super().compose_all(round_index)
        self._saturated = False
        return composed


class _AlwaysComposeKernel(TokenForwardingKernel):
    """The forwarding kernel with its recompose flag forced on every round."""

    def compose_all(self, round_index):
        self._recompose = True
        return super().compose_all(round_index)


def _drive_forwarding_pair(config, faults, *, rounds, seed, twin_cls=_FullDeliveryKernel):
    """Run the forwarding kernel and a twin with one shortcut off side by side.

    Both kernels see the same topologies and the same fault-edited CSR
    each round; their composed broadcasts must agree, and after every
    delivery so must their ``changed`` flags, knowledge, counts,
    completion and committed tokens.  Returns the number of rounds the
    kernel under test found saturated and the number in which it had
    nothing to recompose.
    """
    placement = standard_instance(config.n, config.k, config.token_bits, seed=seed)
    nodes = build_nodes(TokenForwardingNode, config, placement, np.random.default_rng(seed))
    token_index = {tid: i for i, tid in enumerate(sorted(placement.all_ids()))}
    for node in nodes:
        node.enable_mask_tracking(token_index)
    fast = TokenForwardingKernel(config, placement, token_index, nodes)
    twin = twin_cls(config, placement, token_index, nodes)
    bound = faults.bind(config.n, np.random.default_rng(seed + 1)) if faults.active else None
    topologies = np.random.default_rng(seed + 2)
    full_row = masks_to_packed([(1 << fast.k) - 1], fast.width)[0]
    saturated = quiet = 0
    last = None
    for round_index in range(rounds):
        plan = bound.begin_round(round_index) if bound is not None else None
        topology = random_connected_topology(config.n, topologies, 0.2)
        fast.on_topology(round_index, topology)
        twin.on_topology(round_index, topology)
        quiet += not fast._recompose
        active, sizes = fast.compose_all(round_index)
        twin_active, twin_sizes = twin.compose_all(round_index)
        # compose_all's identity contract: arrays handed back again are
        # unchanged since last round.
        if last is not None and active is last[0]:
            assert sizes is last[1], round_index
            assert np.array_equal(active, last[2]), round_index
            assert np.array_equal(sizes, last[3]), round_index
        last = (active, sizes, active.copy(), sizes.copy())
        assert np.array_equal(active, twin_active), round_index
        assert np.array_equal(sizes, twin_sizes), round_index
        assert np.array_equal(fast._send, twin._send), round_index
        saturated += fast._saturated
        indices, indptr = topology.csr_adjacency()
        sending = active
        if plan is not None:
            indices, indptr = plan.bind_edges(
                indices, indptr, active=active, receivers=topology.csr_receivers()
            )
            sending = active & ~plan.down
            plan.account(sending)
        changed = fast.deliver_all(round_index, indices, indptr, sending)
        twin_changed = twin.deliver_all(round_index, indices, indptr, sending)
        assert np.array_equal(changed, twin_changed), round_index
        assert np.array_equal(fast.known, twin.known), round_index
        assert np.array_equal(fast.delivered, twin.delivered), round_index
        # Counts and completion against fresh reads of the twin's rows,
        # not its caches, which share the code under test.
        counts_now = np.bitwise_count(twin.known).sum(axis=1)
        assert np.array_equal(fast.known_counts(), counts_now), round_index
        assert fast.all_complete() == bool((twin.known == full_row).all()), round_index
    return saturated, quiet


#: Forwarding configurations and fault edits for the twin-kernel tests:
#: loss, duplication, collisions (with and without capture) and
#: crash-recovery intervals, at phase lengths that put commits anywhere.
_FORWARDING_CASES = dict(
    n=st.integers(min_value=2, max_value=10),
    k=st.integers(min_value=1, max_value=12),
    b=st.sampled_from([24, 40, 64, 96]),
    phase_length=st.integers(min_value=1, max_value=12),
    loss=st.sampled_from([0.0, 0.3]),
    duplication=st.sampled_from([0.0, 0.3]),
    collisions=st.sampled_from([None, CollisionModel(0.5), CollisionModel(0.5, capture=True)]),
    crashes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=20),
        ),
        max_size=3,
        unique_by=lambda entry: entry[0],
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)


def _forwarding_case(n, k, b, phase_length, loss, duplication, collisions, crashes):
    config = make_config(n, k=min(k, n), d=8, b=b, extra={"phase_length": phase_length})
    faults = FaultModel(
        loss=loss,
        duplication=duplication,
        collisions=collisions,
        crashes=tuple((uid, down, down + length) for uid, down, length in crashes if uid < n),
    )
    return config, faults


class TestSaturatedDelivery:
    """A round that can teach no node anything skips delivery, exactly.

    The skip's premise is that every inbox is a subset of the OR of all
    send rows however a fault edit drops, repeats or collides the CSR
    entries, so it is checked against a full ``_neighbor_or`` delivery
    under every such edit.
    """

    @given(**_FORWARDING_CASES)
    @settings(max_examples=80, deadline=None)
    def test_skip_matches_full_delivery(self, seed, **case):
        config, faults = _forwarding_case(**case)
        _drive_forwarding_pair(config, faults, rounds=40, seed=seed)

    def test_saturated_rounds_make_no_neighbour_gather(self, monkeypatch):
        gathers = []
        real = kernels._neighbor_or

        def counting(*args, **kwargs):
            gathers.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "_neighbor_or", counting)
        config = make_config(8, k=8, d=8, b=64)
        rounds = 40
        saturated, _ = _drive_forwarding_pair(config, FaultModel(), rounds=rounds, seed=3)
        assert saturated > 0
        # The full-delivery twin gathers every round, the skipping kernel
        # only in rounds that were not saturated.
        assert len(gathers) == 2 * rounds - saturated


class TestQuietCompose:
    """A round after one that touched no row reuses the cached broadcast.

    The recompose flag must be set wherever a row can turn dirty (a
    delivery that was not skipped, a phase commit), so the kernel is
    checked against a twin that recomputes its dirty rows every round.
    """

    @given(**_FORWARDING_CASES)
    @settings(max_examples=80, deadline=None)
    def test_flag_matches_always_compose(self, seed, **case):
        config, faults = _forwarding_case(**case)
        _drive_forwarding_pair(
            config, faults, rounds=40, seed=seed, twin_cls=_AlwaysComposeKernel
        )

    def test_quiet_rounds_happen(self):
        config = make_config(8, k=8, d=8, b=64)
        _, quiet = _drive_forwarding_pair(
            config, FaultModel(), rounds=40, seed=3, twin_cls=_AlwaysComposeKernel
        )
        assert quiet > 0


class _CopyingKernel(TokenForwardingKernel):
    """Hands back fresh copies every round, so run_rounds never reuses."""

    def compose_all(self, round_index):
        active, sizes = super().compose_all(round_index)
        return active.copy(), sizes.copy()


def _run_rounds_with(kernel_cls, config, faults, *, seed, rounds):
    placement = standard_instance(config.n, config.k, config.token_bits, seed=seed)
    nodes = build_nodes(TokenForwardingNode, config, placement, np.random.default_rng(seed))
    token_index = {tid: i for i, tid in enumerate(sorted(placement.all_ids()))}
    for node in nodes:
        node.enable_mask_tracking(token_index)
    kernel = kernel_cls(config, placement, token_index, nodes)
    bound = faults.bind(config.n, np.random.default_rng(seed + 1)) if faults.active else None
    metrics = RunMetrics()
    kernels.run_rounds(
        kernel,
        config,
        RandomConnectedAdversary(seed=seed),
        metrics,
        max_rounds=rounds,
        stop_at_completion=False,
        track_progress=True,
        faults=bound,
    )
    return metrics


class TestBroadcastAccountingReuse:
    """run_rounds reuses last round's broadcast count and bit totals when
    compose_all hands back the very same arrays and no node is down; the
    metrics must equal a run whose kernel never allows the reuse."""

    @pytest.mark.parametrize(
        "faults",
        [
            FaultModel(),
            FaultModel(loss=0.2, duplication=0.1),
            FaultModel(loss=0.2, crashes=((1, 5, 30), (4, 12))),
        ],
        ids=["benign", "loss-dup", "crashes"],
    )
    def test_reuse_matches_fresh_accounting(self, faults):
        config = make_config(8, k=8, d=8, b=40)
        reused = _run_rounds_with(TokenForwardingKernel, config, faults, seed=5, rounds=60)
        fresh = _run_rounds_with(_CopyingKernel, config, faults, seed=5, rounds=60)
        assert dataclasses.asdict(reused) == dataclasses.asdict(fresh)
        assert reused.broadcasts > 0


class TestCrashRecoveryStall:
    """Token forwarding under crash-recovery: a node that was down while a
    batch flooded misses it, every other node commits the batch as
    delivered and never sends it again, so the recovered survivor never
    completes and the run spins to its round limit.  Strict: a fix flips
    this test."""

    @pytest.mark.xfail(
        strict=True,
        reason="forwarding never re-sends a committed batch to a node that was down",
    )
    def test_survivors_complete_after_recovery(self):
        n = k = 32
        config = make_config(n, k=k, d=8)
        placement = standard_instance(n, k, 8, seed=0)
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            make_scenario("edge_markov", n, seed=3),
            engine="kernel",
            faults=FaultModel(loss=0.2, crashes=((3, 20, 90), (11, 50, 200))),
            max_rounds=2000,
        )
        assert result.metrics.survivor_completion_round is not None
