"""Equivalence and contract tests for the vectorised kernel engine.

The kernel engine (packed knowledge matrices, CSR delivery, whole-network
compose/deliver array ops — see :mod:`repro.simulation.kernels`) implements
the identical round semantics as the mask engine; these tests pin metric
and knowledge equivalence across protocol/adversary pairs, the ``auto``
selection rules (kernel > mask), the packed-adjacency / CSR
representations on :class:`~repro.network.topology.Topology`, and the
``to_nodes`` materialisation that keeps ``RunResult.nodes`` usable.
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
from repro.coding.rlnc import GenerationState
from repro.network import (
    BottleneckAdversary,
    OmniscientBottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
    TStableAdversary,
    Topology,
    ring_topology,
)
from repro.simulation import kernel_for, run_dissemination, standard_instance
from repro.simulation.kernels import (
    KERNEL_REGISTRY,
    IndexedBroadcastKernel,
    TokenForwardingKernel,
)
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
        runs = {
            engine: _run(
                TokenForwardingNode,
                config,
                TStableAdversary(PathShuffleAdversary(seed=4), 3),
                engine=engine,
                record_topologies=True,
            )
            for engine in ("kernel", "mask")
        }
        kernel, mask = runs["kernel"], runs["mask"]
        assert len(kernel.topologies) == len(mask.topologies)
        for kernel_topology, mask_topology in zip(kernel.topologies, mask.topologies):
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

    def test_kernel_engine_rejects_omniscient_without_message_views(
        self, monkeypatch
    ):
        # Every in-repo kernel now ships wire_message; exercise the gate by
        # withdrawing the opt-in, as a third-party kernel without the hook
        # would present itself.
        monkeypatch.setattr(IndexedBroadcastKernel, "supports_message_views", False)
        config = make_config(8)
        with pytest.raises(ValueError, match="sees_messages"):
            _run(
                IndexedBroadcastNode,
                config,
                OmniscientBottleneckAdversary(),
                engine="kernel",
            )
        fallback = _run(
            IndexedBroadcastNode, config, OmniscientBottleneckAdversary(), engine="auto"
        )
        assert fallback.engine == "mask"

    def test_auto_with_omniscient_adversary_uses_message_views(self):
        # Kernels with wire_message stay kernel-eligible under omniscient
        # adversaries — including the coded kernel, which rebuilds its wire
        # messages from the round's combination on demand.
        assert TokenForwardingKernel.supports_message_views is True
        assert IndexedBroadcastKernel.supports_message_views is True
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

    def test_node_level_precondition_falls_back_under_auto(self, monkeypatch):
        # Forcing GenerationState off the mask-native pipeline is only
        # visible on the built nodes: auto must fall back to the mask
        # engine, an explicit engine="kernel" must fail loudly.
        original_init = GenerationState.__init__

        def array_pipeline_init(self, generation):
            original_init(self, generation)
            self._mask_native = False

        monkeypatch.setattr(GenerationState, "__init__", array_pipeline_init)
        config = make_config(8)
        result = _run(IndexedBroadcastNode, config, RandomConnectedAdversary(seed=1), engine="auto")
        assert result.engine == "mask"
        with pytest.raises(ValueError, match="mask-native"):
            _run(IndexedBroadcastNode, config, RandomConnectedAdversary(seed=1), engine="kernel")


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
            neighbours = list(topology.neighbors(uid))
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
