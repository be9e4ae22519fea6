"""Engine-equivalence and contract tests for the coded round kernel.

The indexed-broadcast kernel (:mod:`repro.simulation.coded_kernels`) runs
whole-network rounds on the batched GF(2) elimination core; these tests pin
byte-identical :class:`~repro.simulation.metrics.RunMetrics` across the
kernel and mask engines for indexed broadcast — randomized *and*
deterministic-schedule — over the whole dynamic-scenario catalog and the
hand-written adversaries, plus the coded engine-selection rules (the other
coded protocols run on the mask engine) and the ``to_nodes``
materialisation guarantees (post-run compose stream parity).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms import (
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
)
from repro.coding.deterministic import DeterministicSchedule
from repro.network import (
    BottleneckAdversary,
    RandomConnectedAdversary,
    ShiftedRingAdversary,
    StaticAdversary,
    ring_topology,
)
from repro.scenarios import SCENARIOS, scenario_for
from repro.simulation import kernel_for, run_dissemination, standard_instance
from repro.simulation.kernels import IndexedBroadcastKernel
from tests.conftest import make_config

ENGINES = ("kernel", "mask")


def _run_all_engines(factory, config, adversary_factory, *, seed=3, **kwargs):
    placement = standard_instance(config.n, config.k, config.token_bits, seed=seed)
    return {
        engine: run_dissemination(
            factory,
            config,
            placement,
            adversary_factory(),
            seed=seed,
            engine=engine,
            track_progress=True,
            **kwargs,
        )
        for engine in ENGINES
    }


def _assert_identical(results, expect_kernel=True):
    kernel = results["kernel"]
    if expect_kernel:
        assert kernel.engine == "kernel"
    mask = results["mask"]
    assert dataclasses.asdict(mask.metrics) == dataclasses.asdict(kernel.metrics)
    for kernel_node, mask_node in zip(kernel.nodes, mask.nodes):
        assert list(kernel_node.known) == list(mask_node.known)
    return kernel


class TestIndexedBroadcastAcrossScenarios:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_randomized_catalog_equivalence(self, scenario):
        n = 10
        config = make_config(n)
        results = _run_all_engines(
            IndexedBroadcastNode, config, scenario_for(scenario, n, seed=5)
        )
        kernel = _assert_identical(results)
        assert kernel.completed and kernel.correct

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_deterministic_schedule_catalog_equivalence(self, scenario):
        # Corollary 6.2's pre-committed coefficient variant over GF(2): no
        # rng draws at all, coefficients straight from the schedule.
        n = 10
        config = make_config(
            n, extra={"deterministic_schedule": DeterministicSchedule(field_order=2, seed=9)}
        )
        results = _run_all_engines(
            IndexedBroadcastNode, config, scenario_for(scenario, n, seed=5)
        )
        _assert_identical(results)

    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: RandomConnectedAdversary(seed=7),
            lambda: ShiftedRingAdversary(),
            lambda: BottleneckAdversary(),
            lambda: StaticAdversary(ring_topology(12)),
        ],
        ids=["random-connected", "shifted-ring", "bottleneck", "static-ring"],
    )
    def test_hand_written_adversaries(self, adversary_factory):
        config = make_config(12)
        results = _run_all_engines(IndexedBroadcastNode, config, adversary_factory)
        kernel = _assert_identical(results)
        assert kernel.completed and kernel.correct

    def test_to_nodes_materialises_stream_compatible_state(self):
        # Post-run, the materialised nodes carry the full received subspace
        # and the synchronised pick buffer, so they compose exactly what the
        # object-engine nodes would next.
        config = make_config(10)
        placement = standard_instance(10, 10, 8, seed=3)
        runs = {
            engine: run_dissemination(
                IndexedBroadcastNode,
                config,
                placement,
                RandomConnectedAdversary(seed=7),
                seed=3,
                engine=engine,
            )
            for engine in ("kernel", "mask")
        }
        next_round = runs["kernel"].metrics.rounds_executed
        for kernel_node, mask_node in zip(runs["kernel"].nodes, runs["mask"].nodes):
            assert kernel_node._decoded == mask_node._decoded
            assert kernel_node.coded_rank() == mask_node.coded_rank()
            assert (
                kernel_node.state.subspace.basis_masks()
                == mask_node.state.subspace.basis_masks()
            )
            assert kernel_node.compose(next_round) == mask_node.compose(next_round)

    def test_run_past_completion_equivalence(self):
        config = make_config(9)
        results = _run_all_engines(
            IndexedBroadcastNode,
            config,
            lambda: RandomConnectedAdversary(seed=2),
            stop_at_completion=False,
            max_rounds=60,
        )
        _assert_identical(results)


class TestCodedEngineSelection:
    @pytest.mark.parametrize(
        "factory,engine",
        [
            (IndexedBroadcastNode, "kernel"),
            (NaiveCodedNode, "mask"),
            (GreedyForwardNode, "mask"),
        ],
    )
    def test_auto_engine_for_coded_protocols(self, factory, engine):
        config = make_config(8)
        placement = standard_instance(8, 8, 8, seed=1)
        result = run_dissemination(
            factory,
            config,
            placement,
            RandomConnectedAdversary(seed=1),
            seed=1,
            engine="auto",
        )
        assert result.engine == engine
        assert result.completed and result.correct

    def test_greedy_forward_does_not_fall_past_mask_under_auto(self):
        # Degenerate phase windows still resolve to the mask engine.
        config = make_config(8, extra={"gather_rounds": 0})
        assert kernel_for(GreedyForwardNode, config) is None
        placement = standard_instance(8, 8, 8, seed=1)
        result = run_dissemination(
            GreedyForwardNode,
            config,
            placement,
            RandomConnectedAdversary(seed=1),
            seed=1,
            engine="auto",
            max_rounds=40,
        )
        assert result.engine == "mask"

    def test_deterministic_schedule_runs_on_kernel_engine(self):
        config = make_config(
            8, extra={"deterministic_schedule": DeterministicSchedule(field_order=2, seed=1)}
        )
        placement = standard_instance(8, 8, 8, seed=1)
        result = run_dissemination(
            IndexedBroadcastNode,
            config,
            placement,
            RandomConnectedAdversary(seed=1),
            seed=1,
            engine="kernel",
        )
        assert result.engine == "kernel"
        assert result.completed and result.correct

    def test_non_gf2_fields_fall_back(self):
        assert kernel_for(IndexedBroadcastNode, make_config(8, field_order=3)) is None

    def test_non_canonical_indexing_falls_back_to_mask(self):
        # index_of mappings that are not a bijection onto 0..k-1 decline the
        # kernel at construction; auto lands on the mask engine, an explicit
        # request fails loudly.
        placement = standard_instance(8, 8, 8, seed=1)
        ids = sorted(placement.all_ids())
        index_of = {tid: 0 for tid in ids}  # everything collides on index 0
        config = make_config(8, extra={"index_of": index_of})
        assert kernel_for(IndexedBroadcastNode, config) is IndexedBroadcastKernel
        result = run_dissemination(
            IndexedBroadcastNode,
            config,
            placement,
            RandomConnectedAdversary(seed=1),
            seed=1,
            engine="auto",
            max_rounds=30,
        )
        assert result.engine == "mask"
        with pytest.raises(ValueError, match="canonical"):
            run_dissemination(
                IndexedBroadcastNode,
                config,
                placement,
                RandomConnectedAdversary(seed=1),
                seed=1,
                engine="kernel",
                max_rounds=30,
            )

    def test_registered_kernels_resolve(self):
        assert kernel_for(IndexedBroadcastNode, make_config(8)) is IndexedBroadcastKernel
        assert kernel_for(NaiveCodedNode, make_config(8)) is None
        assert kernel_for(GreedyForwardNode, make_config(8)) is None
