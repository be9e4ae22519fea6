"""Contract, invariant, and engine-parity tests for the fault axis.

The fault layer (:mod:`repro.network.faults`) edits every round's canonical
CSR adjacency into an *effective* CSR shared verbatim by the kernel and mask
engines; these tests pin

* :class:`FaultModel` validation and the benign no-op guarantee (a model
  with no active axis leaves runs bit-identical to ``faults=None``),
* hypothesis invariants on the effective CSR — delivered edges are a
  sub-multiset of sent edges, duplication multiplicity is bounded by 2,
  crashed endpoints never appear — and on the :class:`SpanGuard` — malformed
  Byzantine vectors are provably outside the source span and can never
  raise a ``GF2Basis`` / ``GF2BasisBatch`` rank past it,
* byte-identical :class:`~repro.simulation.metrics.RunMetrics` across both
  engines for every hostile scenario-catalog entry, with the kernel
  engine actually selected (no mask fallback),
* the ``wire_message`` kernel hook keeping message-inspecting (omniscient)
  adversaries kernel-eligible, alone and combined with faults,
* ``lifeline=False`` churn monotonicity and the derived crash schedules.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
    TokenForwardingNode,
)
from repro.gf import GF2Basis, GF2BasisBatch, masks_to_packed
from repro.network import (
    BridgeLossStrategy,
    BudgetedLossStrategy,
    ChurnProcess,
    CollisionModel,
    EdgeMarkovProcess,
    FaultModel,
    FrontierLossStrategy,
    OmniscientBottleneckAdversary,
    PartitionModel,
    QuorumModel,
    SpanGuard,
    StragglerIsolationStrategy,
    TargetedCrashStrategy,
    complete_topology,
    crash_schedule_from_churn,
    random_connected_topology,
)
from repro.obs import TraceRecorder
from repro.scenarios import fault_model_for, hostile_scenarios, make_scenario
from repro.simulation import (
    RunMetrics,
    run_dissemination,
    standard_instance,
)
from repro.simulation.kernels import _neighbor_or
from tests.conftest import bind_every_sender, make_config

ENGINES = ("kernel", "mask")


def _run_all_engines(factory, config, scenario_name, fault_model, *, seed=3, **kwargs):
    placement = standard_instance(config.n, config.k, config.token_bits, seed=seed)
    return {
        engine: run_dissemination(
            factory,
            config,
            placement,
            make_scenario(scenario_name, config.n, seed=5),
            seed=seed,
            engine=engine,
            faults=fault_model,
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
        assert kernel_node.known_token_ids() == mask_node.known_token_ids()
    return kernel


class TestFaultModelValidation:
    def test_defaults_are_inactive(self):
        model = FaultModel()
        assert not model.active
        assert model.crashes == () and model.byzantine == ()

    @pytest.mark.parametrize("kwargs", [
        {"loss": -0.1},
        {"loss": 1.0001},
        {"duplication": -0.5},
        {"duplication": 2.0},
        {"byzantine_mode": "teleport"},
        {"crashes": ((3, 0), (3, 7))},
        {"crashes": ((-1, 0),)},
        {"crashes": ((2, -4),)},
        {"byzantine": (5, 5)},
        {"byzantine": (-2,)},
        {"crashes": ((4, 1),), "byzantine": (4,)},
    ])
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    @pytest.mark.parametrize("build", [
        lambda p: FaultModel(loss=p),
        lambda p: FaultModel(duplication=p),
        lambda p: CollisionModel(probability=p),
        lambda p: BridgeLossStrategy(probability=p),
        lambda p: StragglerIsolationStrategy(probability=p),
        lambda p: FrontierLossStrategy(probability=p),
    ], ids=["loss", "duplication", "collision", "bridge", "straggler", "frontier"])
    def test_probabilities_accept_zero_and_one_exactly(self, build):
        build(0.0)
        build(1.0)
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            build(math.nextafter(0.0, -1.0))
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            build(math.nextafter(1.0, 2.0))

    @pytest.mark.parametrize("build, edge", [
        (lambda v: TargetedCrashStrategy(start=v), 0),
        (lambda v: TargetedCrashStrategy(period=v), 1),
        (lambda v: TargetedCrashStrategy(limit=v), 0),
        (lambda v: BudgetedLossStrategy(budget=v), 0),
        (lambda v: BudgetedLossStrategy(per_round=v), 1),
        (lambda v: PartitionModel(windows=((v, v + 1),)), 0),
        (lambda v: FaultModel(crashes=((v, 0),)), 0),
        (lambda v: FaultModel(crashes=((0, v),)), 0),
    ], ids=["start", "period", "limit", "budget", "per_round", "window_start",
            "crash_uid", "crash_down"])
    def test_integer_lower_bounds_are_exact(self, build, edge):
        build(edge)
        with pytest.raises(ValueError, match=">= "):
            build(edge - 1)

    @pytest.mark.parametrize("model", [
        lambda uid: FaultModel(crashes=((uid, 0),)),
        lambda uid: FaultModel(byzantine=(uid,)),
        lambda uid: FaultModel(quorum=QuorumModel(fake=(uid,))),
    ], ids=["crash", "byzantine", "fake"])
    def test_bind_accepts_the_last_uid_and_rejects_n(self, model):
        n = 8
        rng = np.random.default_rng(0)
        model(n - 1).bind(n, rng)
        with pytest.raises(ValueError, match="out of range"):
            model(n).bind(n, rng)

    def test_schedules_are_normalised_sorted(self):
        model = FaultModel(crashes=((7, 2), (1, 5)), byzantine=(9, 3))
        assert model.crashes == ((1, 5), (7, 2))
        assert model.byzantine == (3, 9)

    def test_each_axis_activates(self):
        assert FaultModel(loss=0.1).active
        assert FaultModel(duplication=0.1).active
        assert FaultModel(crashes=((0, 3),)).active
        assert FaultModel(byzantine=(2,)).active

    def test_bind_rejects_out_of_range_uids(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="out of range"):
            FaultModel(crashes=((8, 0),)).bind(8, rng)
        with pytest.raises(ValueError, match="out of range"):
            FaultModel(byzantine=(11,)).bind(8, rng)

    def test_inactive_model_is_bit_identical_to_no_faults(self):
        config = make_config(n=10, k=8)
        placement = standard_instance(10, 8, config.token_bits, seed=3)
        runs = {}
        for faults in (None, FaultModel()):
            runs[faults is None] = run_dissemination(
                TokenForwardingNode, config, placement,
                make_scenario("edge_markov", 10, seed=5),
                seed=3, faults=faults, track_progress=True,
            )
        assert dataclasses.asdict(runs[True].metrics) == dataclasses.asdict(
            runs[False].metrics
        )
        assert runs[False].metrics.survivors is None
        assert runs[False].metrics.surviving_completion_rate is None
        assert "survivors" not in runs[False].metrics.summary()


class TestEffectiveCsrInvariants:
    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(3, 20),
        loss=st.floats(0.0, 1.0),
        duplication=st.floats(0.0, 1.0),
        crashed=st.sets(st.integers(0, 19), max_size=5),
        seed=st.integers(0, 10_000),
    )
    def test_delivered_is_a_submultiset_of_sent(
        self, n, loss, duplication, crashed, seed
    ):
        crashes = tuple((uid, 0) for uid in sorted(crashed) if uid < n)
        model = FaultModel(loss=loss, duplication=duplication, crashes=crashes)
        bound = model.bind(n, np.random.default_rng(seed))
        plan = bound.begin_round(0)
        topology = random_connected_topology(n, np.random.default_rng(seed + 1))
        indices, indptr = topology.csr_adjacency()
        eff_indices, eff_indptr = bind_every_sender(plan, indices, indptr)
        assert eff_indptr[0] == 0 and eff_indptr[-1] == eff_indices.size
        for v in range(n):
            base = Counter(indices[indptr[v] : indptr[v + 1]].tolist())
            eff = eff_indices[eff_indptr[v] : eff_indptr[v + 1]].tolist()
            # Delivered senders are a sub-multiset of sent senders: every
            # effective edge existed, at most doubled by duplication.
            for sender, copies in Counter(eff).items():
                assert sender in base
                assert copies <= 2 * base[sender]
            # Segments keep the canonical ascending-sender order with
            # duplicates adjacent (what the delivery loops rely on).
            assert eff == sorted(eff)
            # Crashed endpoints never appear on either side.
            if plan.down[v]:
                assert eff == []
            assert not any(plan.down[s] for s in eff)
        stats = plan.account(~plan.down)
        assert stats.dropped >= 0 and stats.duplicated >= 0
        assert stats.corrupted == 0 and stats.discarded == 0
        assert stats.dropped + stats.duplicated <= indices.size

    def test_total_loss_delivers_nothing(self):
        n = 10
        config = make_config(n=n, k=n)
        placement = standard_instance(n, n, config.token_bits, seed=3)
        result = run_dissemination(
            TokenForwardingNode, config, placement,
            make_scenario("edge_markov", n, seed=5),
            seed=3, faults=FaultModel(loss=1.0), max_rounds=12,
            track_progress=True,
        )
        assert result.metrics.deliveries == 0
        assert result.metrics.dropped_deliveries > 0
        assert not result.completed
        assert result.metrics.survivors == n
        assert result.metrics.completed_survivors == 0

    def test_account_requires_bind_edges(self):
        bound = FaultModel(loss=0.5).bind(4, np.random.default_rng(0))
        plan = bound.begin_round(0)
        with pytest.raises(RuntimeError, match="bind_edges"):
            plan.account(np.ones(4, dtype=bool))


class TestSpanGuard:
    @settings(deadline=None, max_examples=50)
    @given(
        masks=st.lists(st.integers(1, 2**12 - 1), min_size=1, max_size=10),
        seed=st.integers(0, 10_000),
    )
    def test_malformed_vectors_never_raise_rank_past_span(self, masks, seed):
        length = 16
        guard = SpanGuard(length, masks)
        assert 0 < guard.rank < length
        assert guard.contains(guard.replay_mask)
        rng = np.random.default_rng(seed)
        forged = guard.sample_outside(rng)
        assert not guard.contains(forged)
        # The receiver-side contract: verified traffic (replay) cannot push
        # a basis past the source span, and forged traffic never reaches the
        # basis at all because the guard rejects it first.
        basis = GF2Basis(length)
        for mask in masks:
            basis.insert(mask)
        batch = GF2BasisBatch(1, length)
        batch.insert_batch(
            np.zeros(len(masks), dtype=np.int64),
            masks_to_packed(masks, batch.words),
        )
        assert basis.rank == guard.rank == int(batch.ranks[0])
        for incoming in (guard.replay_mask, forged):
            if guard.contains(incoming):
                basis.insert(incoming)
                batch.insert_batch(
                    np.zeros(1, dtype=np.int64),
                    masks_to_packed([incoming], batch.words),
                )
        assert basis.rank == guard.rank
        assert int(batch.ranks[0]) == guard.rank

    def test_full_span_has_no_malformed_vector(self):
        guard = SpanGuard(2, [0b01, 0b10])
        with pytest.raises(ValueError, match="whole space"):
            guard.sample_outside(np.random.default_rng(0))

    def test_full_rank_span_degrades_malformed_to_discard_all(self):
        # A full-rank source span admits no out-of-span vector, so a
        # malformed model must not keep a guard sample_outside would choke
        # on mid-run: attach degrades to the unverifiable (discard-all) path.
        bound = FaultModel(byzantine=(1,), byzantine_mode="malformed").bind(
            4, np.random.default_rng(0)
        )
        bound.attach_guard(SpanGuard(2, [0b01, 0b10]))
        assert bound.guard is None
        plan = bound.begin_round(0)
        assert plan.wire_vectors == {} and plan.substitute == {}
        indices = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
        indptr = np.array([0, 1, 3, 5, 6], dtype=np.int64)
        eff_indices, _ = bind_every_sender(plan, indices, indptr)
        # Every copy the Byzantine node sends is discarded at the receivers.
        assert 1 not in eff_indices.tolist()

    def test_full_rank_span_keeps_replay_guard(self):
        bound = FaultModel(byzantine=(1,), byzantine_mode="replay").bind(
            4, np.random.default_rng(0)
        )
        guard = SpanGuard(2, [0b01, 0b10])
        bound.attach_guard(guard)
        assert bound.guard is guard
        plan = bound.begin_round(0)
        assert plan.wire_vectors == {1: guard.replay_mask}

    def test_guard_requires_a_nonzero_source(self):
        with pytest.raises(ValueError, match="non-zero"):
            SpanGuard(8, [0, 0])


class TestHostileCatalogParity:
    @pytest.mark.parametrize("name", hostile_scenarios())
    def test_forwarding_parity_across_engines(self, name):
        n, k = 16, 12
        config = make_config(n=n, k=k)
        results = _run_all_engines(
            TokenForwardingNode, config, name, fault_model_for(name, n, seed=5),
            max_rounds=6 * n,
        )
        kernel = _assert_identical(results)
        metrics = kernel.metrics
        assert metrics.survivors is not None
        # Survivors = honest nodes never *permanently* crashed; a
        # (uid, down, up) recovery interval leaves the node in the surviving
        # population, fake quorum members never enter it.
        model = fault_model_for(name, n, seed=5)
        permanent = {entry[0] for entry in model.crashes if len(entry) == 2}
        fake = set(model.quorum.fake) if model.quorum is not None else set()
        assert metrics.survivors == n - len(permanent | fake)
        assert metrics.surviving_completion_rate is not None
        assert "survivors" in metrics.summary()

    @pytest.mark.parametrize(
        "name", [s for s in hostile_scenarios() if fault_model_for(s, 16).byzantine]
    )
    def test_coded_parity_under_byzantine_senders(self, name):
        n, k = 16, 12
        config = make_config(n=n, k=k)
        results = _run_all_engines(
            IndexedBroadcastNode, config, name, fault_model_for(name, n, seed=5),
            max_rounds=6 * n,
        )
        kernel = _assert_identical(results)
        assert kernel.metrics.corrupted_deliveries > 0

    def test_catalog_entries_expose_fault_models(self):
        names = hostile_scenarios()
        assert len(names) >= 10
        for name in names:
            model = fault_model_for(name, 16, seed=5)
            assert isinstance(model, FaultModel) and model.active
        assert fault_model_for("edge_markov", 16) is None
        with pytest.raises(ValueError, match="unknown scenario"):
            fault_model_for("no_such_scenario", 16)

    def test_second_generation_entries_cover_the_new_axes(self):
        assert fault_model_for("bridge_loss_markov", 16).strategy is not None
        recover = fault_model_for("crash_recover_churn", 16, seed=5)
        assert any(len(entry) == 3 for entry in recover.crashes)
        partition = fault_model_for("partition_heal_waypoint", 16)
        assert partition.partitions is not None
        assert partition.partitions.windows
        mix = fault_model_for("budgeted_adversary_mix", 16, seed=5)
        assert mix.strategy is not None and mix.loss > 0
        assert any(len(entry) == 3 for entry in mix.crashes)


class TestCodingFamilyHostileParity:
    """The multi-phase coded protocols run every hostile entry on the mask
    engine (``auto`` finds no packed kernel for them), including the
    crash–recovery and partition scenarios whose stale-state rejoins force
    concurrent broadcast generations and mixed-span decodes; recovering
    forwarding runs report the same recovery metrics on both engines."""

    @pytest.mark.parametrize("name", hostile_scenarios())
    @pytest.mark.parametrize("factory", [NaiveCodedNode, GreedyForwardNode])
    def test_coded_runs_every_hostile_entry(self, name, factory):
        n, k = 16, 12
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        result = run_dissemination(
            factory,
            config,
            placement,
            make_scenario(name, n, seed=5),
            seed=3,
            engine="auto",
            faults=fault_model_for(name, n, seed=5),
            max_rounds=6 * n,
            track_progress=True,
        )
        assert result.engine == "mask"
        assert result.metrics.survivors is not None

    def test_recovery_metrics_populated_on_recovering_run(self):
        n, k = 16, 12
        config = make_config(n=n, k=k)
        results = _run_all_engines(
            TokenForwardingNode, config, "crash_recover_churn",
            fault_model_for("crash_recover_churn", n, seed=5), max_rounds=8 * n,
        )
        kernel = _assert_identical(results)
        assert kernel.metrics.recoveries is not None
        assert kernel.metrics.recoveries > 0
        if kernel.metrics.survivor_completion_round is not None:
            assert kernel.metrics.reconvergence_rounds is not None
            assert kernel.metrics.reconvergence_rounds >= 0
        assert "recoveries" in kernel.metrics.summary()


class TestTrailingEmptySegmentRegressions:
    """A crashed (or fully edge-lost) top-uid node leaves *trailing* empty
    segments in the effective CSR.  ``reduceat``-based kernels must still
    reduce the last non-empty segment over its full extent — the old
    start-index clamp silently dropped that segment's final neighbour,
    corrupting faulted kernel results and breaking three-engine parity.
    """

    def test_neighbor_or_keeps_last_neighbor_before_trailing_empty(self):
        send = np.array([[1], [2], [4]], dtype=np.uint64)
        indices = np.array([0, 1, 0, 1, 2], dtype=np.int64)
        indptr = np.array([0, 2, 5, 5], dtype=np.int64)
        # Node 1 has degree 3; its last neighbour (send row 4) must survive
        # the trailing empty segment of node 2.
        assert _neighbor_or(send, indices, indptr).tolist() == [[3], [7], [0]]

    def test_neighbor_or_interior_empty_segment_is_zero(self):
        send = np.array([[1], [2], [4]], dtype=np.uint64)
        indices = np.array([0, 2, 1, 2], dtype=np.int64)
        indptr = np.array([0, 2, 2, 4], dtype=np.int64)
        assert _neighbor_or(send, indices, indptr).tolist() == [[5], [0], [6]]

    def test_neighbor_or_all_segments_empty(self):
        send = np.array([[7], [9]], dtype=np.uint64)
        indices = np.array([], dtype=np.int64)
        indptr = np.array([0, 0, 0], dtype=np.int64)
        assert _neighbor_or(send, indices, indptr).tolist() == [[0], [0]]

    @pytest.mark.parametrize("factory", [TokenForwardingNode])
    def test_parity_with_top_uid_crashed(self, factory):
        # The top uid is dead from round 0, so every round's effective CSR
        # ends in an empty segment while the penultimate node keeps degree
        # >= 2 — exercising the _neighbor_or propagation.
        n, k = 12, 10
        config = make_config(n=n, k=k)
        results = _run_all_engines(
            factory, config, "edge_markov",
            FaultModel(crashes=((n - 1, 0),)), max_rounds=8 * n,
        )
        kernel = _assert_identical(results)
        assert kernel.metrics.survivors == n - 1

    def test_faulted_round_empties_interior_and_trailing_segments(self):
        # Node 2 (interior) and the top uid (trailing) are down: the fault
        # edit empties both their segments, and the OR must zero them and
        # keep every other segment whole.
        n = 6
        indices, indptr = complete_topology(n).csr_adjacency()
        plan = FaultModel(crashes=((2, 0), (n - 1, 0))).bind(
            n, np.random.default_rng(0)
        ).begin_round(0)
        eff_indices, eff_indptr = bind_every_sender(plan, indices, indptr)
        assert np.diff(eff_indptr).tolist() == [3, 3, 0, 3, 3, 0]
        send = (np.uint64(1) << np.arange(n, dtype=np.uint64)).reshape(n, 1)
        alive = 0b011011
        expected = [[0] if u in (2, n - 1) else [alive & ~(1 << u)] for u in range(n)]
        assert _neighbor_or(send, eff_indices, eff_indptr).tolist() == expected

    def test_parity_with_interior_and_top_uid_crashed(self):
        # Every round's effective CSR has an empty interior segment and an
        # empty trailing one; the kernel must take its guarded OR for them.
        n, k = 12, 10
        config = make_config(n=n, k=k)
        results = _run_all_engines(
            TokenForwardingNode, config, "edge_markov",
            FaultModel(crashes=((5, 0), (n - 1, 0))), max_rounds=8 * n,
        )
        kernel = _assert_identical(results)
        assert kernel.metrics.survivors == n - 2


class TestSurvivorRate:
    def test_zero_survivors_rate_is_undefined(self):
        # Every node scheduled to crash: the rate over an empty population
        # is None, not 0.0, so sweep averages can tell "no survivors" apart
        # from "no survivor completed".
        metrics = RunMetrics(survivors=0, completed_survivors=0)
        assert metrics.surviving_completion_rate is None
        assert metrics.summary()["surviving_completion_rate"] is None

    def test_partial_survivor_rate(self):
        metrics = RunMetrics(survivors=4, completed_survivors=3)
        assert metrics.surviving_completion_rate == 0.75


class TestMessageViewKernelEligibility:
    @pytest.mark.parametrize("factory", [TokenForwardingNode, IndexedBroadcastNode])
    def test_omniscient_adversary_stays_on_kernel(self, factory):
        n, k = 12, 10
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        results = {
            engine: run_dissemination(
                factory, config, placement,
                OmniscientBottleneckAdversary(usefulness_fn=_forwarded_something),
                seed=3, engine=engine, max_rounds=10 * n, track_progress=True,
            )
            for engine in ("kernel", "mask")
        }
        assert results["kernel"].engine == "kernel"
        assert dataclasses.asdict(results["kernel"].metrics) == dataclasses.asdict(
            results["mask"].metrics
        )

    def test_faulted_omniscient_run_stays_on_kernel(self):
        # The combination the tentpole demands: a message-inspecting
        # adversary AND Byzantine replay substitution, still kernel-run and
        # still byte-identical to the mask engine.
        n, k = 12, 10
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        faults = FaultModel(loss=0.1, byzantine=(n - 1,), byzantine_mode="replay")
        results = {
            engine: run_dissemination(
                IndexedBroadcastNode, config, placement,
                OmniscientBottleneckAdversary(usefulness_fn=_forwarded_something),
                seed=3, engine=engine, faults=faults, max_rounds=10 * n,
                track_progress=True,
            )
            for engine in ("kernel", "mask")
        }
        assert results["kernel"].engine == "kernel"
        assert dataclasses.asdict(results["kernel"].metrics) == dataclasses.asdict(
            results["mask"].metrics
        )
        assert results["kernel"].metrics.corrupted_deliveries > 0


def _forwarded_something(sender, receiver, message):
    if message is None:
        return False
    tokens = getattr(message, "tokens", None)
    if tokens is not None:
        return len(tokens) > 0
    return True


class TestRecoveryIntervalInvariants:
    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2_000), rounds=st.integers(1, 60))
    def test_churn_recovery_schedule_matches_activity_exactly(self, seed, rounds):
        n = 10
        churn = ChurnProcess(
            EdgeMarkovProcess(n, seed=seed), max_churn=2, min_active=3,
            seed=seed + 1, record_activity=True,
        )
        schedule = crash_schedule_from_churn(churn, rounds=rounds, recoveries=True)
        assert schedule == tuple(sorted(schedule))
        for entry in schedule:
            assert len(entry) in (2, 3)
            if len(entry) == 3:
                uid, down, up = entry
                assert 0 <= down < up <= rounds
        # Well-formed and non-overlapping per uid: FaultModel validation
        # accepts the schedule as-is.
        model = FaultModel(crashes=schedule)
        # Round-by-round oracle: the bound model's down vector is exactly
        # the replayed inactivity, so the effective-CSR edit (which keys off
        # down_at) excludes each node during precisely its down windows.
        churn.next_batch(rounds)
        bound = model.bind(n, np.random.default_rng(0))
        for r in range(rounds):
            active = np.asarray(churn.activity_history[r])
            assert (bound.down_at(r) == ~active).all(), r

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(3, 16),
        down=st.integers(0, 30),
        length=st.integers(1, 30),
        round_index=st.integers(0, 70),
        seed=st.integers(0, 10_000),
    )
    def test_effective_csr_excludes_node_exactly_during_down_window(
        self, n, down, length, round_index, seed
    ):
        uid = n - 1
        model = FaultModel(crashes=((uid, down, down + length),))
        bound = model.bind(n, np.random.default_rng(seed))
        plan = bound.begin_round(round_index)
        topology = random_connected_topology(n, np.random.default_rng(seed + 1))
        indices, indptr = topology.csr_adjacency()
        eff_indices, eff_indptr = bind_every_sender(plan, indices, indptr)
        is_down = down <= round_index < down + length
        assert bool(plan.down[uid]) is is_down
        inbox = eff_indices[eff_indptr[uid] : eff_indptr[uid + 1]].tolist()
        if is_down:
            assert uid not in eff_indices.tolist()
            assert inbox == []
        else:
            # No other fault axis is active: the node's edges pass through.
            assert inbox == indices[indptr[uid] : indptr[uid + 1]].tolist()
            assert uid in eff_indices.tolist()


class TestPartitionInvariants:
    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(4, 16),
        groups=st.integers(2, 4),
        start=st.integers(0, 20),
        length=st.integers(1, 20),
        round_index=st.integers(0, 50),
        seed=st.integers(0, 10_000),
    )
    def test_no_cross_group_edges_while_a_window_is_open(
        self, n, groups, start, length, round_index, seed
    ):
        model = FaultModel(
            partitions=PartitionModel(
                windows=((start, start + length),), groups=groups
            )
        )
        bound = model.bind(n, np.random.default_rng(seed))
        plan = bound.begin_round(round_index)
        topology = random_connected_topology(n, np.random.default_rng(seed + 1))
        indices, indptr = topology.csr_adjacency()
        eff_indices, eff_indptr = bind_every_sender(plan, indices, indptr)
        open_window = start <= round_index < start + length
        for receiver in range(n):
            inbox = eff_indices[eff_indptr[receiver] : eff_indptr[receiver + 1]]
            if open_window:
                assert all(
                    sender % groups == receiver % groups
                    for sender in inbox.tolist()
                )
            else:
                # Outside the window the CSR is untouched.
                assert inbox.tolist() == (
                    indices[indptr[receiver] : indptr[receiver + 1]].tolist()
                )
        # A partition edit is not loss: nothing is counted as dropped.
        stats = plan.account(~plan.down)
        assert stats.dropped == 0

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PartitionModel(windows=((0, 5), (4, 8)))
        with pytest.raises(ValueError, match="empty or inverted"):
            PartitionModel(windows=((3, 3),))
        with pytest.raises(ValueError, match="groups"):
            PartitionModel(windows=((0, 2),), groups=1)


class TestAdaptiveStrategyInvariants:
    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(4, 14),
        budget=st.integers(0, 12),
        per_round=st.integers(1, 3),
        rounds=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    def test_budgeted_loss_never_exceeds_its_budget(
        self, n, budget, per_round, rounds, seed
    ):
        model = FaultModel(
            strategy=BudgetedLossStrategy(budget=budget, per_round=per_round)
        )
        bound = model.bind(n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        total_links_lost = 0
        for r in range(rounds):
            plan = bound.begin_round(r)
            topology = random_connected_topology(n, rng)
            indices, indptr = topology.csr_adjacency()
            eff_indices, _ = bind_every_sender(plan, indices, indptr)
            # Each targeted link erases both directed copies.
            positions_lost = indices.size - eff_indices.size
            assert positions_lost % 2 == 0
            links = positions_lost // 2
            assert links <= per_round
            total_links_lost += links
        assert total_links_lost <= budget
        assert bound.strategy_state.spent == total_links_lost

    def test_targeted_crash_removes_highest_degree_and_respects_limit(self):
        n = 8
        model = FaultModel(strategy=TargetedCrashStrategy(start=1, period=2, limit=2))
        bound = model.bind(n, np.random.default_rng(0))
        star_indices, star_indptr = random_connected_topology(
            n, np.random.default_rng(3)
        ).csr_adjacency()
        degrees = np.diff(star_indptr)
        expected_first = int(np.argmax(degrees))
        for r in range(6):
            plan = bound.begin_round(r)
            bind_every_sender(plan, star_indices, star_indptr)
            if r == 0:
                assert not bound.strategy_crashed.any()
            if r == 1:
                assert bound.strategy_crashed[expected_first]
        assert int(bound.strategy_crashed.sum()) == 2
        # Strategy victims leave the surviving population.
        assert bound.survivor_indices.size == n - 2


    @pytest.mark.parametrize("engine", ["kernel", "mask"])
    def test_targeted_crash_victim_leaves_the_survivors_in_its_round(self, engine):
        n, k, start = 12, 8, 3
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        recorder = TraceRecorder()
        result = run_dissemination(
            TokenForwardingNode, config, placement,
            make_scenario("edge_markov", n, seed=5),
            seed=3, engine=engine, trace=recorder,
            faults=FaultModel(strategy=TargetedCrashStrategy(start=start, limit=1)),
        )
        honest = recorder.to_trace().arrays["honest_survivors"]
        assert honest.size > start + 1
        assert (honest[:start] == n).all()
        assert (honest[start:] == n - 1).all()
        assert result.metrics.survivors == n - 1


class TestCrashSchedulesFromChurn:
    def test_lifeline_false_departures_are_permanent(self):
        churn = ChurnProcess(
            EdgeMarkovProcess(12, seed=3), max_churn=2, min_active=4,
            seed=9, record_activity=True, lifeline=False,
        )
        churn.next_batch(40)
        previous = np.ones(12, dtype=bool)
        for active in churn.activity_history:
            assert not (active & ~previous).any()
            previous = active
        assert int(previous.sum()) >= 4

    def test_schedule_matches_first_inactive_rounds(self):
        churn = ChurnProcess(
            EdgeMarkovProcess(12, seed=3), max_churn=2, min_active=4,
            seed=9, record_activity=True, lifeline=False,
        )
        schedule = crash_schedule_from_churn(churn, rounds=40)
        assert schedule and schedule == tuple(sorted(schedule))
        # The replay is reset-neutral: re-running the process reproduces
        # exactly the activity the schedule was derived from.
        churn.next_batch(40)
        for uid, first_dead in schedule:
            assert not churn.activity_history[first_dead][uid]
            assert all(churn.activity_history[r][uid] for r in range(first_dead))
        assert FaultModel(crashes=schedule).active

    def test_requires_recorded_activity(self):
        churn = ChurnProcess(EdgeMarkovProcess(8, seed=3), lifeline=False)
        with pytest.raises(ValueError, match="record_activity"):
            crash_schedule_from_churn(churn, rounds=10)

    def test_recoveries_final_round_departure_is_captured(self):
        # Regression: a departure on the very last replayed round has a
        # down event but no up event; a naive event pairing silently
        # dropped it.  The interval emitter must keep it as a permanent
        # ``(uid, down)`` entry.
        churn = ChurnProcess(
            EdgeMarkovProcess(12, seed=3), max_churn=2, min_active=4,
            seed=9, record_activity=True,
        )
        churn.next_batch(200)
        history = [active.copy() for active in churn.activity_history]
        churn.reset()
        rounds = None
        for r in range(1, 200):
            fresh = ~history[r] & history[r - 1]
            if fresh.any():
                rounds = r + 1
                uid = int(np.flatnonzero(fresh)[0])
                break
        assert rounds is not None, "churn replay produced no departure at all"
        schedule = crash_schedule_from_churn(churn, rounds=rounds, recoveries=True)
        assert (uid, rounds - 1) in schedule
