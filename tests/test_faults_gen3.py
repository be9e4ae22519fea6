"""Third-generation hostile-axis tests: radio collisions, quorum
membership, and protocol-state-aware adversaries.

What this module pins, on top of the first/second-generation coverage in
``test_faults.py``:

* hypothesis invariants on the :class:`CollisionModel` effective-CSR edit
  — collided deliveries are a sub-multiset of the pre-collision effective
  CSR (a certain collision round consumes no randomness, so the two edits
  are draw-for-draw comparable at the same seed), silence mode erases
  every crowded receiver's inbox, capture mode delivers exactly the
  lowest-uid sender's copies, and the accounting balances;
* :class:`QuorumModel` semantics — the ``n >= 2f + 1`` bind-time bound,
  placement rejection for token-holding fake members, honest-only
  survivor metrics and the honest-quorum stop rule;
* the read-only :class:`StateView` seam — ``progress()``, the
  missing-view ``RuntimeError``, and the exact edge sets the shipped
  state-aware strategies erase at ``probability=1.0``;
* kernel eligibility — ``wants_state`` strategies are gated on
  ``RoundKernel.supports_state_views`` exactly like omniscient
  adversaries on ``supports_message_views`` (explicit request fails,
  ``auto`` falls back to the mask engine bit-identically), and every
  registered kernel now exposes both view kinds;
* per-round trace columns — ``collided_deliveries`` sums to the final
  metric, ``honest_survivors`` tracks the honest-quorum population, and
  the four third-generation catalog entries keep byte-identical trace
  *content* across both engines.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import IndexedBroadcastNode, TokenForwardingNode
from repro.network import (
    CollisionModel,
    FaultModel,
    FrontierLossStrategy,
    OmniscientBottleneckAdversary,
    QuorumModel,
    StateView,
    StragglerIsolationStrategy,
    random_connected_topology,
)
from repro.obs import ROUND_COUNTERS, TraceRecorder
from repro.obs.trace import CONTENT_ARRAYS
from repro.scenarios import fault_model_for, make_scenario
from repro.simulation import RunMetrics, run_dissemination, standard_instance
from repro.simulation.kernels import KERNEL_REGISTRY, TokenForwardingKernel
from tests.conftest import make_config

ENGINES = ("kernel", "mask")

GEN3_ENTRIES = (
    "collision_waypoint",
    "quorum_fake3_markov",
    "frontier_adaptive_mix",
    "straggler_capture_radio",
)


def _effective(model, n, indices, indptr, seed, state=None):
    bound = model.bind(n, np.random.default_rng(seed))
    plan = bound.begin_round(0)
    eff_indices, eff_indptr = plan.bind_edges(indices, indptr, state=state)
    return eff_indices, eff_indptr, plan


# ----------------------------------------------------------------------
# radio collisions
# ----------------------------------------------------------------------


class TestCollisionInvariants:
    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(3, 16),
        loss=st.floats(0.0, 0.9),
        duplication=st.floats(0.0, 0.9),
        capture=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_collided_is_a_submultiset_of_the_pre_collision_csr(
        self, n, loss, duplication, capture, seed
    ):
        # probability=1.0 makes every round a collision round WITHOUT
        # spending the scalar Bernoulli, so the baseline (no CollisionModel)
        # and the collided run consume identical loss/duplication draws at
        # the same seed — their effective CSRs are comparable edit-for-edit.
        topology = random_connected_topology(n, np.random.default_rng(seed + 1))
        indices, indptr = topology.csr_adjacency()
        base = FaultModel(loss=loss, duplication=duplication)
        coll = FaultModel(
            loss=loss,
            duplication=duplication,
            collisions=CollisionModel(probability=1.0, capture=capture),
        )
        base_i, base_p, base_plan = _effective(base, n, indices, indptr, seed)
        coll_i, coll_p, coll_plan = _effective(coll, n, indices, indptr, seed)
        sending = np.ones(n, dtype=bool)
        for v in range(n):
            base_seg = base_i[base_p[v] : base_p[v + 1]].tolist()
            coll_seg = coll_i[coll_p[v] : coll_p[v + 1]].tolist()
            # Sub-multiset: collisions only ever remove deliveries.
            assert not Counter(coll_seg) - Counter(base_seg)
            distinct = sorted(set(base_seg))
            if capture:
                # The lowest-uid surviving sender gets through (echo and
                # all); every other simultaneous delivery dies on the air.
                expected = (
                    [s for s in base_seg if s == distinct[0]] if distinct else []
                )
            else:
                # The classic reception rule: two or more simultaneous
                # senders and the receiver keeps nothing.
                expected = base_seg if len(distinct) < 2 else []
            assert coll_seg == expected, (v, base_seg)
        # The accounting balances: every removed copy is counted collided,
        # and the collision-free twin of the same draws counts none.
        base_stats = base_plan.account(sending)
        stats = coll_plan.account(sending)
        assert base_stats.collided == 0
        assert stats.collided == base_i.size - coll_i.size
        assert stats.dropped == base_stats.dropped

    def test_certain_probabilities_spend_no_draw_and_half_spends_one(self):
        n = 8
        topology = random_connected_topology(n, np.random.default_rng(1))
        indices, indptr = topology.csr_adjacency()
        # p=1.0 and p=0.0 are certain outcomes: the rng stream position
        # after bind_edges must be untouched.
        for probability in (0.0, 1.0):
            model = FaultModel(collisions=CollisionModel(probability=probability))
            bound = model.bind(n, np.random.default_rng(7))
            plan = bound.begin_round(0)
            plan.bind_edges(indices, indptr)
            assert bound.rng.random() == np.random.default_rng(7).random()
        # 0 < p < 1 spends exactly one scalar from the fault stream.
        bound = FaultModel(collisions=CollisionModel(probability=0.5)).bind(
            n, np.random.default_rng(7)
        )
        plan = bound.begin_round(0)
        plan.bind_edges(indices, indptr)
        reference = np.random.default_rng(7)
        reference.random()  # the collision round's single Bernoulli
        assert bound.rng.random() == reference.random()

    def test_collision_run_reaches_the_metrics_and_trace(self):
        n, k = 16, 12
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        recorder = TraceRecorder()
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            make_scenario("collision_waypoint", n, seed=5),
            seed=3,
            engine="kernel",
            faults=fault_model_for("collision_waypoint", n, seed=5),
            max_rounds=8 * n,
            track_progress=True,
            trace=recorder,
        )
        metrics = result.metrics
        assert result.engine == "kernel"
        assert metrics.collided_deliveries > 0
        assert metrics.to_dict()["collided_deliveries"] == metrics.collided_deliveries
        assert metrics.summary()["collided"] == metrics.collided_deliveries
        trace = recorder.to_trace()
        assert int(trace.arrays["collided_deliveries"].sum()) == (
            metrics.collided_deliveries
        )
        # No crash / quorum axis: the honest population is the whole network.
        assert (trace.arrays["honest_survivors"] == n).all()


# ----------------------------------------------------------------------
# quorum membership
# ----------------------------------------------------------------------


class TestQuorumSemantics:
    @pytest.mark.parametrize(
        "fake", [(), (3, 3), (-1,)], ids=["empty", "duplicate", "negative"]
    )
    def test_invalid_quorum_models_rejected(self, fake):
        with pytest.raises(ValueError):
            QuorumModel(fake=fake)

    def test_bind_enforces_the_byzquorum_bound(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n >= 7"):
            FaultModel(quorum=QuorumModel(fake=(0, 1, 2))).bind(6, rng)
        with pytest.raises(ValueError, match="out of range"):
            FaultModel(quorum=QuorumModel(fake=(7,))).bind(5, rng)
        # n = 2f + 1 exactly is the boundary the bound admits.
        bound = FaultModel(quorum=QuorumModel(fake=(3, 4))).bind(5, rng)
        assert bound.survivor_indices.tolist() == [0, 1, 2]

    def test_survivor_indices_exclude_fake_members(self):
        n = 9
        bound = FaultModel(quorum=QuorumModel(fake=(2, 7))).bind(
            n, np.random.default_rng(0)
        )
        assert bound.survivor_indices.tolist() == [0, 1, 3, 4, 5, 6, 8]

    def test_runner_rejects_token_holding_fake_members(self):
        n = 8
        config = make_config(n=n, k=n)  # tokens at every uid
        placement = standard_instance(n, n, config.token_bits, seed=3)
        with pytest.raises(ValueError, match="holds placement tokens"):
            run_dissemination(
                TokenForwardingNode,
                config,
                placement,
                make_scenario("edge_markov", n, seed=5),
                seed=3,
                faults=FaultModel(quorum=QuorumModel(fake=(n - 1,))),
            )

    def test_stop_rule_and_metrics_run_over_the_honest_quorum_only(self):
        # The fake member is also permanently crashed, so the whole
        # population can never complete — but the honest quorum can, and
        # the stop rule must fire on it.
        n, k = 12, 10
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            make_scenario("edge_markov", n, seed=5),
            seed=3,
            faults=FaultModel(
                quorum=QuorumModel(fake=(n - 1,)), crashes=((n - 1, 0),)
            ),
            max_rounds=10 * n,
            track_progress=True,
        )
        metrics = result.metrics
        assert metrics.completion_round is None  # the dead fake never learns
        assert metrics.survivor_completion_round is not None
        assert metrics.rounds_executed < 10 * n  # honest-quorum stop fired
        assert metrics.survivors == n - 1
        assert metrics.completed_survivors == n - 1
        assert metrics.surviving_completion_rate == 1.0
        assert metrics.fake_nodes == 1
        assert metrics.summary()["fake_nodes"] == 1
        assert metrics.to_dict()["fake_nodes"] == 1

    def test_quorum_entry_tracks_honest_survivors_in_the_trace(self):
        n, k = 16, 12
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        recorder = TraceRecorder()
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            make_scenario("quorum_fake3_markov", n, seed=5),
            seed=3,
            engine="kernel",
            faults=fault_model_for("quorum_fake3_markov", n, seed=5),
            max_rounds=8 * n,
            track_progress=True,
            trace=recorder,
        )
        assert result.metrics.fake_nodes == 3
        assert result.metrics.survivors == n - 3
        trace = recorder.to_trace()
        assert (trace.arrays["honest_survivors"] == n - 3).all()


# ----------------------------------------------------------------------
# the StateView seam and the shipped state-aware strategies
# ----------------------------------------------------------------------


class TestStateAwareStrategies:
    def test_progress_is_the_elementwise_maximum(self):
        view = StateView([3, 0, 2], [1, 4, 2])
        assert view.progress().tolist() == [3, 4, 2]
        assert view.known_counts.dtype == np.int64
        assert view.coded_ranks.dtype == np.int64

    def test_missing_state_view_is_an_engine_bug_not_a_silent_skip(self):
        n = 6
        topology = random_connected_topology(n, np.random.default_rng(0))
        indices, indptr = topology.csr_adjacency()
        model = FaultModel(strategy=FrontierLossStrategy())
        assert model.bind(n, np.random.default_rng(0)).wants_state
        plan = model.bind(n, np.random.default_rng(0)).begin_round(0)
        with pytest.raises(RuntimeError, match="StateView"):
            plan.bind_edges(indices, indptr)

    def test_straggler_isolation_erases_every_edge_at_the_straggler(self):
        n = 8
        topology = random_connected_topology(n, np.random.default_rng(2))
        indices, indptr = topology.csr_adjacency()
        state = StateView(np.arange(n), np.zeros(n, dtype=np.int64))
        eff_i, eff_p, _ = _effective(
            FaultModel(strategy=StragglerIsolationStrategy(probability=1.0)),
            n, indices, indptr, 0, state=state,
        )
        # Node 0 has the smallest progress score: its inbox is empty and it
        # reaches nobody; every other edge passes through untouched.
        assert eff_i[eff_p[0] : eff_p[1]].size == 0
        assert 0 not in eff_i.tolist()
        for v in range(1, n):
            base = [s for s in indices[indptr[v] : indptr[v + 1]].tolist() if s != 0]
            assert eff_i[eff_p[v] : eff_p[v + 1]].tolist() == base

    def test_frontier_loss_erases_exactly_the_downhill_edges(self):
        n = 8
        topology = random_connected_topology(n, np.random.default_rng(2))
        indices, indptr = topology.csr_adjacency()
        # Distinct ascending scores: an edge is a frontier edge iff the
        # sender's uid exceeds the receiver's.
        state = StateView(np.arange(n), np.zeros(n, dtype=np.int64))
        eff_i, eff_p, _ = _effective(
            FaultModel(strategy=FrontierLossStrategy(probability=1.0)),
            n, indices, indptr, 0, state=state,
        )
        for v in range(n):
            base = indices[indptr[v] : indptr[v + 1]].tolist()
            assert eff_i[eff_p[v] : eff_p[v + 1]].tolist() == [
                s for s in base if s <= v
            ]

    def test_kernel_gate_mirrors_the_message_view_gate(self, monkeypatch):
        n, k = 12, 10
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        faults = FaultModel(strategy=FrontierLossStrategy(probability=0.5))

        def run(engine):
            return run_dissemination(
                TokenForwardingNode,
                config,
                placement,
                make_scenario("edge_markov", n, seed=5),
                seed=3,
                engine=engine,
                faults=faults,
                max_rounds=10 * n,
                track_progress=True,
            )

        monkeypatch.setattr(TokenForwardingKernel, "supports_state_views", False)
        with pytest.raises(ValueError, match="state-aware"):
            run("kernel")
        fallback = run("auto")
        assert fallback.engine == "mask"
        # With the gate back in place the same run is kernel-eligible again.
        monkeypatch.undo()
        kernel = run("auto")
        assert kernel.engine == "kernel"
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(
            fallback.metrics
        )


# ----------------------------------------------------------------------
# kernel eligibility across the registry (message views satellite)
# ----------------------------------------------------------------------


def _forwarded_something(sender, receiver, message):
    if message is None:
        return False
    tokens = getattr(message, "tokens", None)
    if tokens is not None:
        return len(tokens) > 0
    return True


class TestRegistryWideViewSupport:
    def test_every_registered_kernel_exposes_both_view_kinds(self):
        assert KERNEL_REGISTRY, "the kernel registry went missing"
        for node_cls, kernel_cls in KERNEL_REGISTRY.items():
            assert kernel_cls.supports_message_views, node_cls.__name__
            assert kernel_cls.supports_state_views, node_cls.__name__

    def test_coded_omniscient_adversary_stays_on_kernel(self):
        n, k = 12, 10
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        results = {
            engine: run_dissemination(
                IndexedBroadcastNode,
                config,
                placement,
                OmniscientBottleneckAdversary(usefulness_fn=_forwarded_something),
                seed=3,
                engine=engine,
                max_rounds=10 * n,
                track_progress=True,
            )
            for engine in ("kernel", "mask")
        }
        assert results["kernel"].engine == "kernel"
        assert dataclasses.asdict(results["kernel"].metrics) == dataclasses.asdict(
            results["mask"].metrics
        )


# ----------------------------------------------------------------------
# trace schema and cross-engine content identity for the new entries
# ----------------------------------------------------------------------


class TestGen3TraceSchema:
    def test_schema_two_columns_are_registered(self):
        assert ROUND_COUNTERS[-1] == "collided_deliveries"
        assert "honest_survivors" in CONTENT_ARRAYS

    def test_to_dict_carries_the_third_generation_fields(self):
        data = RunMetrics().to_dict()
        for key in ("collided_deliveries", "fake_nodes", "survivors",
                    "surviving_completion_rate"):
            assert key in data, key

    @pytest.mark.parametrize("name", GEN3_ENTRIES)
    def test_trace_content_identical_across_engines(self, name):
        n, k = 16, 12
        config = make_config(n=n, k=k)
        placement = standard_instance(n, k, config.token_bits, seed=3)
        digests = {}
        for engine in ENGINES:
            recorder = TraceRecorder()
            result = run_dissemination(
                TokenForwardingNode,
                config,
                placement,
                make_scenario(name, n, seed=5),
                seed=3,
                engine=engine,
                faults=fault_model_for(name, n, seed=5),
                max_rounds=6 * n,
                track_progress=True,
                trace=recorder,
            )
            if engine == "kernel":
                assert result.engine == "kernel", name
            digests[engine] = recorder.to_trace().content_digest()
        assert digests["kernel"] == digests["mask"], name
