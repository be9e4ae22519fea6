"""Unit tests for the packed-native dynamics subsystem.

Covers the raw processes (edge-Markov, waypoint mobility, churn, rewiring,
precomputed replay), the model-compliance transformers (connectivity
patcher, T-interval enforcer), the packed-graph helpers, and the
:class:`ScheduleAdversary` bridge into the engines.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import TokenForwardingNode
from repro.bits import pack_bools
from repro.network import (
    ChurnProcess,
    ConnectivityPatcher,
    DegreeBoundedRewiringProcess,
    EdgeMarkovProcess,
    PrecomputedSchedule,
    RandomWaypointProcess,
    ScheduleAdversary,
    TIntervalEnforcer,
    Topology,
    ring_topology,
    spanning_structure,
)
from repro.network.dynamics import SCHEDULE_BATCH_ROUNDS
from repro.network.stability import is_t_interval_connected, max_interval_connectivity
from repro.simulation import run_dissemination, standard_instance
from tests.conftest import RecordingAdversary, make_config
from tests.oracles.components import packed_components


def _processes(n: int, seed: int):
    """One instance of every raw process family at size ``n``."""
    return [
        EdgeMarkovProcess(n, p_birth=0.05, p_death=0.25, seed=seed),
        RandomWaypointProcess(n, radius=0.3, speed=0.07, seed=seed),
        ChurnProcess(
            EdgeMarkovProcess(n, p_birth=0.1, p_death=0.3, seed=seed),
            max_churn=2,
            seed=seed + 1,
        ),
        DegreeBoundedRewiringProcess(n, degree_bound=4, rewires_per_round=3, seed=seed),
    ]


def _assert_legal_rows(batch: np.ndarray, n: int) -> None:
    """Symmetric, self-loop free, no bits outside 0..n-1 (connectivity aside)."""
    for r in range(batch.shape[0]):
        topology = Topology.from_packed(n, batch[r])
        masks = topology.masks
        for u in range(n):
            assert not (masks[u] >> u) & 1, f"self-loop on {u} in round {r}"
            assert not masks[u] >> n, f"out-of-range bits in row {u} round {r}"
        for u in range(n):
            mask = masks[u]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                assert (masks[v] >> u) & 1, f"asymmetric edge ({u},{v}) round {r}"


class TestPackedHelpers:
    def test_packed_components_and_connectivity(self):
        # Two disjoint triangles: {0,1,2} and {3,4,5}.
        dense = np.zeros((6, 6), dtype=bool)
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            dense[a, b] = dense[b, a] = True
        packed = pack_bools(dense)
        assert not Topology.from_packed(6, packed).is_connected()
        components = packed_components(packed, 6)
        assert components == [0b000111, 0b111000]
        ring = ring_topology(6)
        assert ring.is_connected()
        assert packed_components(ring.packed_adjacency(), 6) == [0b111111]

    def test_packed_components_oracle_matches_networkx(self):
        rng = np.random.default_rng(2)
        for n in (1, 7, 70):
            dense = rng.random((n, n)) < 1.5 / n
            dense |= dense.T
            np.fill_diagonal(dense, False)
            packed = pack_bools(dense)
            graph = nx.from_numpy_array(dense.astype(np.uint8))
            expected = sorted(sum(1 << v for v in c) for c in nx.connected_components(graph))
            assert sorted(packed_components(packed, n)) == expected

    @pytest.mark.parametrize("n", [1, 6, 80])
    def test_spanning_structure_is_connected_spanning(self, n):
        rng = np.random.default_rng(1)
        dense = rng.random((n, n)) < 1.5 / max(1, n)  # sparse, usually disconnected
        dense |= dense.T
        np.fill_diagonal(dense, False)
        packed = pack_bools(dense)
        structure = spanning_structure(packed, n)
        assert Topology.from_packed(n, structure).is_connected()
        # Tree edges come from the input; only representative-path edges are new.
        extra = structure & ~packed
        new_edges = int(np.bitwise_count(extra).sum()) // 2
        assert new_edges == len(packed_components(packed, n)) - 1


class TestRawProcesses:
    @pytest.mark.parametrize("n", [9, 70])
    def test_batches_are_legal_and_resume(self, n):
        for process in _processes(n, seed=3):
            first = process.next_batch(4)
            assert process.next_batch(0).shape == (0, n, process.words)
            second = process.next_batch(3)
            assert first.shape == (4, n, process.words)
            assert second.shape == (3, n, process.words)
            _assert_legal_rows(np.concatenate([first, second]), n)

    def test_reset_replays_identical_schedule(self):
        for process in _processes(24, seed=5):
            a = process.next_batch(6).copy()
            b = process.next_batch(5).copy()
            process.reset()
            assert np.array_equal(process.next_batch(6), a)
            assert np.array_equal(process.next_batch(5), b)

    def test_edge_markov_density_tracks_stationary_point(self):
        process = EdgeMarkovProcess(40, p_birth=0.1, p_death=0.3, seed=0)
        batch = process.next_batch(80)
        density = np.bitwise_count(batch).sum() / (batch.shape[0] * 40 * 39)
        assert abs(density - 0.25) < 0.05

    def test_edge_markov_extreme_rates(self):
        frozen = EdgeMarkovProcess(10, p_birth=0.0, p_death=0.0, seed=1)
        batch = frozen.next_batch(4)
        assert not batch.any()  # stationary density 0, nothing is ever born
        # p_birth = p_death = 1 flips every edge every round: starting from an
        # empty graph the schedule alternates complete / empty.
        flickering = EdgeMarkovProcess(10, p_birth=1.0, p_death=1.0, seed=1, initial_density=0.0)
        batch = flickering.next_batch(4)
        assert Topology.from_packed(10, batch[0]).number_of_edges() == 45
        assert not batch[1].any()
        assert np.array_equal(batch[0], batch[2])

    def test_waypoint_positions_stay_in_area(self):
        process = RandomWaypointProcess(30, radius=0.2, speed=0.2, seed=2, area=2.0)
        process.next_batch(50)
        assert (process._pos >= 0).all() and (process._pos <= 2.0).all()

    def test_churn_isolates_inactive_nodes(self):
        process = ChurnProcess(
            EdgeMarkovProcess(20, p_birth=0.4, p_death=0.1, seed=0),
            max_churn=3,
            min_active=5,
            seed=1,
            record_activity=True,
        )
        batch = process.next_batch(30)
        assert len(process.activity_history) == 30
        for r, active in enumerate(process.activity_history):
            assert active.sum() >= 5
            degrees = np.bitwise_count(batch[r]).sum(axis=1)
            assert (degrees[~active] == 0).all()

    def test_rewiring_respects_degree_bound_and_edge_count(self):
        n, bound = 30, 4
        process = DegreeBoundedRewiringProcess(
            n, degree_bound=bound, rewires_per_round=5, seed=7
        )
        batch = process.next_batch(40)
        for r in range(40):
            degrees = np.bitwise_count(batch[r]).sum(axis=1)
            assert degrees.max() <= bound
            assert degrees.sum() == 2 * n  # edge count invariant: |E| = n (the ring's)

    def test_precomputed_schedule_cycles_and_rejects_bad_shapes(self):
        chord = Topology.from_edges(8, ring_topology(8).edges + [(0, 4)])
        topologies = [ring_topology(8), chord]
        process = PrecomputedSchedule.from_topologies(topologies)
        assert process.guarantees_connected
        batch = process.next_batch(5)
        assert np.array_equal(batch[0], batch[2])  # cycled
        assert np.array_equal(batch[1], batch[3])
        with pytest.raises(ValueError):
            PrecomputedSchedule(np.zeros((0, 4, 1), dtype=np.uint64))


class TestTransformers:
    def test_patcher_makes_every_round_connected(self):
        process = ConnectivityPatcher(RandomWaypointProcess(40, radius=0.12, seed=4))
        for topology in process.topologies(25):
            assert topology.is_connected()
            topology.validate(40)  # legal by construction

    def test_patcher_passes_connected_rounds_through(self):
        inner = EdgeMarkovProcess(12, p_birth=0.9, p_death=0.05, seed=0)  # dense
        raw = inner.next_batch(10)
        inner.reset()
        patched = ConnectivityPatcher(inner).next_batch(10)
        for r in range(10):
            if Topology.from_packed(12, raw[r]).is_connected():
                assert np.array_equal(raw[r], patched[r])

    @pytest.mark.parametrize("interval", [1, 3, 5])
    def test_enforcer_output_is_t_interval_connected(self, interval):
        process = TIntervalEnforcer(
            EdgeMarkovProcess(32, p_birth=0.02, p_death=0.4, seed=6), interval
        )
        topologies = process.topologies(4 * interval + 3)
        assert all(t.is_connected() for t in topologies)
        assert is_t_interval_connected(topologies, interval)

    def test_enforcer_only_adds_edges(self):
        inner = EdgeMarkovProcess(20, p_birth=0.05, p_death=0.3, seed=8)
        raw = inner.next_batch(12)
        inner.reset()
        enforced = TIntervalEnforcer(inner, 4).next_batch(12)
        assert not (raw & ~enforced).any()

    def test_enforcer_beats_raw_interval_connectivity(self):
        inner = EdgeMarkovProcess(24, p_birth=0.03, p_death=0.5, seed=9)
        raw = inner.topologies(16)
        inner.reset()
        enforced = TIntervalEnforcer(inner, 4).topologies(16)
        assert max_interval_connectivity(enforced) >= 4
        assert max_interval_connectivity(enforced) >= max_interval_connectivity(raw)


class TestScheduleAdversary:
    def test_serves_process_rounds_in_order(self):
        # Long enough to cross two batch boundaries.
        rounds = 2 * SCHEDULE_BATCH_ROUNDS + 7
        process = ConnectivityPatcher(EdgeMarkovProcess(10, seed=1))
        expected = process.topologies(rounds)
        process.reset()
        adversary = ScheduleAdversary(process)
        served = [adversary.choose_topology(r, 10, []) for r in range(rounds)]
        assert [t.masks for t in served] == [t.masks for t in expected]

    def test_pre_validated_only_for_guaranteed_processes(self):
        patched = ScheduleAdversary(ConnectivityPatcher(EdgeMarkovProcess(10, seed=1)))
        assert patched.choose_topology(0, 10, [])._valid
        raw = ScheduleAdversary(EdgeMarkovProcess(10, seed=1))
        assert not raw.choose_topology(0, 10, [])._valid

    def test_skipping_forward_and_replay_protection(self):
        adversary = ScheduleAdversary(ConnectivityPatcher(EdgeMarkovProcess(8, seed=2)))
        first = adversary.choose_topology(0, 8, [])
        assert adversary.choose_topology(0, 8, []) is first  # re-ask same round
        adversary.choose_topology(5, 8, [])  # T-stable wrappers skip forward
        with pytest.raises(ValueError):
            adversary.choose_topology(2, 8, [])
        with pytest.raises(ValueError):
            adversary.choose_topology(0, 9, [])  # wrong n

    def test_short_schedule_cycles_through_a_longer_run(self):
        process = ConnectivityPatcher(EdgeMarkovProcess(6, seed=1))
        recorded = process.topologies(5)
        adversary = ScheduleAdversary(PrecomputedSchedule.from_topologies(recorded))
        served = [adversary.choose_topology(r, 6, []) for r in range(12)]
        assert [t.masks for t in served] == [recorded[r % 5].masks for r in range(12)]

    def test_accepts_topology_sequence_and_packed_array(self):
        topologies = [ring_topology(6)] * 3
        for source in (topologies, np.stack([t.packed_adjacency() for t in topologies])):
            adversary = ScheduleAdversary(source)
            served = adversary.choose_topology(0, 6, [])
            assert served.masks == ring_topology(6).masks

    def test_run_and_reset_determinism_on_all_engines(self):
        n = 12
        config = make_config(n)
        placement = standard_instance(n, n, 8, seed=0)
        adversary = RecordingAdversary(
            ScheduleAdversary(
                TIntervalEnforcer(EdgeMarkovProcess(n, p_birth=0.05, p_death=0.3, seed=3), 3)
            )
        )
        # The adversary is reused across runs (run_dissemination resets
        # it); the second kernel run pins the replay after reset.
        results, edges = [], []
        for engine in ("kernel", "mask", "kernel"):
            result = run_dissemination(
                TokenForwardingNode,
                config,
                placement,
                adversary,
                seed=1,
                engine=engine,
            )
            results.append(result)
            edges.append([{frozenset(e) for e in t.edges} for t in adversary.topologies])
        kernel, mask, replay = results
        assert kernel.engine == "kernel" and kernel.completed and kernel.correct
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(replay.metrics)
        assert edges[0] == edges[1] == edges[2]
