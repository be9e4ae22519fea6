"""Hypothesis property tests for schedule invariants.

The dynamics subsystem's contracts, checked over randomly drawn process
parameters rather than hand-picked cases:

* whatever raw process it wraps, the :class:`TIntervalEnforcer`'s output is
  T-interval connected in the sliding-window sense — and the packed-native
  :func:`is_t_interval_connected` checker agrees;
* :class:`ChurnProcess` never toggles more than ``max_churn`` nodes in one
  round, never drops below ``min_active`` live nodes, and keeps inactive
  nodes fully isolated;
* :class:`EdgeMarkovProcess` hovers at its stationary edge density
  ``p_birth / (p_birth + p_death)``;
* the batched component labeller agrees with the scalar mask BFS
  :func:`tests.oracles.components.packed_components` on every round, and :class:`ConnectivityPatcher`
  connects every round with exactly ``components - 1`` new edges.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import pack_bools, unpack_bools
from repro.network import (
    ChurnProcess,
    ConnectivityPatcher,
    EdgeMarkovProcess,
    PrecomputedSchedule,
    RandomWaypointProcess,
    TIntervalEnforcer,
    Topology,
)
from repro.network.dynamics import batch_component_labels
from repro.network.stability import is_t_interval_connected
from tests.oracles.components import packed_components


def _raw_process(kind: str, n: int, seed: int):
    if kind == "edge_markov":
        # Sparse and churny: death dominates, so raw rounds disconnect often
        # and the enforcer actually has repair work to do.
        return EdgeMarkovProcess(n, p_birth=0.03, p_death=0.4, seed=seed)
    return RandomWaypointProcess(n, radius=0.18, speed=0.08, seed=seed)


class TestEnforcerProperty:
    @given(
        n=st.integers(min_value=2, max_value=48),
        interval=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        kind=st.sampled_from(["edge_markov", "waypoint"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_enforced_schedule_is_t_interval_connected(self, n, interval, seed, kind):
        process = TIntervalEnforcer(_raw_process(kind, n, seed), interval)
        # A prefix that crosses several block boundaries, misaligned on purpose.
        topologies = process.topologies(3 * interval + 2)
        assert all(topology.is_connected() for topology in topologies)
        assert is_t_interval_connected(topologies, interval)


class TestChurnProperty:
    @given(
        n=st.integers(min_value=4, max_value=40),
        max_churn=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
        rounds=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_churn_bounded_and_inactive_isolated(self, n, max_churn, seed, rounds):
        min_active = max(2, n // 3)
        process = ChurnProcess(
            _raw_process("edge_markov", n, seed),
            max_churn=max_churn,
            min_active=min_active,
            seed=seed + 1,
            record_activity=True,
        )
        batch = process.next_batch(rounds)
        history = process.activity_history
        assert len(history) == rounds
        previous = np.ones(n, dtype=bool)  # all nodes start active
        for r, active in enumerate(history):
            assert int((active ^ previous).sum()) <= max_churn
            assert int(active.sum()) >= min_active
            degrees = np.bitwise_count(batch[r]).sum(axis=1)
            assert (degrees[~active] == 0).all()
            previous = active


class TestEdgeMarkovStationarity:
    @given(
        p_birth=st.floats(min_value=0.05, max_value=0.4),
        p_death=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_density_stays_near_stationary_point(self, p_birth, p_death, seed):
        n, rounds = 40, 60
        process = EdgeMarkovProcess(n, p_birth=p_birth, p_death=p_death, seed=seed)
        batch = process.next_batch(rounds)
        density = float(np.bitwise_count(batch).sum()) / (rounds * n * (n - 1))
        stationary = p_birth / (p_birth + p_death)
        # ~47k correlated pair-round samples with mixing time 1/(pb+pd) <= 7
        # rounds: 0.1 absolute tolerance is many standard deviations out.
        assert abs(density - stationary) < 0.1


@st.composite
def _symmetric_batches(draw):
    """A random symmetric packed batch, edgeless and complete rounds included."""
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    densities = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.just(1.0),
                st.floats(min_value=0.0, max_value=3.0 / n),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=5,
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    dense = rng.random((len(densities), n, n)) < np.asarray(densities)[:, None, None]
    dense = np.triu(dense, 1)
    return n, pack_bools(dense | dense.transpose(0, 2, 1))


class TestBatchLabellerOracle:
    """The batched labeller and the patcher against the scalar mask BFS."""

    @given(case=_symmetric_batches())
    @settings(max_examples=60, deadline=None)
    def test_labels_match_scalar_components(self, case):
        n, batch = case
        round_index, low, high = np.nonzero(np.triu(unpack_bools(batch, n), 1))
        labels = batch_component_labels(
            round_index * n + low, round_index * n + high, batch.shape[0], n
        )
        assert labels.shape == (batch.shape[0], n)
        for packed, round_labels in zip(batch, labels):
            expected = np.empty(n, dtype=np.int64)
            for component in packed_components(packed, n):
                lowest = (component & -component).bit_length() - 1
                members = [u for u in range(n) if (component >> u) & 1]
                expected[members] = lowest
            assert round_labels.tolist() == expected.tolist()

    @given(case=_symmetric_batches())
    @settings(max_examples=60, deadline=None)
    def test_patcher_adds_exactly_the_repair_path(self, case):
        n, batch = case
        process = ConnectivityPatcher(PrecomputedSchedule(batch))
        patched = process.next_batch(batch.shape[0])
        process.reset()
        # The topologies path reuses the patcher's set-bit positions for the
        # CSR arrays; they must agree with the patched rows.
        for topology, fixed in zip(process.topologies(batch.shape[0]), patched):
            assert np.array_equal(topology.packed_adjacency(), fixed)
            indices, indptr = topology.csr_adjacency()
            for u in range(n):
                assert tuple(indices[indptr[u] : indptr[u + 1]]) == topology.neighbors_tuple(u)
        for raw, fixed in zip(batch, patched):
            components = packed_components(raw, n)
            assert Topology.from_packed(n, fixed).is_connected()
            assert np.array_equal(fixed & raw, raw)
            added = int(np.bitwise_count(fixed).sum() - np.bitwise_count(raw).sum())
            assert added == 2 * (len(components) - 1)
            representatives = [(c & -c).bit_length() - 1 for c in components]
            for a, b in zip(representatives, representatives[1:]):
                assert (int(fixed[a, b >> 6]) >> (b & 63)) & 1
