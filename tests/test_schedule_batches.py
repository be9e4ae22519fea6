"""Parity tests for the schedule batch the round loop consumes.

A schedule batch reaches the engines ready-made: the packed batch travels
with its set-bit positions (:meth:`DynamicsProcess.next_batch_with_edges`),
each round's :class:`Topology` is a view into one frozen batch with its CSR
arrays and per-entry receiver ids filled in, the round loop counts a
round's deliveries and useless deliveries straight from the CSR entries
and those receivers, and the connectivity patcher labels components from
the edge pairs the edge-Markov chain hands over.  Each shortcut is checked
here against the slower formula it replaces:

* the positions equal ``np.flatnonzero(unpack_bools(next_batch(r)))``
  for every process a catalog entry builds, wrapped inner processes
  included, and the batch itself is unchanged;
* :meth:`Topology.csr_receivers` equals the ``np.repeat`` of the row ids
  over the CSR offsets, on batch-built and hand-built topologies;
* the delivery and useless-delivery counts equal sums of the
  cumsum-difference per-node counts over effective CSRs with empty
  segments, removed and duplicated edges, and the receivers a fault plan
  leaves behind match the CSR it returned;
* the component labels from every catalog process's edge pairs equal the
  scalar mask BFS of ``tests/oracles/components.py``;
* a batch-built topology equals and hashes like its
  :meth:`Topology.from_packed` twin, and its packed matrix is read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import unpack_bools
from repro.network import (
    CollisionModel,
    FaultModel,
    ScheduleAdversary,
    Topology,
    random_connected_topology,
)
from repro.network.dynamics import batch_component_labels
from repro.scenarios import list_scenarios, make_scenario
from repro.scenarios.catalog import SCENARIOS
from repro.simulation.kernels import _delivery_counts
from tests.oracles.components import packed_components

SIZES = (24, 65, 128)


def _distinct_builders() -> list[str]:
    """One catalog entry per distinct schedule builder (the hostile entries
    reuse the benign entries' schedules under a fault model)."""
    seen: dict[object, str] = {}
    for name in list_scenarios():
        seen.setdefault(SCENARIOS[name].build, name)
    return sorted(seen.values())


def _process_chain(name: str, n: int, seed: int) -> list:
    """Every process of a fresh catalog schedule, outermost first."""
    adversary = make_scenario(name, n, seed=seed)
    while not isinstance(adversary, ScheduleAdversary):
        adversary = adversary.inner
    chain = [adversary.process]
    while hasattr(chain[-1], "inner"):
        chain.append(chain[-1].inner)
    return chain


def _reference_counts(sending, indices, indptr):
    """Per-node sending-neighbour counts as per-segment cumsum differences."""
    flows = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(sending[indices], dtype=np.int64))
    )
    return flows[indptr[1:]] - flows[indptr[:-1]]


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


class TestBatchPositions:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", _distinct_builders())
    @settings(max_examples=4, deadline=None)
    @given(
        requests=st.lists(st.integers(0, 70), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_positions_match_the_unpacked_batch(self, name, n, requests, seed):
        with_edges = _process_chain(name, n, seed)
        plain = _process_chain(name, n, seed)
        for process, twin in zip(with_edges, plain):
            for rounds in requests:
                batch, edges = process.next_batch_with_edges(rounds)
                expected = twin.next_batch(rounds)
                assert np.array_equal(batch, expected)
                assert np.array_equal(edges, np.flatnonzero(unpack_bools(expected, n)))


class TestCsrReceivers:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 140),
        rounds=st.integers(1, 5),
        density=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**16),
    )
    def test_receivers_are_the_row_ids(self, n, rounds, density, seed):
        rng = np.random.default_rng(seed)
        hand_built = [
            random_connected_topology(n, rng, extra_edge_prob=density)
            for _ in range(rounds)
        ]
        batch = np.stack([t.packed_adjacency() for t in hand_built])
        for topology in hand_built + Topology.from_packed_batch(n, batch):
            indices, indptr = topology.csr_adjacency()
            receivers = topology.csr_receivers()
            assert receivers.dtype.kind == "u" and not receivers.flags.writeable
            assert np.array_equal(receivers, _row_ids(indptr))
            assert receivers.size == indices.size

    @pytest.mark.parametrize("n", SIZES)
    def test_served_schedule_receivers_are_the_row_ids(self, n):
        adversary = make_scenario("edge_markov", n, seed=1)
        for round_index in range(0, 150, 7):
            topology = adversary.choose_topology(round_index, n, None)
            _, indptr = topology.csr_adjacency()
            assert np.array_equal(topology.csr_receivers(), _row_ids(indptr))


class TestDeliveryCounts:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        loss=st.sampled_from([0.0, 0.3, 1.0]),
        duplication=st.sampled_from([0.0, 0.4, 1.0]),
        crashed=st.sets(st.integers(0, 39), max_size=6),
        collisions=st.sampled_from([None, False, True]),
        seed=st.integers(0, 10_000),
    )
    def test_entry_counts_match_segment_sums(
        self, n, loss, duplication, crashed, collisions, seed
    ):
        model = FaultModel(
            loss=loss,
            duplication=duplication,
            crashes=tuple((uid, 0) for uid in sorted(crashed) if uid < n),
            collisions=(
                None if collisions is None
                else CollisionModel(probability=1.0, capture=collisions)
            ),
        )
        topology = random_connected_topology(n, np.random.default_rng(seed), 0.3)
        indices, indptr = topology.csr_adjacency()
        receivers = topology.csr_receivers()
        rng = np.random.default_rng(seed + 1)
        sending = rng.random(n) < 0.6
        active = sending | (rng.random(n) < 0.5)
        changed = rng.random(n) < 0.4

        def assert_counts(sending, indices, indptr, receivers):
            counts = _reference_counts(sending, indices, indptr)
            expected = (int(counts.sum()), int(counts[~changed].sum()))
            assert _delivery_counts(sending, indices, receivers, changed) == expected

        # Benign round: the canonical CSR and its receivers.
        assert_counts(sending, indices, indptr, receivers)
        # Faulted round: the effective CSR and the plan's receivers, which
        # must not depend on the dtype of the canonical receivers passed in.
        plans, results = [], []
        for given_receivers in (receivers, _row_ids(indptr)):
            plan = model.bind(n, np.random.default_rng(seed)).begin_round(0)
            results.append(
                plan.bind_edges(indices, indptr, active=active, receivers=given_receivers)
            )
            plans.append(plan)
        (eff_indices, eff_indptr), (ref_indices, ref_indptr) = results
        assert np.array_equal(eff_indices, ref_indices)
        assert np.array_equal(eff_indptr, ref_indptr)
        assert np.array_equal(plans[0].receivers, plans[1].receivers)
        assert np.array_equal(plans[0].receivers, _row_ids(eff_indptr))
        assert_counts(sending & ~plans[0].down, eff_indices, eff_indptr, plans[0].receivers)


class TestPairLabels:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", _distinct_builders())
    def test_labels_from_pairs_match_the_oracle(self, name, n):
        """Every process of every catalog schedule hands the patcher's
        labeller pairs that give the mask-BFS components of its batch."""
        rounds = 24
        for process in _process_chain(name, n, seed=n):
            batch, _, first, second = process._next_batch_with_pairs(rounds)
            round_index, low, high = np.nonzero(np.triu(unpack_bools(batch, n), 1))
            assert np.array_equal(first, round_index * n + low)
            assert np.array_equal(second, round_index * n + high)
            labels = batch_component_labels(first, second, rounds, n)
            for packed, round_labels in zip(batch, labels):
                expected = np.empty(n, dtype=np.int64)
                for component in packed_components(packed, n):
                    members = [u for u in range(n) if (component >> u) & 1]
                    expected[members] = members[0]
                assert round_labels.tolist() == expected.tolist()


class TestBatchViews:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("source", ["from_packed_batch", "schedule"])
    def test_batch_topology_equals_its_from_packed_twin(self, n, source):
        if source == "schedule":
            topologies = _process_chain("edge_markov", n, seed=2)[0].topologies(9)
        else:
            rng = np.random.default_rng(n)
            batch = np.stack(
                [random_connected_topology(n, rng, 0.1).packed_adjacency() for _ in range(9)]
            )
            topologies = Topology.from_packed_batch(n, batch)
        for topology in topologies:
            packed = topology.packed_adjacency()
            assert not packed.flags.writeable
            with pytest.raises(ValueError):
                packed[0, 0] = 0
            twin = Topology.from_packed(n, packed.copy())
            assert topology == twin and twin == topology
            assert hash(topology) == hash(twin)
            assert topology.masks == twin.masks

    def test_from_packed_batch_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError, match="packed batch"):
            Topology.from_packed_batch(5, np.zeros((2, 5, 2), dtype=np.uint64))
        with pytest.raises(ValueError, match="packed batch"):
            Topology.from_packed_batch(5, np.zeros((5, 1), dtype=np.uint64))
