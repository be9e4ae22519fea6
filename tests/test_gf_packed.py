"""Equivalence suite: the batched GF(2) elimination core vs per-node bases.

:class:`repro.gf.packed.GF2BasisBatch` promises bit-exactness with the
scalar :class:`repro.gf.gf2.GF2Basis` / :class:`repro.coding.subspace.Subspace`
implementations: the same insert sequence yields the same innovative flags,
ranks, basis rows (values *and* orders), decoded payload
masks, and — through the shared buffered pick protocol — the same composed
combinations from the same rng streams.  That contract is what lets the
coded kernels replace per-node subspaces without changing a single metric.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.subspace import Subspace
from repro.gf import (
    GF2Basis,
    GF2BasisBatch,
    get_field,
    masks_to_packed,
    packed_to_masks,
)


def _apply_sequence(n, length, inserts):
    """Run one insert sequence through the batch and scalar twins."""
    batch = GF2BasisBatch(n, length)
    scalars = [GF2Basis(length) for _ in range(n)]
    for call in inserts:
        nodes = np.array([uid for uid, _ in call], dtype=np.int64)
        masks = [mask for _, mask in call]
        flags = batch.insert_batch(nodes, masks_to_packed(masks, batch.words))
        for (uid, mask), flag in zip(call, flags.tolist()):
            assert scalars[uid].insert(mask) == flag
    return batch, scalars


@st.composite
def insert_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    length = draw(st.integers(min_value=1, max_value=70))
    calls = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=(1 << length) - 1),
                ),
                min_size=1,
                max_size=3 * n,  # duplicates exercise the depth-major loop
            ),
            min_size=1,
            max_size=12,
        )
    )
    return n, length, calls


class TestBatchedEliminationEquivalence:
    @given(insert_sequences())
    @settings(max_examples=60, deadline=None)
    def test_insert_flags_ranks_and_rows(self, sequence):
        n, length, calls = sequence
        batch, scalars = _apply_sequence(n, length, calls)
        for uid in range(n):
            assert int(batch.ranks[uid]) == scalars[uid].rank
            assert batch.row_masks(uid) == list(scalars[uid]._rows.values())
            assert batch.basis_masks(uid) == scalars[uid].basis_masks()

    @given(insert_sequences(), st.integers(min_value=1, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_decode_matches_scalar(self, sequence, k):
        n, length, calls = sequence
        batch, scalars = _apply_sequence(n, length, calls)
        k = min(k, length)
        ok, payloads = batch.decode_payload_masks_batch(k)
        for uid in range(n):
            expected = scalars[uid].decode_payload_masks(k)
            if expected is None:
                assert not ok[uid]
            else:
                assert ok[uid]
                assert packed_to_masks(payloads[uid]) == expected

    def test_lift_masks_replays_existing_bases(self, rng):
        length = 50
        scalars = [GF2Basis(length) for _ in range(5)]
        for basis in scalars:
            for _ in range(int(rng.integers(0, 12))):
                basis.insert(int(rng.integers(0, 1 << length)))
        batch = GF2BasisBatch(5, length)
        batch.lift_masks([b.rows_in_insertion_order() for b in scalars])
        for uid, basis in enumerate(scalars):
            assert batch.row_masks(uid) == list(basis._rows.values())
            assert int(batch.ranks[uid]) == basis.rank

    def test_span_cap_short_circuits_saturated_bases(self, rng):
        # All traffic lives in the span of 4 source vectors, so rank caps at
        # 4 and further inserts return False without growing anything.
        length, cap = 40, 4
        sources = [int(rng.integers(1, 1 << length)) for _ in range(cap)]
        batch = GF2BasisBatch(3, length, span_cap=cap)
        reference = GF2BasisBatch(3, length)
        for _ in range(200):
            uid = int(rng.integers(0, 3))
            combo = 0
            for source in sources:
                if rng.random() < 0.5:
                    combo ^= source
            nodes = np.array([uid], dtype=np.int64)
            vectors = masks_to_packed([combo], batch.words)
            assert (
                batch.insert_batch(nodes, vectors).tolist()
                == reference.insert_batch(nodes, vectors).tolist()
            )
        assert (batch.ranks <= cap).all()
        assert (batch.ranks == reference.ranks).all()

    def test_deep_inbox_grows_capacity_within_one_call(self, rng):
        # One basis receives 40 rows in a single call, past the initial
        # capacity of 16, interleaved with shallower inboxes.
        n, length = 3, 120

        def draw():
            return int.from_bytes(rng.bytes(15), "little")

        first = [(uid, draw()) for uid in (0, 1, 2, 0)]
        deep = [(0, draw()) for _ in range(40)]
        deep += [(1, draw()) for _ in range(5)] + [(2, draw()) for _ in range(20)]
        deep = [deep[i] for i in rng.permutation(len(deep))]
        batch, scalars = _apply_sequence(n, length, [first])
        for uid, mask in deep:
            scalars[uid].insert(mask)
        nodes = np.array([uid for uid, _ in deep], dtype=np.int64)
        batch.insert_batch(nodes, masks_to_packed([m for _, m in deep], batch.words))
        assert int(batch.ranks[0]) > 16
        for uid in range(n):
            assert int(batch.ranks[uid]) == scalars[uid].rank
            assert batch.row_masks(uid) == list(scalars[uid]._rows.values())
            assert batch.basis_masks(uid) == scalars[uid].basis_masks()

    def test_span_cap_reached_midway_through_one_inbox(self, rng):
        # Basis 0 starts at rank <= 2 and then receives all 6 sources and
        # 4 more combinations in one call: it hits the cap inside its inbox,
        # and everything after that point must read as non-innovative.
        length, cap = 40, 6
        sources = [int(rng.integers(1, 1 << length)) for _ in range(cap)]

        def combo():
            mask = 0
            for source in sources:
                if rng.random() < 0.5:
                    mask ^= source
            return mask

        calls = [
            [(0, combo()), (1, combo()), (0, combo())],
            [(0, s) for s in sources]
            + [(0, combo()) for _ in range(4)]
            + [(1, combo()) for _ in range(3)],
            [(0, combo()), (1, combo())],
        ]
        capped = GF2BasisBatch(2, length, span_cap=cap)
        reference = GF2BasisBatch(2, length)
        scalars = [GF2Basis(length) for _ in range(2)]
        for call in calls:
            nodes = np.array([uid for uid, _ in call], dtype=np.int64)
            vectors = masks_to_packed([mask for _, mask in call], capped.words)
            flags = capped.insert_batch(nodes, vectors).tolist()
            assert flags == reference.insert_batch(nodes, vectors).tolist()
            assert flags == [scalars[uid].insert(mask) for uid, mask in call]
        assert int(capped.ranks[0]) == cap
        for uid in range(2):
            assert int(capped.ranks[uid]) == scalars[uid].rank
            assert capped.row_masks(uid) == list(scalars[uid]._rows.values())
            assert capped.basis_masks(uid) == scalars[uid].basis_masks()


def _assert_stream_parity(rng, max_count, replace):
    """Interleave inserts and composes on a batch and scalar ``Subspace`` twins."""
    n, length = 6, 33
    batch = GF2BasisBatch(n, length)
    subspaces = [Subspace(get_field(2), length) for _ in range(n)]
    rngs_batch = list(np.random.default_rng(7).spawn(n))
    rngs_scalar = list(np.random.default_rng(7).spawn(n))
    for _ in range(25):
        count = int(rng.integers(1, max_count + 1))
        nodes = rng.choice(n, size=count, replace=replace)
        masks = [int(rng.integers(0, 1 << length)) for _ in range(count)]
        batch.insert_batch(nodes, masks_to_packed(masks, batch.words))
        for uid, mask in zip(nodes.tolist(), masks):
            subspaces[uid].insert(mask)
        active, picks = batch.draw_random_picks(rngs_batch)
        combined = packed_to_masks(batch.combine_sorted(picks))
        for uid in range(n):
            expected = subspaces[uid].random_combination_mask(rngs_scalar[uid])
            if expected is None:
                assert not active[uid]
            else:
                assert active[uid]
                assert combined[uid] == expected


class TestComposeParity:
    def test_random_combination_stream_parity(self, rng):
        # Same spawned generators, same insert sequences -> the batch and the
        # scalar Subspace emit identical combination masks (shared buffered
        # pick protocol), interleaved with further inserts.
        _assert_stream_parity(rng, max_count=6, replace=False)

    def test_stream_parity_with_repeated_receivers(self, rng):
        # Several rows per basis in one call: the sorted-order table after a
        # multi-row insert must still map picks onto the scalar order.
        _assert_stream_parity(rng, max_count=18, replace=True)

    def test_combine_sorted_subset_matches_full(self, rng):
        n, length = 8, 45
        batch = GF2BasisBatch(n, length)
        for _ in range(40):
            uid = np.array([int(rng.integers(0, n))], dtype=np.int64)
            batch.insert_batch(
                uid, masks_to_packed([int(rng.integers(0, 1 << length))], batch.words)
            )
        max_rank = int(batch.ranks.max())
        picks = (rng.random((n, max_rank)) < 0.5).astype(np.uint8)
        full = batch.combine_sorted(picks)
        subset = np.array([1, 4, 6], dtype=np.int64)
        partial = batch.combine_sorted(picks, subset)
        assert (partial[subset] == full[subset]).all()
        others = np.setdiff1d(np.arange(n), subset)
        assert not partial[others].any()

    def test_pick_buffer_consumption_is_deterministic(self):
        subspace_a = Subspace(get_field(2), 10)
        subspace_b = Subspace(get_field(2), 10)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        draws_a = [subspace_a.draw_pick_mask(rng_a, r) for r in (3, 7, 1, 10, 4)]
        draws_b = [subspace_b.draw_pick_mask(rng_b, r) for r in (3, 7, 1, 10, 4)]
        assert draws_a == draws_b
        assert all(d > 0 for d in draws_a)

    def test_pick_buffer_handles_ranks_beyond_one_refill(self):
        # A rank above 8 * PICK_REFILL_BYTES needs several refills per draw;
        # the buffer must never go negative or truncate the pick.
        rank = 8 * Subspace.PICK_REFILL_BYTES + 37
        subspace = Subspace(get_field(2), rank)
        rng = np.random.default_rng(1)
        for _ in range(3):
            pick = subspace.draw_pick_mask(rng, rank)
            assert 0 < pick < (1 << rank)
            assert subspace._pick_bits >= 0


class TestScalarFastPaths:
    def test_saturated_scalar_insert_short_circuits(self):
        basis = GF2Basis(3)
        for mask in (0b001, 0b010, 0b100):
            assert basis.insert(mask)
        assert basis.rank == 3
        assert not basis.insert(0b111)
        assert basis.rank == 3

    def test_saturated_general_q_subspace_short_circuits(self):
        subspace = Subspace(get_field(3), 2)
        assert subspace.insert([1, 0])
        assert subspace.insert([0, 1])
        assert not subspace.insert([2, 2])
        assert subspace.rank == 2

    def test_rows_are_mutually_reduced(self, rng):
        # Gauss-Jordan invariant: no row carries another row's leading bit.
        basis = GF2Basis(40)
        for _ in range(30):
            basis.insert(int(rng.integers(0, 1 << 40)))
        leads = {mask.bit_length() - 1 for mask in basis._rows.values()}
        for mask in basis._rows.values():
            carried = {b for b in leads if (mask >> b) & 1}
            assert carried == {mask.bit_length() - 1}

    def test_from_rows_round_trip(self, rng):
        basis = GF2Basis(30)
        for _ in range(20):
            basis.insert(int(rng.integers(0, 1 << 30)))
        rebuilt = GF2Basis.from_rows(30, basis.rows_in_insertion_order())
        assert rebuilt._rows == basis._rows
        assert rebuilt.basis_masks() == basis.basis_masks()
        assert rebuilt._pivot_mask == basis._pivot_mask

    def test_from_rows_rejects_invalid_rows(self):
        with pytest.raises(ValueError, match="non-zero"):
            GF2Basis.from_rows(8, [0])
        with pytest.raises(ValueError, match="echelon"):
            GF2Basis.from_rows(8, [0b11, 0b10])
        with pytest.raises(ValueError, match="echelon"):
            GF2Basis.from_rows(2, [0b100])
        # Distinct leads, but 0b110 carries 0b011's lead: 0b101 is in the
        # span, yet a single reduction pass would leave 0b11.
        with pytest.raises(ValueError, match="mutually reduced"):
            GF2Basis.from_rows(8, [0b110, 0b011])
        with pytest.raises(ValueError, match="mutually reduced"):
            GF2Basis.from_rows(8, [0b001, 0b101])

    def test_reordered_shares_rows_in_the_given_order(self, rng):
        basis = GF2Basis(30)
        for _ in range(20):
            basis.insert(int(rng.integers(0, 1 << 30)))
        leads = list(basis._rows)[::-1]
        twin = basis.reordered(leads)
        assert list(twin._rows) == leads
        assert all(twin._rows[lead] is basis._rows[lead] for lead in leads)
        assert twin.basis_masks() == basis.basis_masks()
        assert twin._pivot_mask == basis._pivot_mask
        rebuilt = GF2Basis.from_rows(30, twin.rows_in_insertion_order())
        assert rebuilt._rows == twin._rows
        for bad in (leads[1:], leads + leads[:1], leads[:-1] + leads[:1], leads[:-1] + [31]):
            with pytest.raises(ValueError, match="row lead"):
                basis.reordered(bad)


class TestPackedHelpers:
    def test_capacity_growth_preserves_state(self, rng):
        batch = GF2BasisBatch(2, 120)
        scalar = GF2Basis(120)
        for _ in range(100):  # forces several _grow steps past the initial 16
            mask = int(rng.integers(0, 1 << 60)) | (int(rng.integers(0, 1 << 60)) << 60)
            nodes = np.array([0], dtype=np.int64)
            flags = batch.insert_batch(nodes, masks_to_packed([mask], batch.words))
            assert flags[0] == scalar.insert(mask)
        assert batch.row_masks(0) == list(scalar._rows.values())
