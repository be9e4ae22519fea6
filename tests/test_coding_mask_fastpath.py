"""Tests for the mask-native GF(2) fast path and the packed wire format.

Three layers are pinned down here:

* the packed :class:`CodedMessage` wire format is bit-for-bit equivalent to
  the old per-symbol tuple form (round-trips, size accounting, receive);
* the mask-native ``Subspace`` operations (`insert` / `senses` / `decode` /
  `coefficient_rank`) agree with the generic-field elimination path on the
  same vector streams (property test over seeded random generations);
* the zero-combination regression: a node with information never composes
  the useless all-zero message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bits import pack_bits, unpack_bits
from repro.coding import Generation, Subspace
from repro.gf import GF2
from repro.tokens.message import CodedMessage


def generic_subspace(length: int) -> Subspace:
    """A GF(2) subspace forced onto the generic-field elimination path."""
    s = Subspace(GF2, length)
    s._gf2 = None
    return s


class TestPackedWireFormat:
    def test_packed_message_equals_tuple_twin(self):
        gen = Generation(k=4, payload_bits=8, field_order=2, generation_id=7)
        vector = gen.source_vector(2, 0xA5)
        tuple_msg = gen.message_from_vector(9, vector)
        packed_msg = gen.message_from_mask(9, gen.source_mask(2, 0xA5))
        assert packed_msg.is_packed and not tuple_msg.is_packed
        assert packed_msg.coefficients == tuple_msg.coefficients
        assert packed_msg.payload == tuple_msg.payload
        assert packed_msg.size_bits == tuple_msg.size_bits
        assert packed_msg.header_bits == tuple_msg.header_bits
        assert packed_msg == tuple_msg
        assert hash(packed_msg) == hash(tuple_msg)

    def test_mask_vector_roundtrip(self, rng):
        gen = Generation(k=5, payload_bits=12, field_order=2, generation_id=3)
        for _ in range(20):
            mask = int(rng.integers(0, 1 << gen.vector_length))
            msg = gen.message_from_mask(1, mask)
            assert gen.mask_from_message(msg) == mask
            vector = gen.vector_from_message(msg)
            assert pack_bits(vector) == mask
            # And through the tuple form back to the same mask.
            tuple_msg = gen.message_from_vector(1, vector)
            assert gen.mask_from_message(tuple_msg) == mask

    def test_roundtrip_across_generations(self):
        for generation_id in (0, 1, 5, 300):
            gen = Generation(k=3, payload_bits=6, field_order=2, generation_id=generation_id)
            msg = gen.message_from_mask(0, gen.source_mask(1, 0b101010))
            assert msg.generation == generation_id
            assert gen.mask_from_message(msg) == gen.source_mask(1, 0b101010)

    def test_receive_accepts_both_forms_identically(self, rng):
        gen = Generation(k=3, payload_bits=8, field_order=2)
        payloads = [17, 255, 0]
        source = gen.new_state()
        for i, payload in enumerate(payloads):
            assert source.add_source(i, payload)
        sink_packed = gen.new_state()
        sink_tuple = gen.new_state()
        for _ in range(40):
            msg = source.compose(0, rng)
            assert msg is not None and msg.is_packed
            twin = CodedMessage(
                sender=msg.sender,
                coefficients=msg.coefficients,
                payload=msg.payload,
                field_order=2,
                generation=msg.generation,
            )
            assert sink_packed.receive(msg) == sink_tuple.receive(twin)
        assert sink_packed.rank == sink_tuple.rank
        assert sink_packed.decode_payloads() == sink_tuple.decode_payloads() == payloads

    def test_packed_form_validation(self):
        with pytest.raises(ValueError):
            CodedMessage(sender=0, field_order=3, mask=5, k=2, payload_symbols=2)
        with pytest.raises(ValueError):
            CodedMessage(sender=0, mask=5, k=None, payload_symbols=2)
        with pytest.raises(ValueError):
            CodedMessage(sender=0, coefficients=(1,), mask=1, k=1, payload_symbols=0)
        with pytest.raises(ValueError):
            CodedMessage(sender=0, mask=1 << 10, k=2, payload_symbols=2)

    def test_dimension_mismatch_rejected(self):
        gen = Generation(k=4, payload_bits=8, field_order=2)
        other = Generation(k=5, payload_bits=8, field_order=2)
        msg = other.message_from_mask(0, other.source_mask(0, 1))
        with pytest.raises(ValueError):
            gen.mask_from_message(msg)

    def test_mask_helpers_on_tuple_form(self):
        msg = CodedMessage(
            sender=0, coefficients=(1, 0, 1), payload=(0, 1, 1, 0), field_order=2
        )
        assert msg.coefficient_mask() == 0b101
        assert msg.payload_mask() == 0b0110
        assert msg.num_coefficients == 3
        assert msg.num_payload_symbols == 4


class TestMaskNativeMatchesGenericField:
    """Property test: the GF2Basis fast path tracks generic elimination."""

    @pytest.mark.parametrize("trial", range(8))
    def test_streams_agree(self, trial):
        rng = np.random.default_rng(1000 + trial)
        k = int(rng.integers(2, 6))
        payload_len = int(rng.integers(0, 8))
        length = k + payload_len
        fast = Subspace(GF2, length)
        slow = generic_subspace(length)
        # A realistic source span: e_i || payload_i.
        payload_ints = [int(rng.integers(0, 1 << payload_len)) if payload_len else 0 for _ in range(k)]
        sources = []
        for i, payload in enumerate(payload_ints):
            sources.append((1 << i) | (payload << k))
        # Stream random combinations of random subsets plus noise re-inserts.
        for step in range(40):
            subset = rng.integers(0, 2, size=k)
            mask = 0
            for pick, source in zip(subset.tolist(), sources):
                if pick:
                    mask ^= source
            arr = unpack_bits(mask, length)
            assert fast.insert(mask) == slow.insert(arr)
            assert fast.rank == slow.rank
            for probe_k in range(1, length + 1):
                assert fast.coefficient_rank(probe_k) == slow.coefficient_rank(probe_k)
            direction = rng.integers(0, 2, size=int(rng.integers(1, length + 1)))
            assert fast.senses(pack_bits(direction)) == slow.senses(direction)
            assert fast.contains(mask) == slow.contains(arr)
        assert fast.can_decode(k) == slow.can_decode(k)
        if fast.can_decode(k):
            fast_decoded = fast.decode(k)
            slow_decoded = slow.decode(k)
            assert [d.tolist() for d in fast_decoded] == [d.tolist() for d in slow_decoded]
            masks = fast.decode_payload_masks(k)
            assert masks == payload_ints

    def test_decode_payload_masks_are_payload_ints(self, rng):
        gen = Generation(k=4, payload_bits=10, field_order=2)
        payloads = [int(rng.integers(0, 1 << 10)) for _ in range(4)]
        source = gen.new_state()
        for i, payload in enumerate(payloads):
            source.add_source(i, payload)
        sink = gen.new_state()
        for _ in range(100):
            msg = source.compose(0, rng)
            sink.receive(msg)
            if sink.can_decode():
                break
        assert sink.decode_payloads() == payloads


class TestIncrementalCoefficientRank:
    def test_matches_fresh_projection_under_interleaving(self, rng):
        length, k = 10, 4
        s = Subspace(GF2, length)
        for step in range(30):
            vec = rng.integers(0, 2, size=length)
            s.insert(vec)
            # Interleave queries so the incremental projection is exercised
            # from a partially-built state.
            fresh = Subspace(GF2, k)
            for row in s.basis_matrix():
                fresh.insert(np.asarray(row).ravel()[:k])
            assert s.coefficient_rank(k) == fresh.rank

    def test_copy_keeps_projections_independent(self):
        s = Subspace(GF2, 6)
        s.insert([1, 0, 0, 0, 1, 0])
        assert s.coefficient_rank(3) == 1
        clone = s.copy()
        clone.insert([0, 1, 0, 0, 0, 0])
        assert clone.coefficient_rank(3) == 2
        assert s.coefficient_rank(3) == 1

    def test_generic_field_path_also_incremental(self, rng):
        from repro.gf import GF
        from tests.oracles import gf_matrix

        for q in (3, 5, 257):
            field = GF(q)
            s = Subspace(field, 7)
            for step in range(20):
                # Sparse vectors leave some coefficient columns unpivoted
                # for a while, so the rank below k is not just min(rank, k).
                vector = field.random_elements(rng, 7) * rng.integers(0, 2, size=7)
                s.insert(vector)
                for k in (1, 3, 5, 7):
                    expected = gf_matrix.rank(field, s.basis_matrix()[:, :k])
                    assert s.coefficient_rank(k) == expected, (q, step, k)


class TestNoZeroCombinations:
    def test_random_combination_mask_never_zero(self, rng):
        s = Subspace(GF2, 8)
        s.insert(1 << 3)  # rank 1: the zero draw has probability 1/2
        for _ in range(200):
            assert s.random_combination_mask(rng) != 0

    def test_random_combination_never_zero_generic(self, rng):
        from repro.gf import GF

        s = Subspace(GF(3), 5)
        s.insert([1, 0, 2, 0, 0])
        for _ in range(100):
            combo = s.random_combination(rng)
            assert any(int(x) for x in combo)

    def test_compose_never_emits_zero_message(self, rng):
        gen = Generation(k=2, payload_bits=4, field_order=2)
        state = gen.new_state()
        state.add_source(0, 3)
        for _ in range(100):
            msg = state.compose(0, rng)
            assert msg is not None
            assert gen.mask_from_message(msg) != 0

    def test_empty_subspace_still_silent(self, rng):
        gen = Generation(k=2, payload_bits=4, field_order=2)
        assert gen.new_state().compose(0, rng) is None
        assert Subspace(GF2, 4).random_combination_mask(rng) is None


class TestMaskInputValidation:
    def test_oversized_mask_rejected(self):
        s = Subspace(GF2, 4)
        with pytest.raises(ValueError):
            s.insert(1 << 4)
        with pytest.raises(ValueError):
            s.senses(1 << 7)

    def test_mask_insert_requires_gf2(self):
        from repro.gf import GF

        s = Subspace(GF(3), 4)
        with pytest.raises(TypeError):
            s.insert(5)
        with pytest.raises(TypeError):
            s.senses(5)
        with pytest.raises(TypeError):
            s.random_combination_mask(np.random.default_rng(0))
        with pytest.raises(TypeError):
            s.basis_masks()

    def test_free_header_subclass_not_equal_to_plain_message(self):
        from repro.algorithms.centralized import FreeHeaderCodedMessage

        plain = CodedMessage(sender=0, coefficients=(1, 0), payload=(1,), field_order=2)
        free = FreeHeaderCodedMessage(
            sender=0, coefficients=(1, 0), payload=(1,), field_order=2
        )
        assert plain != free and free != plain
        assert free.header_bits == 0 and plain.header_bits == 2
