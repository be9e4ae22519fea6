"""Unit tests for coding generations and derandomization."""

from __future__ import annotations

import pytest

from repro.coding import (
    DeterministicSchedule,
    Generation,
    deterministic_header_bits,
    failure_probability_log2,
    omniscient_field_order,
    union_bound_holds,
    union_bound_margin_log2,
    witness_count_log2,
    witness_description_bits,
)
from repro.gf import is_prime


class TestGeneration:
    def test_basic_properties(self):
        gen = Generation(k=5, payload_bits=16, field_order=2)
        assert gen.payload_symbols == 16
        assert gen.vector_length == 21
        assert gen.message_bits == 21  # k lg q + d with q = 2

    def test_larger_field_properties(self):
        gen = Generation(k=4, payload_bits=16, field_order=257)
        assert gen.payload_symbols == 2
        assert gen.message_bits == (4 + 2) * 9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Generation(k=0, payload_bits=8)
        with pytest.raises(ValueError):
            Generation(k=1, payload_bits=-1)

    def test_source_vector_structure(self):
        gen = Generation(k=3, payload_bits=4, field_order=2)
        v = gen.source_vector(1, 0b1010)
        assert v[:3].tolist() == [0, 1, 0]
        assert v[3:].tolist() == [0, 1, 0, 1]  # LSB first

    def test_source_vector_bad_index(self):
        gen = Generation(k=3, payload_bits=4)
        with pytest.raises(IndexError):
            gen.source_vector(3, 0)

    def test_message_vector_roundtrip(self):
        gen = Generation(k=4, payload_bits=8, field_order=2, generation_id=7)
        v = gen.source_vector(2, 0xA5)
        msg = gen.message_from_vector(9, v)
        assert msg.sender == 9
        assert msg.generation == 7
        back = gen.vector_from_message(msg)
        assert back.tolist() == v.tolist()

    def test_vector_from_foreign_message_rejected(self):
        gen2 = Generation(k=4, payload_bits=8, field_order=2)
        gen3 = Generation(k=4, payload_bits=8, field_order=3)
        msg = gen3.message_from_vector(0, gen3.source_vector(0, 5))
        with pytest.raises(ValueError):
            gen2.vector_from_message(msg)


class TestGenerationState:
    def test_end_to_end_decode(self, rng):
        gen = Generation(k=3, payload_bits=8, field_order=2)
        payloads = [17, 255, 0]
        sources = [gen.new_state() for _ in range(3)]
        for i, (state, payload) in enumerate(zip(sources, payloads)):
            assert state.add_source(i, payload)
        sink = gen.new_state()
        for _ in range(60):
            for state in sources:
                msg = state.compose(0, rng)
                if msg is not None:
                    sink.receive(msg)
            if sink.can_decode():
                break
        assert sink.can_decode()
        assert sink.decode_payloads() == payloads

    def test_compose_empty_state_is_silent(self, rng):
        gen = Generation(k=2, payload_bits=4)
        assert gen.new_state().compose(0, rng) is None

    def test_receive_innovative_flag(self, rng):
        gen = Generation(k=2, payload_bits=4)
        a = gen.new_state()
        a.add_source(0, 3)
        b = gen.new_state()
        msg = a.compose(1, rng)
        assert b.receive(msg) is True
        assert b.receive(msg) is False

    def test_compose_with_coefficients(self):
        gen = Generation(k=2, payload_bits=4)
        state = gen.new_state()
        state.add_source(0, 1)
        state.add_source(1, 2)
        msg = state.compose_with_coefficients(0, [1, 1])
        assert msg is not None
        assert len(msg.coefficients) == 2

    def test_senses_direction(self):
        gen = Generation(k=3, payload_bits=2)
        state = gen.new_state()
        state.add_source(1, 0)
        assert state.senses([0, 1, 0])
        assert not state.senses([1, 0, 0])

    def test_rank_and_coefficient_rank(self):
        gen = Generation(k=2, payload_bits=4)
        state = gen.new_state()
        state.add_source(0, 9)
        assert state.rank == 1
        assert state.coefficient_rank() == 1
        assert not state.can_decode()


class TestPacketCostModel:
    """Lemma 5.3's message cost, on the messages a generation emits."""

    def test_header_and_payload_bits(self):
        for q, header, payload in ((2, 10, 16), (257, 90, 18)):
            gen = Generation(k=10, payload_bits=16, field_order=q)
            msg = gen.message_from_vector(0, gen.source_vector(3, 0xBEEF))
            assert msg.header_bits == header
            assert msg.payload_bits == payload  # over GF(257): 2 symbols * 9 bits

    def test_message_bits_lemma_5_3(self):
        # Lemma 5.3: messages of size k lg q + d.
        gen = Generation(k=20, payload_bits=8, field_order=2)
        msg = gen.message_from_vector(0, gen.source_vector(0, 0xA5))
        assert gen.message_bits == 28
        assert msg.header_bits + msg.payload_bits == gen.message_bits

    @pytest.mark.parametrize("q", [2, 3, 5, 257, 65537])
    def test_emitted_message_costs_the_generations_message_bits(self, q):
        # The generation's Lemma 5.3 size and the emitted message's own
        # header and payload accounting must agree on every field.
        gen = Generation(k=6, payload_bits=24, field_order=q)
        msg = gen.message_from_vector(2, gen.source_vector(5, 2**24 - 1))
        assert msg.header_bits == 6 * msg.symbol_bits
        assert msg.header_bits + msg.payload_bits == gen.message_bits


class TestDerandomization:
    def test_omniscient_field_order_is_prime_and_large(self):
        q = omniscient_field_order(8, 3)
        assert is_prime(q)
        assert q >= 8**3

    def test_field_order_monotone_in_k(self):
        assert omniscient_field_order(10, 4) >= omniscient_field_order(10, 2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            omniscient_field_order(1, 1)
        with pytest.raises(ValueError):
            omniscient_field_order(4, 0)

    def test_deterministic_header_quadratic_in_k(self):
        # k^2 log n scaling: doubling k should roughly quadruple the header.
        small = deterministic_header_bits(16, 4)
        large = deterministic_header_bits(16, 8)
        assert large >= 3.5 * small

    def test_witness_counting_quantities(self):
        n, k = 12, 4
        q = omniscient_field_order(n, k)
        assert witness_description_bits(n, k) > 0
        assert witness_count_log2(n, k) == witness_description_bits(n, k)
        assert failure_probability_log2(n, q) < 0

    def test_union_bound_holds_with_theorem_field_size(self):
        # Theorem 6.1: q = n^{Omega(k)} makes the union bound go through.
        for n, k in [(8, 2), (16, 3), (32, 4)]:
            q = omniscient_field_order(n, k)
            assert union_bound_holds(n, k, q)
            assert union_bound_margin_log2(n, k, q) < 0

    def test_union_bound_fails_for_tiny_field(self):
        assert not union_bound_holds(16, 4, 2)

    def test_schedule_determinism_and_range(self):
        schedule = DeterministicSchedule(field_order=101, seed=3)
        a = schedule.coefficients(uid=5, round_index=7, count=10)
        b = schedule.coefficients(uid=5, round_index=7, count=10)
        assert a == b
        assert all(0 <= c < 101 for c in a)

    def test_schedule_varies_with_inputs(self):
        schedule = DeterministicSchedule(field_order=101, seed=3)
        assert schedule.coefficient(0, 0, 0) != schedule.coefficient(1, 0, 0) or \
            schedule.coefficient(0, 1, 0) != schedule.coefficient(0, 0, 0)

    def test_schedule_matrix_shape(self):
        schedule = DeterministicSchedule(field_order=11, seed=0)
        grid = [[schedule.coefficients(uid, r, 2) for r in range(4)] for uid in range(3)]
        assert [[len(slots) for slots in row] for row in grid] == [[2] * 4] * 3
        for uid, row in enumerate(grid):
            for r, slots in enumerate(row):
                assert slots == [schedule.coefficient(uid, r, s) for s in range(2)]
                assert all(0 <= x < 11 for x in slots)
