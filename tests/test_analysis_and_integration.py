"""Tests for the analysis module and cross-cutting integration checks.

The integration tests here are the small-scale versions of the paper's
headline comparisons; the full sweeps live in ``benchmarks/``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import (
    centralized_coded_rounds,
    centralized_token_forwarding_lower_bound,
    coded_dissemination_rounds,
    coding_speedup_over_forwarding,
    compare_end_phase,
    greedy_forward_rounds,
    indexed_broadcast_message_bits,
    indexed_broadcast_rounds,
    linear_time_message_size_coded,
    linear_time_message_size_forwarding,
    naive_coded_rounds,
    priority_forward_rounds,
    simulate_random_forwarding,
    stability_for_near_linear_time,
    token_forwarding_rounds,
    tstable_coded_rounds,
    tstable_patch_broadcast_rounds,
)
from repro.algorithms import GreedyForwardNode, IndexedBroadcastNode, TokenForwardingNode
from repro.coding import Generation
from repro.gf import GF2Basis
from repro.network import BottleneckAdversary, RandomConnectedAdversary
from repro.simulation import fit_power_law, run_dissemination
from repro.tokens import one_token_per_node
from tests.conftest import make_config


class TestBoundFormulas:
    def test_token_forwarding_theorem_2_1_shape(self):
        # Linear in k, linear in 1/b, linear in 1/T.
        base = token_forwarding_rounds(100, 100, 10, 10)
        assert token_forwarding_rounds(100, 200, 10, 10) > 1.8 * base
        assert token_forwarding_rounds(100, 100, 10, 20) < base
        assert token_forwarding_rounds(100, 100, 10, 10, T=2) < base

    def test_forwarding_never_below_n(self):
        assert token_forwarding_rounds(50, 1, 1, 10**6) >= 50

    def test_greedy_forward_quadratic_in_b(self):
        # Theorem 7.3: the nkd/b^2 term falls quadratically with b (in the
        # regime where it dominates the additive nb term).
        n, k, d = 10**6, 10**6, 16
        small_b = greedy_forward_rounds(n, k, d, 32)
        large_b = greedy_forward_rounds(n, k, d, 64)
        assert small_b / large_b > 3.0

    def test_theorem_2_3_beats_theorem_2_1_for_moderate_b(self):
        n = k = 4096
        d = int(math.log2(n))
        for b in (64, 256, 1024):
            assert coded_dissemination_rounds(n, k, d, b) < token_forwarding_rounds(n, k, d, b)

    def test_naive_coded_matches_corollary_7_1(self):
        n = k = 1000
        assert naive_coded_rounds(n, k, 10, 100) == pytest.approx(
            n * k * math.log2(n) / 100 + n
        )

    def test_priority_forward_better_than_naive_for_large_b(self):
        n = k = 10**4
        d = 14
        b = 10**3
        assert priority_forward_rounds(n, k, d, b) < naive_coded_rounds(n, k, d, b)

    def test_indexed_broadcast_formulas(self):
        assert indexed_broadcast_rounds(100, 50) == 150
        assert indexed_broadcast_message_bits(100, 20, 2) == 120
        assert indexed_broadcast_message_bits(100, 20, 4) == 220

    def test_tstable_t_squared_speedup(self):
        # Theorem 2.4 vs Theorem 2.1: quadrupling T buys ~T^2 for coding but
        # only ~T for forwarding, in the regime where the kd/(bT)^2 term
        # dominates the additive terms.
        n, k, d, b = 10**3, 10**9, 10, 100
        coded_t2 = tstable_coded_rounds(n, k, d, b, 2)
        coded_t8 = tstable_coded_rounds(n, k, d, b, 8)
        forwarding_t2 = token_forwarding_rounds(n, k, d, b, 2)
        forwarding_t8 = token_forwarding_rounds(n, k, d, b, 8)
        coded_gain = coded_t2 / coded_t8
        forwarding_gain = forwarding_t2 / forwarding_t8
        assert coded_gain > 1.5 * forwarding_gain

    def test_patch_broadcast_lemma_8_1(self):
        assert tstable_patch_broadcast_rounds(1000, 10, 5) == pytest.approx(
            (1000 + 10 * 25) * math.log2(1000)
        )

    def test_centralized_bounds(self):
        assert centralized_coded_rounds(500) == 500
        assert centralized_token_forwarding_lower_bound(500, 500) > 500

    def test_section_2_3_instantiations(self):
        n = 2**16
        # b = sqrt(n log n) gives linear time with coding, n log n without.
        assert linear_time_message_size_coded(n) < linear_time_message_size_forwarding(n) / 100
        # Stability thresholds: sqrt(n) (randomized) vs n^(2/3) (deterministic).
        assert stability_for_near_linear_time(n) < stability_for_near_linear_time(n, deterministic=True)

    def test_near_linear_stability_thresholds(self):
        # Section 2.3: T = sqrt(n) for randomized coding, n^(2/3) for
        # deterministic coding.
        n = 10**6
        assert stability_for_near_linear_time(n) == pytest.approx(1000)
        assert stability_for_near_linear_time(n, deterministic=True) == pytest.approx(10**4)

    def test_speedup_counting_case(self):
        # b = d = log n, k = n: coding wins by ~log n (first bullet of §2.3).
        n = 2**12
        log_n = int(math.log2(n))
        speedup = coding_speedup_over_forwarding(n, n, log_n, log_n)
        assert speedup > 2.0


class TestMotivatingExample:
    def test_xor_recovers_missing_token(self, rng):
        # B holds every token but #4; one XOR of all ten lets it decode #4.
        tokens = [int(x) for x in rng.integers(0, 2**16, size=10)]
        gen = Generation(k=10, payload_bits=16)
        basis = GF2Basis(gen.vector_length)
        xor_all = 0
        for index, token in enumerate(tokens):
            xor_all ^= gen.source_mask(index, token)
            if index != 4:
                basis.insert(gen.source_mask(index, token))
        assert basis.decode_payload_masks(10) is None
        basis.insert(xor_all)
        assert basis.decode_payload_masks(10)[4] == tokens[4]

    def test_simulated_forwarding_rounds_distribution(self, rng):
        rounds = [simulate_random_forwarding(10, rng) for _ in range(100)]
        assert all(1 <= r <= 10 for r in rounds)
        assert 3 <= np.mean(rounds) <= 8  # ~ (k+1)/2

    def test_compare_end_phase_matches_paper(self):
        comparison = compare_end_phase(k=20, trials=300, seed=1)
        assert comparison.deterministic_forwarding == 20
        assert comparison.coded == 1
        assert abs(comparison.measured_random_forwarding - 10.5) < 2.0
        assert comparison.coding_advantage > 5

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            simulate_random_forwarding(0, rng)


class TestIntegrationComparisons:
    def test_coding_beats_forwarding_small_messages(self, rng):
        """The headline claim at executable scale: b = d case, coding wins."""
        n = 24
        d = 8
        placement = one_token_per_node(n, d, rng)
        coded = run_dissemination(
            IndexedBroadcastNode, make_config(n, d=d, b=n + 32), placement, BottleneckAdversary()
        )
        forwarding = run_dissemination(
            TokenForwardingNode, make_config(n, d=d, b=n + 32), placement, BottleneckAdversary()
        )
        assert coded.completed and forwarding.completed
        assert coded.rounds < forwarding.rounds

    def test_forwarding_rounds_scale_superlinearly_in_n(self, rng):
        """Token forwarding rounds grow ~n^2 for k = n (Theorem 2.1)."""
        sizes = [8, 16, 32]
        rounds = []
        for n in sizes:
            placement = one_token_per_node(n, 8, np.random.default_rng(n))
            result = run_dissemination(
                TokenForwardingNode, make_config(n, d=8, b=24), placement, BottleneckAdversary()
            )
            assert result.completed
            rounds.append(result.rounds)
        alpha, _ = fit_power_law(sizes, rounds)
        assert alpha > 1.5

    def test_coded_broadcast_scales_linearly_in_n(self, rng):
        """RLNC indexed broadcast rounds grow ~n for k = n (Lemma 5.3)."""
        sizes = [8, 16, 32]
        rounds = []
        for n in sizes:
            placement = one_token_per_node(n, 8, np.random.default_rng(n))
            result = run_dissemination(
                IndexedBroadcastNode, make_config(n, d=8, b=n + 32), placement, BottleneckAdversary()
            )
            assert result.completed
            rounds.append(result.rounds)
        alpha, _ = fit_power_law(sizes, rounds)
        assert alpha < 1.5

    def test_greedy_forward_improves_with_message_size(self, rng):
        """Theorem 2.3 shape: larger b reduces greedy-forward rounds."""
        n = 20
        placement = one_token_per_node(n, 8, rng)
        small = run_dissemination(
            GreedyForwardNode, make_config(n, d=8, b=40), placement, BottleneckAdversary()
        )
        large = run_dissemination(
            GreedyForwardNode, make_config(n, d=8, b=160), placement, BottleneckAdversary()
        )
        assert small.completed and large.completed
        assert large.rounds <= small.rounds
