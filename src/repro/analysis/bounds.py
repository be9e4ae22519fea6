"""Closed-form predicted round complexities for the paper's theorems.

These are the "expected curves" the benchmarks plot measurements against.
All formulas return plain floats of the *leading-order* expression with unit
constants (the paper's bounds are big-O; the benchmarks compare shapes and
ratios, not absolute values).

Every public function cites the theorem / corollary / lemma it encodes.
Theorem 2.5 (deterministic dissemination in a T-stable network) has no
formula here: it needs a deterministic distributed MIS of ``G^D``, and no
run executes one.
"""

from __future__ import annotations

import math

__all__ = [
    "log2c",
    "token_forwarding_rounds",
    "centralized_token_forwarding_lower_bound",
    "indexed_broadcast_rounds",
    "indexed_broadcast_message_bits",
    "naive_coded_rounds",
    "greedy_forward_rounds",
    "priority_forward_rounds",
    "coded_dissemination_rounds",
    "tstable_coded_rounds",
    "tstable_patch_broadcast_rounds",
    "centralized_coded_rounds",
    "coding_speedup_over_forwarding",
    "linear_time_message_size_coded",
    "linear_time_message_size_forwarding",
    "stability_for_near_linear_time",
]


def log2c(x: float) -> float:
    """``log2`` clamped below at 1, the asymptotic stand-in for ``log n``."""
    return max(1.0, math.log2(max(2.0, float(x))))


# ----------------------------------------------------------------------
# Baselines (Kuhn, Lynch, Oshman)
# ----------------------------------------------------------------------
def token_forwarding_rounds(n: int, k: int, d: int, b: int, T: int = 1) -> float:
    """Theorem 2.1: knowledge-based token forwarding, ``O(nkd/(bT) + n)`` (tight)."""
    return (n * k * d) / (b * T) + n


def centralized_token_forwarding_lower_bound(n: int, k: int) -> float:
    """Theorem 2.2: even centralized token forwarding needs ``Omega(n log k)`` for b = d."""
    return n * log2c(k)


# ----------------------------------------------------------------------
# Network-coded building blocks
# ----------------------------------------------------------------------
def indexed_broadcast_rounds(n: int, k: int) -> float:
    """Lemma 5.3: RLNC indexed broadcast completes in ``O(n + k)`` rounds."""
    return float(n + k)


def indexed_broadcast_message_bits(k: int, d: int, q: int = 2) -> float:
    """Lemma 5.3: message size ``k lg q + d`` bits."""
    return k * max(1.0, math.log2(q)) + d


def naive_coded_rounds(n: int, k: int, d: int, b: int) -> float:
    """Corollary 7.1: flood-indexing + coded broadcast, ``O(n k log n / b)``."""
    return (n * k * log2c(n)) / b + n


def greedy_forward_rounds(n: int, k: int, d: int, b: int) -> float:
    """Theorem 7.3: greedy-forward, ``O(n k d / b^2 + n b)``."""
    return (n * k * d) / (b * b) + n * b


def priority_forward_rounds(n: int, k: int, d: int, b: int) -> float:
    """Theorem 7.5: priority-forward, ``O((log n / b) * nkd/b + n log n)`` for b >= log^3 n."""
    return (log2c(n) / b) * (n * k * d) / b + n * log2c(n)


def coded_dissemination_rounds(n: int, k: int, d: int, b: int) -> float:
    """Theorem 2.3: the better of greedy-forward and priority-forward."""
    return min(greedy_forward_rounds(n, k, d, b), priority_forward_rounds(n, k, d, b))


# ----------------------------------------------------------------------
# T-stability (Section 8)
# ----------------------------------------------------------------------
def tstable_patch_broadcast_rounds(n: int, b: int, T: int) -> float:
    """Lemma 8.1: patch-sharing broadcasts (bT)^2 bits in ``O((n + bT^2) log n)`` rounds."""
    return (n + b * T * T) * log2c(n)


def tstable_coded_rounds(n: int, k: int, d: int, b: int, T: int) -> float:
    """Theorem 2.4: the minimum of the three T-stable coded dissemination bounds."""
    log_n = log2c(n)
    option_greedy = (log_n / (b * T * T)) * (n * k * d) / b + n * b * T * T * log_n
    option_priority = (log_n * log_n / (b * T * T)) * (n * k * d) / b + n * T * log_n * log_n
    option_pipeline = (log_n * log_n / (b * T * T)) * n * n + n * log_n
    return min(option_greedy, option_priority, option_pipeline)


def centralized_coded_rounds(n: int) -> float:
    """Corollary 2.6: centralized randomized coded dissemination is ``Theta(n)``."""
    return float(n)


# ----------------------------------------------------------------------
# Section 2.3 value instantiations
# ----------------------------------------------------------------------
def coding_speedup_over_forwarding(n: int, k: int, d: int, b: int, T: int = 1) -> float:
    """Predicted factor by which coding beats the forwarding lower bound."""
    forwarding = token_forwarding_rounds(n, k, d, b, T)
    coded = (
        tstable_coded_rounds(n, k, d, b, T) if T > 1 else coded_dissemination_rounds(n, k, d, b)
    )
    return forwarding / max(1.0, coded)


def linear_time_message_size_coded(n: int) -> float:
    """Section 2.3: ``b = sqrt(n log n)`` suffices for a linear-time coded counting algorithm."""
    return math.sqrt(n * log2c(n))


def linear_time_message_size_forwarding(n: int) -> float:
    """Section 2.3: forwarding needs ``b = n log n`` for linear time (tight)."""
    return n * log2c(n)


def stability_for_near_linear_time(n: int, deterministic: bool = False) -> float:
    """Section 2.3: stability needed for near-linear n-token dissemination.

    ``T = Omega(sqrt(n))`` suffices for randomized coding, ``T = Omega(n^{2/3})``
    for deterministic coding, versus ``T = Omega(n^{1 - o(1)})`` for forwarding.
    """
    if deterministic:
        return n ** (2.0 / 3.0)
    return math.sqrt(n)
