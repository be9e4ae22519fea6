"""Derandomizing random linear network coding (Section 6).

The paper shows that RLNC is not inherently randomized:

* **Theorem 6.1** — with field size ``q = n^{Omega(k)}`` the standard RLNC
  algorithm succeeds against an *omniscient* adversary (one that knows all
  coefficient choices in advance) with probability ``1 - q^{-n}``.  The proof
  counts compact *witnesses* (per-node learning events) instead of
  adversarial schedules: each node has at most ``k`` learning events, each
  describable in ``O(log n)`` bits, so there are at most ``exp(n k log n)``
  witnesses and a union bound applies.
* **Corollary 6.2** — this yields (non-uniform or exponential-time uniform)
  deterministic algorithms with coefficient overhead ``k^2 log n`` bits.

This module provides the quantitative side of that argument (field-size
selection, witness counting, union-bound checking) plus a
:class:`DeterministicSchedule`: a pre-committed per-UID coefficient sequence
playing the role of the advice matrix of Corollary 6.2.  Computing the
lexicographically-first provably-good matrix is super-polynomial (as the
paper itself notes); our substitute draws the schedule from a seeded PRF
over the required large field and exposes a verifier that checks it against
a battery of adversarial strategies on small instances.

The mask-native GF(2) fast path of the coding layer does not apply here:
Theorem 6.1 needs the huge fields ``q = n^{Omega(k)}``, so the deterministic
pipeline always runs on the generic-field (object-dtype) representation.
Schedules *over* GF(2) (used in tests) still compose through
``Subspace.combination_mask_with``, where only coefficient parity matters.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from ..gf import GF, get_field, smallest_prime_at_least

__all__ = [
    "omniscient_field_order",
    "deterministic_header_bits",
    "witness_description_bits",
    "witness_count_log2",
    "failure_probability_log2",
    "union_bound_margin_log2",
    "union_bound_holds",
    "DeterministicSchedule",
]


def omniscient_field_order(n: int, k: int, exponent_constant: float = 4.0) -> int:
    """The field order Theorem 6.1 requires: the smallest prime ``>= n^{c k}``.

    ``exponent_constant`` is the constant hidden in ``Omega(k)``.  The proof
    needs ``q^n`` to exceed the ``exp(n k log n)``-many witnesses; concretely
    ``c * log2 n >= log2(rounds) + log2 n`` suffices, which ``c = 4`` satisfies
    for every ``n >= 3`` (checked by :func:`union_bound_holds` and its tests).
    """
    if n < 2 or k < 1:
        raise ValueError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    target = max(2, int(math.ceil(n ** (exponent_constant * k))))
    return smallest_prime_at_least(target)


def deterministic_header_bits(n: int, k: int, exponent_constant: float = 4.0) -> int:
    """Coefficient-header cost of the derandomized algorithm: ``k^2 log n`` bits.

    With ``q = n^{ck}`` each of the ``k`` coefficients costs ``c k log n``
    bits, for a total of ``c k^2 log n`` — the "quadratic coefficient
    overhead" the paper pays for determinism.
    """
    q = omniscient_field_order(n, k, exponent_constant)
    per_symbol = max(1, math.ceil(math.log2(q)))
    return k * per_symbol


def witness_description_bits(n: int, k: int) -> int:
    """Bits needed to describe one witness (Theorem 6.1 proof).

    Each node has at most ``k`` learning events; each event names a round
    (``O(log(n + k))`` bits, rounds are ``O(n + k)``) and a sender
    (``log n`` bits).  Total: ``O(n k log n)`` bits.
    """
    rounds_bits = max(1, math.ceil(math.log2(max(2, 4 * (n + k)))))
    sender_bits = max(1, math.ceil(math.log2(max(2, n))))
    return n * k * (rounds_bits + sender_bits)


def witness_count_log2(n: int, k: int) -> float:
    """``log2`` of the number of witnesses (upper bound)."""
    return float(witness_description_bits(n, k))


def failure_probability_log2(n: int, q: int) -> float:
    """``log2`` of the per-witness failure probability bound ``q^{-n}``."""
    return -n * math.log2(q)


def union_bound_margin_log2(n: int, k: int, q: int) -> float:
    """``log2`` of (witness count * per-witness failure probability).

    Negative means the union bound succeeds: the total failure probability is
    below 1 (and exponentially small when strongly negative).
    """
    return witness_count_log2(n, k) + failure_probability_log2(n, q)


def union_bound_holds(n: int, k: int, q: int, margin_bits: float = 1.0) -> bool:
    """True iff the Theorem 6.1 union bound goes through with some margin."""
    return union_bound_margin_log2(n, k, q) <= -margin_bits


@dataclass(frozen=True)
class DeterministicSchedule:
    """A pre-committed coefficient schedule, one stream per node UID.

    This plays the role of the advice matrix of Corollary 6.2: *before* the
    execution starts, the schedule fixes, for every possible UID and every
    (round, slot) position, the coefficient that node will use.  The
    adversary — even an omniscient one — sees the whole schedule yet, when
    the field is large enough (Theorem 6.1), cannot prevent fast mixing.

    Coefficients are derived from SHA-256 of ``(seed, uid, round, slot)``
    reduced into ``F_q``; the stream is deterministic, reproducible, and
    independent of execution history, so the resulting protocol is
    non-uniform deterministic in exactly the paper's sense.
    """

    field_order: int
    seed: int = 0

    @property
    def field(self) -> GF:
        """The field coefficients are drawn from."""
        return get_field(self.field_order)

    def coefficient(self, uid: int, round_index: int, slot: int) -> int:
        """The committed coefficient for (uid, round, slot)."""
        material = f"{self.seed}:{uid}:{round_index}:{slot}".encode()
        digest = hashlib.sha256(material).digest()
        # 256 bits of digest reduced mod q; the bias is at most 2^-200 for the
        # field sizes used here, far below any probability we reason about.
        # repro: allow[REP404] a sha256 digest read as a big-endian integer, not the layout
        value = int.from_bytes(digest, "big")
        return value % self.field_order

    def coefficients(self, uid: int, round_index: int, count: int) -> list[int]:
        """The committed coefficient row for a node in a given round."""
        return [self.coefficient(uid, round_index, slot) for slot in range(count)]
