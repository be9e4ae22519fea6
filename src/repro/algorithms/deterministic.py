"""Deterministic network-coded indexed broadcast (Theorem 6.1 / Corollary 6.2).

The deterministic algorithms replace the per-round fresh randomness of RLNC
by a pre-committed coefficient schedule over a large field (Section 6).
The schedule plays the role of the non-uniform advice / lexicographically
first good matrix; see :mod:`repro.coding.deterministic` for the
quantitative side (field size, witness counting) and for the substitution:
the schedule is drawn from a seeded PRF over the large field instead of
computing the lexicographically-first provably-good matrix.

This module provides convenience constructors that wire a
:class:`~repro.coding.deterministic.DeterministicSchedule` into the indexed
broadcast protocol and compute the field/overhead parameters Corollary 6.2
prescribes: the deterministic k-indexed broadcast, which is the component
Theorem 6.1 / Corollary 6.2 are about.  Theorem 2.5's deterministic T-stable
dissemination (deterministic MIS gathering + deterministic patch broadcast)
is out of scope: it needs a deterministic distributed MIS of ``G^D``, which
no run here executes.
"""

from __future__ import annotations

import numpy as np

from ..coding.deterministic import DeterministicSchedule, omniscient_field_order
from ..tokens.message import MessageBudget
from .base import ProtocolConfig
from .indexed_broadcast import IndexedBroadcastNode

__all__ = [
    "DeterministicIndexedBroadcastNode",
    "deterministic_broadcast_config",
]


class DeterministicIndexedBroadcastNode(IndexedBroadcastNode):
    """Indexed broadcast driven by a pre-committed coefficient schedule.

    Identical to :class:`IndexedBroadcastNode` except that it *requires* a
    ``deterministic_schedule`` entry in ``config.extra`` — constructing it
    without one is a configuration error rather than a silent fallback to
    randomness.
    """

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        if "deterministic_schedule" not in config.extra:
            raise ValueError(
                "DeterministicIndexedBroadcastNode requires "
                "config.extra['deterministic_schedule']"
            )
        super().__init__(uid, config, rng)


def deterministic_broadcast_config(
    n: int,
    k: int,
    token_bits: int,
    *,
    schedule_seed: int = 0,
    exponent_constant: float = 4.0,
    budget_slack: float = 8.0,
) -> ProtocolConfig:
    """Build the configuration Corollary 6.2 prescribes for ``n`` nodes, ``k`` tokens.

    The field order is the Theorem 6.1 requirement ``q >= n^{ck}``; the
    message budget is sized for the resulting ``k^2 log n + d``-bit messages.
    """
    field_order = omniscient_field_order(n, k, exponent_constant)
    symbol_bits = max(1, (field_order - 1).bit_length())
    message_bits = k * symbol_bits + token_bits + 8 * max(1, n.bit_length())
    schedule = DeterministicSchedule(field_order=field_order, seed=schedule_seed)
    return ProtocolConfig(
        n=n,
        k=k,
        token_bits=token_bits,
        budget=MessageBudget(b=message_bits, slack=budget_slack),
        field_order=field_order,
        extra={"deterministic_schedule": schedule},
    )
