"""The Section 5.2 motivating example: XOR beats forwarding in the end phase.

Node ``A`` knows all ``k`` tokens; node ``B`` knows all but one, and ``A``
does not know which one is missing.  Worst-case deterministic token
forwarding needs ``k`` rounds, a randomized strategy needs ``k/2`` expected
rounds, but a single XOR of all tokens lets ``B`` reconstruct the missing
token in one round.

These tiny functions make that comparison executable (and exactly
quantifiable) so benchmark E12 can print the paper's motivating table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EndPhaseComparison",
    "forwarding_rounds_worst_case",
    "forwarding_rounds_expected_random",
    "xor_rounds",
    "simulate_random_forwarding",
    "compare_end_phase",
]


def forwarding_rounds_worst_case(k: int) -> int:
    """Deterministic forwarding: the adversary makes A send the missing token last."""
    return max(1, k)


def forwarding_rounds_expected_random(k: int) -> float:
    """Uniformly random forwarding without repetition finds the missing token in ~k/2."""
    return (k + 1) / 2.0


def xor_rounds(_k: int) -> int:
    """One XOR of all tokens always suffices."""
    return 1


def simulate_random_forwarding(k: int, rng: np.random.Generator) -> int:
    """Rounds until a random-without-repetition sender hits the (random) missing index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    missing = int(rng.integers(0, k))
    order = rng.permutation(k)
    for round_index, sent in enumerate(order, start=1):
        if int(sent) == missing:
            return round_index
    raise AssertionError("unreachable: the permutation covers every index")


@dataclass(frozen=True)
class EndPhaseComparison:
    """The paper's k-vs-k/2-vs-1 comparison, measured."""

    k: int
    deterministic_forwarding: int
    expected_random_forwarding: float
    measured_random_forwarding: float
    coded: int

    @property
    def coding_advantage(self) -> float:
        """Speedup of the XOR strategy over random forwarding."""
        return self.measured_random_forwarding / self.coded


def compare_end_phase(k: int, trials: int = 200, seed: int = 0) -> EndPhaseComparison:
    """Measure the end-phase scenario over ``trials`` random missing tokens."""
    rng = np.random.default_rng(seed)
    measured = float(np.mean([simulate_random_forwarding(k, rng) for _ in range(trials)]))
    return EndPhaseComparison(
        k=k,
        deterministic_forwarding=forwarding_rounds_worst_case(k),
        expected_random_forwarding=forwarding_rounds_expected_random(k),
        measured_random_forwarding=measured,
        coded=xor_rounds(k),
    )
