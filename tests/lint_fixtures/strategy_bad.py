"""Fixture: seedless randomness inside an adaptive FaultStrategy (REP102).

``plan_round`` receives the bound model's seeded generator every round;
a strategy that conjures its own unseeded stream breaks the byte-identical
replay contract the two engines are checked against.
"""

import numpy as np


class FaultStrategy:
    """Stand-in for the real seam: ``plan_round`` returns an edge mask."""


class SneakyLossStrategy(FaultStrategy):
    """Draws from a private, unseeded stream instead of the bound rng."""

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state, erased):
        hidden = np.random.default_rng()
        if np.random.random() < 0.5:
            return senders == hidden.integers(0, 4, size=1)
        return None


class HonestLossStrategy(FaultStrategy):
    """Uses only the generator the fault layer passes in."""

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state, erased):
        if rng.random() < 0.5:
            return senders == rng.integers(0, 4, size=1)
        return None


class WaivedReplayStrategy(FaultStrategy):
    """A deliberate waiver still needs the inline allow directive."""

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state, erased):
        # repro: allow[REP102] fixture exercising the suppression path
        extra = np.random.default_rng()
        return senders == extra.integers(0, 4, size=1)
