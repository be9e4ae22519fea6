"""Fixture: seedless randomness inside a state-aware FaultStrategy (REP102).

Every strategy receives the round's read-only ``RoundState`` of per-node
knowledge counts and coded ranks alongside the bound model's seeded
generator.  The view is for *targeting*; every random decision must still
come from the ``rng`` argument — a strategy that keys a private unseeded
stream off the protocol state breaks byte-identical replay exactly like
its state-blind cousins.
"""

import numpy as np


class FaultStrategy:
    """Stand-in for the real seam: ``plan_round`` returns an edge mask."""


class SneakyFrontierStrategy(FaultStrategy):
    """Reads the RoundState but draws from a private, unseeded stream."""

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state, erased):
        frontier = state.progress().argmax()
        hidden = np.random.default_rng()
        if np.random.random() < 0.5:
            return senders == hidden.integers(0, frontier + 1, size=1)
        return None


class HonestFrontierStrategy(FaultStrategy):
    """Targets by state, draws only from the generator the layer passes in."""

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state, erased):
        frontier = state.progress().argmax()
        if rng.random() < 0.5:
            return senders == rng.integers(0, frontier + 1, size=1)
        return None


class WaivedFrontierStrategy(FaultStrategy):
    """A deliberate waiver still needs the inline allow directive."""

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state, erased):
        # repro: allow[REP102] fixture exercising the suppression path
        extra = np.random.default_rng()
        return senders == extra.integers(0, 4, size=1)
