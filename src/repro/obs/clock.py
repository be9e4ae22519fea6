"""The injectable wall-clock seam for phase profiling.

Simulation results must be a pure function of ``(config, seed)`` —
lint rule REP103 rejects wall clocks anywhere under ``src/``.  Phase
profiling still needs real elapsed time, so *all* timing flows through a
:class:`Clock` object the caller injects: :class:`SystemClock` is the
single sanctioned ``time.perf_counter`` call site in the source tree
(carrying the one justified ``repro: allow[REP103]``), and tests inject
a clock whose time only moves when the test advances it.
Timings are *context*, never *content*: they live in the trace manifest's
context section and are excluded from trace-content identity, so the
cross-engine byte-identity contract never sees a clock reading.
"""

from __future__ import annotations

import time

__all__ = ["Clock", "SystemClock"]


class Clock:
    """Monotonic-seconds supplier injected into :class:`PhaseProfiler`."""

    def now(self) -> float:
        """Current time in seconds (only differences are meaningful)."""
        raise NotImplementedError


class SystemClock(Clock):
    """Real elapsed time — the sanctioned REP103 exception.

    Every wall-clock read in ``src/`` must route through this class; a
    bare ``time.perf_counter()`` anywhere else still trips REP103 (see
    ``src/repro/lint/README.md`` and the fixture self-test).
    """

    def now(self) -> float:
        return time.perf_counter()  # repro: allow[REP103] the Clock seam's single sanctioned wall-clock read; timings are manifest context, never trace content
