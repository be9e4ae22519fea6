"""Round-trace observability: recorders, phase profilers, trace artifacts.

``run_dissemination(trace=TraceRecorder(...))`` collects columnar
per-round records (knowledge popcounts, GF(2) ranks, fault events,
counter deltas) whose *content* is byte-identical across the kernel
and mask engines; ``python -m repro.obs`` summarises, diffs and
profiles the saved ``.npz`` artifacts.  See :mod:`repro.obs.trace` for
the schema and :mod:`repro.obs.clock` for the sanctioned wall-clock seam.
"""

from .clock import Clock, SystemClock
from .diff import Divergence, TraceDiff, diff_traces
from .profiler import NULL_PROFILER, PhaseProfiler
from .provenance import source_digest
from .report import describe_trace, profile_rows, summary_rows, totals_row
from .trace import (
    ROUND_COUNTERS,
    Trace,
    TraceRecorder,
    load_trace,
    save_trace,
)

__all__ = [
    "Clock",
    "Divergence",
    "NULL_PROFILER",
    "PhaseProfiler",
    "ROUND_COUNTERS",
    "SystemClock",
    "Trace",
    "TraceDiff",
    "TraceRecorder",
    "describe_trace",
    "diff_traces",
    "load_trace",
    "profile_rows",
    "save_trace",
    "source_digest",
    "summary_rows",
    "totals_row",
]
