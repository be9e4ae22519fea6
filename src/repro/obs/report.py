"""Table-ready views of a trace: per-round summaries and phase profiles.

These functions return lists of plain dict rows so the CLI, examples and
benchmarks can all render them through
:func:`repro.simulation.experiments.format_table` (or dump them as JSON)
without re-deriving anything from the raw columns.
"""

from __future__ import annotations

import numpy as np

from ..bits import unpack_bools
from .trace import ROUND_COUNTERS, Trace

__all__ = ["describe_trace", "profile_rows", "summary_rows"]


def describe_trace(trace: Trace) -> str:
    """One-paragraph provenance header for CLI output."""
    content, context = trace.content, trace.context
    label = f" [{content['label']}]" if content.get("label") else ""
    return (
        f"{content['protocol']}{label}: n={content['n']} k={content['k']} "
        f"seed={content['seed']} rounds={trace.rounds} "
        f"faults={content['faults']}\n"
        f"engine={context.get('engine', '?')} "
        f"version={context.get('version', '?')} "
        f"source={context.get('source_digest', '?')} "
        f"clocked={context.get('clocked', False)}"
    )


def summary_rows(trace: Trace, *, every: int | None = None) -> list[dict]:
    """Per-round summary rows, sampled to roughly 20 rows by default.

    ``every=1`` lists every round.  The final round is always included —
    it carries the terminal knowledge/rank state.
    """
    rounds, n = trace.rounds, trace.n
    if rounds == 0:
        return []
    counts = trace.arrays["knowledge_counts"]
    ranks = trace.arrays["coded_ranks"]
    down = unpack_bools(trace.arrays["down_nodes"], n)
    down_counts = down.sum(axis=1)
    previous_down = np.concatenate(([np.zeros(n, dtype=bool)], down[:-1]))
    crashes = (down & ~previous_down).sum(axis=1)
    recoveries = (~down & previous_down).sum(axis=1)
    k = int(trace.content["k"])
    full = (counts >= k).sum(axis=1)
    if every is None:
        every = max(1, rounds // 20)
    picks = sorted(set(range(0, rounds, every)) | {rounds - 1})
    rows = []
    for r in picks:
        rows.append(
            {
                "round": r + 1,
                "min_known": int(counts[r].min()),
                "mean_known": round(float(counts[r].mean()), 1),
                "max_rank": int(ranks[r].max()),
                "full_nodes": int(full[r]),
                "broadcasts": int(trace.arrays["broadcasts"][r]),
                "deliveries": int(trace.arrays["deliveries"][r]),
                "useless": int(trace.arrays["useless_deliveries"][r]),
                "dropped": int(trace.arrays["dropped_deliveries"][r]),
                "duplicated": int(trace.arrays["duplicated_deliveries"][r]),
                "corrupted": int(trace.arrays["corrupted_deliveries"][r]),
                "down": int(down_counts[r]),
                "crash/rec": f"{int(crashes[r])}/{int(recoveries[r])}",
                "partition": bool(trace.arrays["partition_active"][r]),
            }
        )
    return rows


def totals_row(trace: Trace) -> dict:
    """Whole-run totals of the per-round counter columns."""
    return {
        name: int(trace.arrays[name].sum())
        for name in ROUND_COUNTERS
    }


def profile_rows(trace: Trace) -> list[dict]:
    """Phase-profiler rows from the manifest context (may be empty)."""
    profile = trace.context.get("profile") or {}
    total = sum(entry["seconds"] for entry in profile.values()) or 1.0
    rows = []
    for name, entry in profile.items():
        seconds = float(entry["seconds"])
        calls = int(entry["calls"])
        rows.append(
            {
                "phase": name,
                "seconds": round(seconds, 6),
                "calls": calls,
                "ms_per_call": round(1e3 * seconds / max(1, calls), 4),
                "share": f"{seconds / total:.0%}",
            }
        )
    return rows
