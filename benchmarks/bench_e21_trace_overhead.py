"""E21: round-trace telemetry overhead on the kernel engine.

The observability layer (``repro/obs``) promises that tracing is cheap and
inert: a :class:`~repro.obs.trace.TraceRecorder` attached to
``run_dissemination`` collects one columnar record per round with no
per-node Python on the kernel hot path, and never changes the execution.
Three measurements:

1. **Traced-vs-untraced row** — per-round kernel wall time with a
   clock-free recorder attached versus the identical bare run, printed
   as data.  The tracing cost is measured end to end by ``perfbench``'s
   ``adaptive_faults`` workload, which attaches a clock-free
   ``TraceRecorder`` to every run: its ``run_s``, with
   ``obs.observe_round_s`` as the recorder's layer.
2. **Clocked tracing row** — the same comparison with a
   :class:`~repro.obs.clock.SystemClock` attached (phase timers live),
   recorded as data: the phase-profiler spans are the only addition.
3. **Inertness guard** — the traced run's ``RunMetrics`` must equal the
   untraced run's bit for bit, and the recorded per-round counter columns
   must sum to the final counters.  These are the bench's assertions.
"""

from __future__ import annotations

import time

from repro.algorithms import TokenForwardingNode
from repro.obs import SystemClock, TraceRecorder
from repro.scenarios import make_scenario
from repro.simulation import run_dissemination, standard_instance

from common import make_config, print_rows

#: Same scale as E20's fault-overhead row: large enough that the
#: kernel engine's vectorised round cost dominates the python loop shell.
N = 128


def _run(trace: TraceRecorder | None, seed: int = 0):
    config = make_config(N, k=N, d=8, b=max(64, N + 16))
    placement = standard_instance(N, N, 8, seed=seed)
    adversary = make_scenario("edge_markov", N, seed=seed)
    start = time.perf_counter()
    result = run_dissemination(
        TokenForwardingNode, config, placement, adversary, seed=seed,
        engine="kernel", trace=trace,
    )
    return result, time.perf_counter() - start


def _overhead_rows() -> list[dict]:
    bare, bare_s = _run(None)
    recorder = TraceRecorder()
    traced, traced_s = _run(recorder)
    clocked_recorder = TraceRecorder(clock=SystemClock())
    clocked, clocked_s = _run(clocked_recorder)

    assert traced.metrics == bare.metrics, "tracing changed the execution"
    assert clocked.metrics == bare.metrics, "clocked tracing changed the execution"
    trace = recorder.to_trace()
    assert trace.rounds == bare.metrics.rounds_executed
    assert int(trace.arrays["broadcasts"].sum()) == bare.metrics.broadcasts
    assert int(trace.arrays["deliveries"].sum()) == bare.metrics.deliveries

    per_round = lambda seconds, result: seconds / max(1, result.metrics.rounds_executed)  # noqa: E731
    bare_pr = per_round(bare_s, bare)
    traced_pr = per_round(traced_s, traced)
    clocked_pr = per_round(clocked_s, clocked)
    rows = [
        {
            "mode": "untraced",
            "n": N,
            "ms_per_round": round(bare_pr * 1e3, 3),
            "overhead_ratio": 1.0,
        },
        {
            "mode": "traced",
            "n": N,
            "ms_per_round": round(traced_pr * 1e3, 3),
            "overhead_ratio": round(traced_pr / bare_pr, 2),
        },
        {
            "mode": "traced+clock",
            "n": N,
            "ms_per_round": round(clocked_pr * 1e3, 3),
            "overhead_ratio": round(clocked_pr / bare_pr, 2),
        },
    ]
    return rows


def test_e21_trace_overhead(benchmark):
    rows = _overhead_rows()
    print_rows("E21 — traced vs untraced kernel rounds", rows)
    benchmark.pedantic(
        lambda: _run(TraceRecorder(), seed=1),
        rounds=1,
        iterations=1,
    )
