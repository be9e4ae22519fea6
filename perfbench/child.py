"""One workload execution in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/child.py MODE WORKLOAD SEED SPAWNED_AT``, run from
the repository root.  ``SPAWNED_AT`` is the parent's ``time.perf_counter()``
just before it started this interpreter (the monotonic clock is shared by
all processes on Linux), so ``setup_s`` covers interpreter start-up,
``import repro`` and building the inputs.  MODE is

* ``run`` -- one untraced run, timed;
* ``trace`` -- one run with every layer wrapped by :mod:`spans`.

Each timed repeat gets its own interpreter: in-process repeats of the
coded workload drift (heap growth), fresh processes do not.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    """This interpreter's peak resident memory.

    ``VmHWM`` restarts at ``exec``; ``ru_maxrss`` would also count the pages
    of the parent that forked this process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _metrics_digest(result, trace) -> str:
    payload = asdict(result.metrics)
    if trace is not None:
        payload["trace_content"] = trace.to_trace().content_digest()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _layer_report(recorder, patches_restored: bool, wall_s: float) -> dict:
    import numpy as np

    self_s = dict(recorder.self_s)
    other_s = self_s.pop("run")
    counts = recorder.counts
    steps = np.diff(np.asarray(recorder.round_starts)) * 1e3
    return {
        "wall_s": wall_s,
        "self_s": self_s,
        "other_s": other_s,
        "restored": patches_restored,
        "csr_entries": counts["topology.csr_entries"],
        "base_entries": counts["faults.base_entries"],
        "effective_entries": counts["faults.effective_entries"],
        "insert_rows": counts["gf.insert_rows"],
        "innovative_rows": counts["gf.innovative_rows"],
        "round_p50_ms": float(np.percentile(steps, 50)) if steps.size else 0.0,
        "round_p99_ms": float(np.percentile(steps, 99)) if steps.size else 0.0,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, spawned_at = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, build_inputs

    inputs = build_inputs(WORKLOADS[name], seed)
    from repro.simulation import run_dissemination

    recorder = patches = None
    if mode == "trace":
        import spans

        recorder = spans.SpanRecorder()
        patches = spans.install(recorder, inputs["factory"], inputs["config"])
        inputs["adversary"] = spans.timed_adversary(recorder, inputs["adversary"])
    start = time.perf_counter()
    setup_s = start - spawned_at
    if recorder is None:
        result = run_dissemination(**inputs)
    else:
        result = recorder.call("run", run_dissemination, **inputs)
    run_s = time.perf_counter() - start

    metrics = result.metrics
    faulted = inputs["faults"] is not None and inputs["faults"].active
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "engine": result.engine,
        "correct": result.correct,
        "rounds_executed": metrics.rounds_executed,
        "completion_rounds": (
            metrics.survivor_completion_round if faulted else metrics.completion_round
        ),
        "useless_ratio": metrics.useless_deliveries / max(1, metrics.deliveries),
        "peak_rss_mb": _peak_rss_mb(),
        "digest": _metrics_digest(result, inputs["trace"]),
    }
    if recorder is not None:
        report["layers"] = _layer_report(recorder, patches.restore(), run_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
