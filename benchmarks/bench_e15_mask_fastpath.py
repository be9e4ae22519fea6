"""E15: the mask-native GF(2) fast path keeps indexed broadcast cheap.

Regression guard for the packed-wire-format refactor.  Both sides are
measured on the *same machine* in the same process: one full
IndexedBroadcastNode dissemination at n = k = 64 on the mask-native
pipeline, and the same run with ``GenerationState`` forced onto the generic
array pipeline (``_mask_native = False``) — the data flow the seed
implementation used, which reproduces its wall-clock almost exactly (the
seed took 2.66 s against 0.41 s mask-native when the fast path landed).

The bench asserts ``speedup >= 3.08`` in-process (best of three runs per
side).  No ``perfbench`` workload runs the int-mask coded path on the
object engine, so this floor is the only speed check on that layer; a
disabled fast path reads about 1x.
"""

from __future__ import annotations

import time

from repro.algorithms import IndexedBroadcastNode
from repro.coding.rlnc import GenerationState
from repro.network import BottleneckAdversary
from repro.simulation import run_dissemination, standard_instance

from common import make_config

#: The in-process floor on the array-pipeline / mask-native ratio.
SPEEDUP_FLOOR = 3.08


def _one_run() -> None:
    # Pinned to the mask engine: this bench isolates the coding layer's
    # mask-native vs generic-array pipelines, and the kernel engine (which
    # "auto" would pick) bypasses GenerationState's pipeline switch.
    config = make_config(64, d=8, b=96)
    placement = standard_instance(64, 64, 8, seed=0)
    result = run_dissemination(
        IndexedBroadcastNode,
        config,
        placement,
        BottleneckAdversary(),
        seed=0,
        engine="mask",
    )
    assert result.completed and result.correct


def _best_of(repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _one_run()
        times.append(time.perf_counter() - start)
    return min(times)


def test_e15_mask_fastpath_speedup(benchmark, monkeypatch):
    _one_run()  # warm imports/caches before timing
    fast = _best_of()

    # Same run, generic array pipeline: the seed implementation's data flow.
    original_init = GenerationState.__init__

    def array_pipeline_init(self, generation):
        original_init(self, generation)
        self._mask_native = False

    monkeypatch.setattr(GenerationState, "__init__", array_pipeline_init)
    legacy = _best_of()
    monkeypatch.undo()

    speedup = legacy / fast
    print(
        f"\nE15 — mask-native {fast:.3f}s vs array pipeline {legacy:.3f}s "
        f"on this machine: {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
    )
    assert speedup >= SPEEDUP_FLOOR
    benchmark.pedantic(_one_run, rounds=1, iterations=1)
