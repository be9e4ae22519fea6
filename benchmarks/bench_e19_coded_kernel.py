"""E19: the batched GF(2) elimination core keeps coded workloads cheap.

Regression guard for the coded-kernel rewrite (stacked uint64 bases, fused
whole-inbox inserts, lazy sorted-order combines — see ``repro/gf/packed.py``
and ``repro/simulation/coded_kernels.py``).  The workload is the coding
family's stress case: RLNC indexed broadcast at n = k = 256 over per-round
shifted rings, where a per-node ``Subspace`` implementation spends its
time in Python compose sorts, XOR loops and insert reduction chains.  All
engines produce byte-identical ``RunMetrics`` for identical seeds, so the
comparison times implementations, not trajectories.

The assertions are (a) byte-identical metrics kernel vs mask at n = 256,
(b) an in-process ``speedup >= 2.5`` floor vs the mask engine, which a
disabled batched path (~1x) fails, and (c) the n = 512 scale point
executes a fixed round budget on the kernel engine.  End to end,
``perfbench``'s ``coded_broadcast`` workload times the same kernel: its
``run_s``, with ``gf.insert_s`` as the batched core's layer.
"""

from __future__ import annotations

import dataclasses
import time

from repro.algorithms import IndexedBroadcastNode
from repro.network import ShiftedRingAdversary
from repro.simulation import run_dissemination, standard_instance

from common import make_config

N = 256
SCALE_N = 512
SCALE_ROUNDS = 60


def _one_run(engine: str, n: int = N, **kwargs):
    config = make_config(n, d=8, b=n + 16)
    placement = standard_instance(n, n, 8, seed=0)
    return run_dissemination(
        IndexedBroadcastNode,
        config,
        placement,
        ShiftedRingAdversary(),
        seed=0,
        engine=engine,
        **kwargs,
    )


def _best_of(engine: str, repeats: int = 2, **kwargs) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _one_run(engine, **kwargs)
        times.append(time.perf_counter() - start)
    return min(times)


def test_e19_engines_identical_metrics():
    kernel = _one_run("kernel")
    mask = _one_run("mask")
    assert kernel.engine == "kernel" and mask.engine == "mask"
    assert kernel.completed and kernel.correct
    assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)
    for kernel_node, mask_node in zip(kernel.nodes, mask.nodes):
        assert kernel_node.known_token_ids() == mask_node.known_token_ids()


def test_e19_coded_kernel_speedup(benchmark):
    _one_run("kernel")  # warm imports/caches before timing
    fast = _best_of("kernel")
    mask = _best_of("mask")

    speedup = mask / fast
    print(
        f"\nE19 — batched coded kernel {fast:.3f}s vs mask engine {mask:.3f}s "
        f"on this machine: {speedup:.1f}x (floor 2.5x)"
    )
    assert speedup >= 2.5
    benchmark.pedantic(lambda: _one_run("kernel"), rounds=1, iterations=1)


def test_e19_kernel_scales_to_n512():
    start = time.perf_counter()
    result = _one_run("kernel", n=SCALE_N, max_rounds=SCALE_ROUNDS, stop_at_completion=False)
    elapsed = time.perf_counter() - start
    assert result.engine == "kernel"
    assert result.metrics.rounds_executed == SCALE_ROUNDS
    print(
        f"\nE19 scale point: n={SCALE_N} coded rounds at "
        f"{SCALE_ROUNDS / elapsed:.0f} rounds/s"
    )
