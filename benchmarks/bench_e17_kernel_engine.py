"""E17: the vectorised kernel engine keeps protocol-bound workloads cheap.

Regression guard for the kernel-engine refactor (packed knowledge matrices,
CSR adjacency delivery, whole-network compose/deliver array ops, dirty-row
compose caching — see ``repro/simulation/kernels.py``).  The workload is
chosen to be *protocol-bound*: token forwarding at n = k = 256 over
per-round shifted rings, where the per-round cost on the mask engine is
dominated by the O(n) Python ``compose``/``deliver`` calls it performs per
node — exactly the dispatch the kernel engine removes.

Both engines run the identical round semantics in the same process:
``engine="kernel"`` versus ``engine="mask"``.  The assertions are (a) the
two engines produce byte-identical metrics and node knowledge for
identical seeds, (b) the kernel keep rule's ``speedup >= 2.0`` floor,
measured in-process, and (c) the n = 1024 sweep point executes its full
round budget.  End to end, ``perfbench``'s ``forwarding_dynamics``
``run_s`` times the same ``TokenForwardingKernel`` (on ``edge_markov``,
n = 128), and ``object_engine`` ``run_s`` times the mask side.
"""

from __future__ import annotations

import dataclasses
import time

from repro.algorithms import TokenForwardingNode
from repro.network import ShiftedRingAdversary
from repro.simulation import run_dissemination, standard_instance

from common import make_config

N = 256
ROUNDS = 1200
SCALE_POINTS = (256, 512, 1024)
SCALE_ROUNDS = 400


def _one_run(engine: str, n: int = N, max_rounds: int = ROUNDS):
    config = make_config(n, d=8, b=48)
    placement = standard_instance(n, n, 8, seed=0)
    return run_dissemination(
        TokenForwardingNode,
        config,
        placement,
        ShiftedRingAdversary(),
        seed=0,
        engine=engine,
        max_rounds=max_rounds,
    )


def _best_of(engine: str, repeats: int = 2, **kwargs) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _one_run(engine, **kwargs)
        times.append(time.perf_counter() - start)
    return min(times)


def test_e17_engines_identical_metrics():
    kernel = _one_run("kernel", max_rounds=600)
    mask = _one_run("mask", max_rounds=600)
    assert kernel.engine == "kernel" and mask.engine == "mask"
    assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)
    assert kernel.correct == mask.correct
    for kernel_node, mask_node in zip(kernel.nodes, mask.nodes):
        assert kernel_node.known_token_ids() == mask_node.known_token_ids()


def test_e17_kernel_engine_speedup(benchmark):
    _one_run("kernel")  # warm imports/caches before timing
    fast = _best_of("kernel")
    mask = _best_of("mask")

    speedup = mask / fast
    print(
        f"\nE17 — kernel engine {fast:.3f}s vs mask engine {mask:.3f}s "
        f"on this machine: {speedup:.1f}x (floor 2.0x)"
    )
    assert speedup >= 2.0
    benchmark.pedantic(lambda: _one_run("kernel"), rounds=1, iterations=1)


def test_e17_kernel_scales_to_n1024():
    rows = []
    for n in SCALE_POINTS:
        start = time.perf_counter()
        result = _one_run("kernel", n=n, max_rounds=SCALE_ROUNDS)
        elapsed = time.perf_counter() - start
        assert result.engine == "kernel"
        assert result.metrics.rounds_executed == SCALE_ROUNDS
        rows.append(
            {"n": n, "rounds": SCALE_ROUNDS, "rounds_per_s": round(SCALE_ROUNDS / elapsed)}
        )
    print("\nE17 scaling sweep (kernel engine, fixed round budget):")
    for row in rows:
        print(f"  n={row['n']:5d}: {row['rounds_per_s']:6d} rounds/s")
    # The point of the sweep: n = 1024 executes its full budget at a rate
    # the object engines cannot approach (lenient floor for shared runners).
    assert rows[-1]["rounds_per_s"] >= 25
