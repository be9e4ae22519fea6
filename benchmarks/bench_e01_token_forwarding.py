"""E1 (Theorem 2.1): token forwarding needs ~ nkd/(bT) + n rounds, and is tight.

Regenerates the baseline curve: completion rounds of the phase-based
knowledge-based token-forwarding algorithm against the adaptive bottleneck
adversary, swept over n (with k = n, d = log n-ish) and over b, compared to
the predicted nkd/b + n.  Both sweeps run on the process-parallel
``measure_sweep`` harness.
"""

from __future__ import annotations

import pytest

from repro.algorithms import TokenForwardingNode
from repro.analysis import token_forwarding_rounds
from repro.network import BottleneckAdversary
from repro.simulation import fit_power_law

from common import make_config, measure_sweep, print_rows, run_once


def _config_n(point):
    return make_config(int(point["n"]), d=8, b=24)


def _config_b(point):
    return make_config(24, d=8, b=int(point["b"]))


def _sweep_n(sizes=(8, 16, 24, 32)):
    points = measure_sweep(
        TokenForwardingNode,
        [{"n": n} for n in sizes],
        _config_n,
        BottleneckAdversary,
        repetitions=2,
    )
    return [
        {
            "n": int(p.parameters["n"]),
            "rounds": round(p.measurement.rounds_mean, 1),
            "predicted~": round(token_forwarding_rounds(int(p.parameters["n"]), int(p.parameters["n"]), 8, 24), 1),
        }
        for p in points
    ]


def _sweep_b(b_values=(16, 32, 64, 128)):
    n = 24
    points = measure_sweep(
        TokenForwardingNode,
        [{"b": b} for b in b_values],
        _config_b,
        BottleneckAdversary,
        repetitions=2,
    )
    return [
        {
            "b": int(p.parameters["b"]),
            "rounds": round(p.measurement.rounds_mean, 1),
            "predicted~": round(token_forwarding_rounds(n, n, 8, int(p.parameters["b"])), 1),
        }
        for p in points
    ]


def test_e01_forwarding_scales_quadratically_in_n(benchmark):
    rows = _sweep_n()
    print_rows("E1a — token forwarding rounds vs n (k=n, d=8, b=24)", rows)
    alpha, _ = fit_power_law([r["n"] for r in rows], [r["rounds"] for r in rows])
    print(f"measured scaling exponent in n: {alpha:.2f} (theory: ~2 for the nk term)")
    assert alpha > 1.5
    benchmark.pedantic(
        lambda: run_once(TokenForwardingNode, make_config(16, d=8, b=24), BottleneckAdversary),
        rounds=1,
        iterations=1,
    )


def test_e01_forwarding_scales_inversely_in_b(benchmark):
    rows = _sweep_b()
    print_rows("E1b — token forwarding rounds vs b (n=k=24, d=8)", rows)
    # Rounds should fall roughly linearly as b grows (until the +n floor).
    assert rows[0]["rounds"] > rows[-1]["rounds"]
    alpha, _ = fit_power_law([r["b"] for r in rows], [r["rounds"] for r in rows])
    print(f"measured scaling exponent in b: {alpha:.2f} (theory: ~-1 until the +n floor)")
    assert alpha < -0.3
    benchmark.pedantic(
        lambda: run_once(TokenForwardingNode, make_config(24, d=8, b=64), BottleneckAdversary),
        rounds=1,
        iterations=1,
    )
