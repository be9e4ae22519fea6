"""E2 (Lemma 5.3): RLNC indexed broadcast finishes in O(n + k) rounds.

Sweeps n (with k = n) under the adaptive bottleneck adversary and checks the
completion rounds grow ~linearly, using messages of ~k lg q + d bits.

The sweep runs on the process-parallel harness (`measure_sweep`) and
reaches n = 96 in seconds on the mask-native GF(2) fast path.
"""

from __future__ import annotations

from repro.algorithms import IndexedBroadcastNode
from repro.analysis import indexed_broadcast_message_bits, indexed_broadcast_rounds
from repro.network import BottleneckAdversary
from repro.simulation import fit_power_law

from common import make_config, measure_sweep, print_rows, run_once


def test_e02_indexed_broadcast_linear_rounds(benchmark):
    ns = (8, 16, 32, 64, 96)
    points = measure_sweep(
        IndexedBroadcastNode,
        [{"n": n} for n in ns],
        lambda point: make_config(int(point["n"]), d=8, b=int(point["n"]) + 32),
        BottleneckAdversary,
        repetitions=2,
    )
    rows = []
    for point in points:
        n = int(point.parameters["n"])
        m = point.measurement
        rows.append(
            {
                "n=k": n,
                "rounds": round(m.rounds_mean, 1),
                "predicted O(n+k)": indexed_broadcast_rounds(n, n),
                "msg_bits (k lg q + d)": int(indexed_broadcast_message_bits(n, 8)),
            }
        )
    print_rows("E2 — RLNC indexed broadcast vs n (adaptive bottleneck adversary)", rows)
    alpha, _ = fit_power_law([r["n=k"] for r in rows], [r["rounds"] for r in rows])
    print(f"measured scaling exponent: {alpha:.2f} (theory: ~1)")
    assert alpha < 1.5
    benchmark.pedantic(
        lambda: run_once(IndexedBroadcastNode, make_config(64, d=8, b=96), BottleneckAdversary),
        rounds=1,
        iterations=1,
    )
