"""E5 (Corollary 7.1): the naive coded algorithm costs ~ nk log n / b rounds.

The point of this experiment is the *negative* shape result motivating
Section 7: flooding-based indexing wastes the coding advantage for small
tokens — naive-coded is only ~log n / d faster than forwarding and clearly
slower than greedy-forward at the same message size.
"""

from __future__ import annotations

from repro.algorithms import GreedyForwardNode, NaiveCodedNode, TokenForwardingNode
from repro.analysis import naive_coded_rounds
from repro.network import BottleneckAdversary

from common import make_config, measure_sweep, print_rows, run_once


def _config(point):
    return make_config(16, d=8, b=64)


def _measure(factory):
    # One point per protocol, measured through the same seeded harness as
    # the multi-point sweeps.
    [point] = measure_sweep(factory, [{}], _config, BottleneckAdversary, repetitions=1)
    return point.measurement


def test_e05_naive_coded_vs_gathering(benchmark):
    n = 16
    b = 64
    rows = []
    naive = _measure(NaiveCodedNode)
    greedy = _measure(GreedyForwardNode)
    forwarding = _measure(TokenForwardingNode)
    rows.append(
        {
            "algorithm": "naive-coded (Cor 7.1)",
            "rounds": round(naive.rounds_mean, 1),
            "predicted~": round(naive_coded_rounds(n, n, 8, b), 1),
        }
    )
    rows.append({"algorithm": "greedy-forward (Thm 7.3)", "rounds": round(greedy.rounds_mean, 1), "predicted~": ""})
    rows.append({"algorithm": "token forwarding (Thm 2.1)", "rounds": round(forwarding.rounds_mean, 1), "predicted~": ""})
    print_rows(f"E5 — naive coded dissemination (n=k={n}, d=8, b={b})", rows)
    # The gathering-based algorithm beats the naive one, as Section 7 argues.
    assert greedy.rounds_mean < naive.rounds_mean
    benchmark.pedantic(
        lambda: run_once(NaiveCodedNode, make_config(12, d=8, b=48), BottleneckAdversary),
        rounds=1,
        iterations=1,
    )
