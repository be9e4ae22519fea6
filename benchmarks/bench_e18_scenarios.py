"""E18: the dynamic-network scenario catalog on the kernel engine.

The dynamics subsystem (``repro/network/dynamics.py`` + ``repro/scenarios``)
exists because topology *generation* became the scenario bottleneck once the
kernel engine made round *execution* cheap: every pre-PR adversary builds
its round graph with per-edge Python, while a :class:`ScheduleAdversary`
streams whole batches of packed adjacency matrices out of vectorised
processes.

Two measurements:

1. **Catalog completeness** — every registered scenario runs token
   forwarding to completion on the kernel engine (``RunResult.engine ==
   "kernel"``), recording completion rounds and executed rounds/s.  This is
   the gate that keeps the whole catalog engine-eligible (a scenario that
   silently dropped to the mask engine would betray a kernel-selection or
   validation regression).
2. **Generation throughput** — producing engine-ready (packed) topologies
   from a T-interval-enforced edge-Markov schedule at n = 512, against the
   per-round Python ``RandomConnectedAdversary`` baseline at identical n
   (best of two per side).  The bench asserts ``speedup >= 9.43``
   in-process.  No ``perfbench`` workload runs T-interval enforcement at
   n = 512, so this floor is the only speed check on that path.
"""

from __future__ import annotations

import time

from repro.algorithms import TokenForwardingNode
from repro.network import RandomConnectedAdversary
from repro.scenarios import SCENARIOS, list_scenarios, make_scenario, scenario_for
from repro.simulation import run_dissemination, standard_instance

from common import make_config, print_rows

#: Completion runs: small enough that the whole catalog stays CI-cheap.
N_CATALOG = 64
#: Generation throughput: the acceptance criterion's n >= 512 point.
N_GENERATION = 512
GENERATION_ROUNDS = 64
#: The in-process floor on the Python-baseline / schedule generation ratio.
GENERATION_FLOOR = 9.43


def _run_scenario(name: str, n: int = N_CATALOG, seed: int = 0):
    config = make_config(n, d=8, b=64)
    placement = standard_instance(n, n, 8, seed=seed)
    adversary = scenario_for(name, n, seed=seed)()  # the declarative sweep path
    start = time.perf_counter()
    result = run_dissemination(
        TokenForwardingNode, config, placement, adversary, seed=seed, engine="kernel"
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def _catalog_rows() -> list[dict]:
    rows = []
    for name in list_scenarios():
        result, elapsed = _run_scenario(name)
        assert result.engine == "kernel", f"{name} fell off the kernel engine"
        assert result.completed and result.correct, f"{name} did not disseminate"
        rows.append(
            {
                "scenario": name,
                "process": SCENARIOS[name].process,
                "guarantees": "+".join(SCENARIOS[name].guarantees),
                "n": N_CATALOG,
                "completion_rounds": result.rounds,
                "rounds_per_s": round(result.metrics.rounds_executed / elapsed),
            }
        )
    return rows


def _time_generation(adversary, rounds: int, n: int, repeats: int = 2) -> float:
    """Best-of wall time to serve ``rounds`` engine-ready packed topologies."""
    best = float("inf")
    for _ in range(repeats):
        adversary.reset()
        start = time.perf_counter()
        for round_index in range(rounds):
            adversary.choose_topology(round_index, n, []).packed_adjacency()
        best = min(best, time.perf_counter() - start)
    return best


def _generation_row() -> dict:
    schedule = make_scenario("edge_markov_t4", N_GENERATION, seed=0)
    baseline = RandomConnectedAdversary(seed=0)
    schedule_s = _time_generation(schedule, GENERATION_ROUNDS, N_GENERATION)
    baseline_s = _time_generation(baseline, GENERATION_ROUNDS, N_GENERATION)
    return {
        "scenario": "edge_markov_t4",
        "baseline": "random_connected (per-round Python)",
        "n": N_GENERATION,
        "rounds": GENERATION_ROUNDS,
        "schedule_s": round(schedule_s, 4),
        "baseline_s": round(baseline_s, 4),
        "speedup_vs_random_connected": round(baseline_s / schedule_s, 2),
    }


def test_e18_catalog_runs_on_kernel_engine():
    rows = _catalog_rows()
    assert len(rows) == len(SCENARIOS)
    print_rows("E18 — scenario catalog, token forwarding, kernel engine", rows)


def test_e18_schedule_generation_beats_python_baseline(benchmark):
    generation = _generation_row()
    print(
        f"\nE18 — packed schedule generation at n={N_GENERATION}: "
        f"{generation['schedule_s']:.3f}s vs {generation['baseline_s']:.3f}s "
        f"per-round Python baseline over {GENERATION_ROUNDS} rounds: "
        f"{generation['speedup_vs_random_connected']:.1f}x "
        f"(floor {GENERATION_FLOOR}x)"
    )
    assert generation["speedup_vs_random_connected"] >= GENERATION_FLOOR
    schedule = make_scenario("edge_markov_t4", N_GENERATION, seed=1)
    benchmark.pedantic(
        lambda: _time_generation(schedule, GENERATION_ROUNDS, N_GENERATION, repeats=1),
        rounds=1,
        iterations=1,
    )


def test_e18_deterministic_replay_in_sweeps():
    # The sweep-reuse contract on a live catalog entry: one adversary object,
    # two runs, identical measurements.
    first, _ = _run_scenario("waypoint_churn_t4", seed=3)
    second, _ = _run_scenario("waypoint_churn_t4", seed=3)
    assert first.rounds == second.rounds
    assert first.metrics.total_message_bits == second.metrics.total_message_bits
