"""E20: the hostile-network fault axis on the kernel engine.

The fault layer (``repro/network/faults.py``) edits each round's CSR
adjacency instead of simulating faults per node, so hostile runs must stay
kernel-eligible and close to benign-run throughput.  Three measurements:

1. **Hostile catalog completeness** — every fault-carrying scenario entry
   runs token forwarding on the kernel engine (``RunResult.engine ==
   "kernel"``), recording survivors, surviving completion rate, and
   completion rounds.  A hostile entry that silently fell back to the mask
   engine would betray an eligibility regression.
2. **Degradation curves into the failure regime** — three protocols (token
   forwarding, random forward, indexed broadcast; ``engine="auto"``, so
   random forward, which has no packed kernel, runs on the mask engine)
   swept over loss intensities deliberately extended past the point where
   runs stop completing, recording partial ``surviving_rate`` points and
   ``completion_round = None`` instead of asserting success.  At least one
   swept point must show ``surviving_rate < 1.0``.
3. **Fault overhead headline** — per-round kernel wall time with a
   loss+duplication model active versus the identical benign run.  The
   recorded ratio is sticky in ``BENCH_HOSTILE.json``;
   ``benchmarks/check_regression.py`` fails a run that regresses it by
   more than 25 %.
4. **Adaptive-adversary overhead headline** — the same per-round comparison
   with an adaptive :class:`BridgeLossStrategy` consulted every round (one
   linear low-link cut-edge pass over the live CSR), sticky in
   ``BENCH_HOSTILE_ADAPTIVE.json`` under its own regression guard.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.algorithms import (
    IndexedBroadcastNode,
    RandomForwardNode,
    TokenForwardingNode,
)
from repro.network import BridgeLossStrategy, FaultModel
from repro.scenarios import SCENARIOS, fault_model_for, hostile_scenarios, make_scenario
from repro.simulation import run_dissemination, standard_instance

from common import make_config, print_rows, record_headline

BASELINE_FILE = Path(__file__).resolve().parent.parent / "BENCH_HOSTILE.json"
ADAPTIVE_BASELINE_FILE = (
    Path(__file__).resolve().parent.parent / "BENCH_HOSTILE_ADAPTIVE.json"
)

#: Hostile catalog + degradation sweeps: small enough to stay CI-cheap.
N = 48
#: Three highest uids stay payload-free (standard_instance places tokens at
#: uids 0..k-1), so Byzantine senders at n-2 / n-1 and the three fake quorum
#: members at n-3 .. n-1 never hold tokens.
K = N - 3
#: Token forwarding needs ~0.3 * n * k rounds benign (see BENCH_SCENARIOS);
#: leave headroom for lossy runs while keeping non-completion observable.
MAX_ROUNDS = 3000

PROTOCOLS = {
    "token_forwarding": TokenForwardingNode,
    "random_forward": RandomForwardNode,
    "indexed_broadcast": IndexedBroadcastNode,
}
#: The tail intensities are deliberately in the failure regime: runs that
#: never finish within MAX_ROUNDS record ``completion_round = None`` and a
#: partial ``surviving_rate`` instead of failing the bench.
LOSS_INTENSITIES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.97)

#: Fault-overhead headline: benign vs faulted kernel throughput at this n.
N_OVERHEAD = 128


def _run(factory, n, k, scenario, faults, seed=0):
    config = make_config(n, k=k, d=8, b=max(64, n + 16))
    placement = standard_instance(n, k, 8, seed=seed)
    adversary = make_scenario(scenario, n, seed=seed)
    start = time.perf_counter()
    result = run_dissemination(
        factory, config, placement, adversary, seed=seed, engine="auto",
        faults=faults, max_rounds=MAX_ROUNDS, track_progress=True,
    )
    return result, time.perf_counter() - start


def _axes(model: FaultModel) -> str:
    axes = []
    if model.loss:
        axes.append(f"loss={model.loss}")
    if model.duplication:
        axes.append(f"dup={model.duplication}")
    if model.crashes:
        recovering = sum(1 for entry in model.crashes if len(entry) == 3)
        label = f"crashes={len(model.crashes)}"
        if recovering:
            label += f"({recovering}rec)"
        axes.append(label)
    if model.byzantine:
        axes.append(f"byz={len(model.byzantine)}:{model.byzantine_mode}")
    if model.partitions is not None:
        axes.append(
            f"partitions={len(model.partitions.windows)}x{model.partitions.groups}"
        )
    if model.strategy is not None:
        axes.append(f"strategy={type(model.strategy).__name__}")
    if model.collisions is not None:
        label = f"collisions(p={model.collisions.probability}"
        if model.collisions.capture:
            label += ",capture"
        axes.append(label + ")")
    if model.quorum is not None:
        axes.append(f"quorum_fake={len(model.quorum.fake)}")
    return "+".join(axes)


_CATALOG_ROWS: list[dict] | None = None


def _catalog_rows() -> list[dict]:
    global _CATALOG_ROWS
    if _CATALOG_ROWS is not None:
        return _CATALOG_ROWS
    rows = []
    for name in hostile_scenarios():
        model = fault_model_for(name, N, seed=0)
        result, elapsed = _run(TokenForwardingNode, N, K, name, model)
        assert result.engine == "kernel", f"{name} fell off the kernel engine"
        metrics = result.metrics
        assert metrics.survivors is not None, f"{name} recorded no fault accounting"
        rate = metrics.surviving_completion_rate
        rows.append(
            {
                "scenario": name,
                "faults": _axes(model),
                "process": SCENARIOS[name].process,
                "n": N,
                "survivors": metrics.survivors,
                "surviving_rate": round(rate, 3) if rate is not None else None,
                "completion_round": metrics.survivor_completion_round,
                "dropped": metrics.dropped_deliveries,
                "corrupted": metrics.corrupted_deliveries,
                "collided": metrics.collided_deliveries,
                "recoveries": metrics.recoveries,
                "rounds_per_s": round(metrics.rounds_executed / elapsed),
            }
        )
    _CATALOG_ROWS = rows
    return rows


def _degradation_rows() -> list[dict]:
    rows = []
    for protocol, factory in PROTOCOLS.items():
        benign, _ = _run(factory, N, K, "edge_markov", None)
        rows.append(
            {
                "protocol": protocol,
                "loss": 0.0,
                "surviving_rate": 1.0 if benign.completed else 0.0,
                "completion_round": benign.rounds,
            }
        )
        assert benign.completed, f"{protocol} must complete the benign baseline"
        for loss in LOSS_INTENSITIES:
            result, _ = _run(factory, N, K, "edge_markov", FaultModel(loss=loss))
            metrics = result.metrics
            rate = metrics.surviving_completion_rate
            # Failure-regime points are recorded, not asserted away: a run
            # that hits MAX_ROUNDS keeps completion_round = None and its
            # partial surviving rate.
            rows.append(
                {
                    "protocol": protocol,
                    "loss": loss,
                    "surviving_rate": round(rate, 3) if rate is not None else None,
                    "completion_round": metrics.survivor_completion_round,
                }
            )
    return rows


def _overhead_row() -> dict:
    model = FaultModel(loss=0.15, duplication=0.1)
    benign, benign_s = _run(TokenForwardingNode, N_OVERHEAD, N_OVERHEAD, "edge_markov", None)
    faulted, faulted_s = _run(TokenForwardingNode, N_OVERHEAD, N_OVERHEAD, "edge_markov", model)
    benign_per_round = benign_s / max(1, benign.metrics.rounds_executed)
    faulted_per_round = faulted_s / max(1, faulted.metrics.rounds_executed)
    return {
        "scenario": "edge_markov",
        "faults": _axes(model),
        "n": N_OVERHEAD,
        "benign_ms_per_round": round(benign_per_round * 1e3, 3),
        "faulted_ms_per_round": round(faulted_per_round * 1e3, 3),
        "slowdown_ratio": round(faulted_per_round / benign_per_round, 2),
    }


def _recorded_headline_value(fallback: float, baseline_file: Path = BASELINE_FILE) -> float:
    """The previously recorded headline reference, or ``fallback`` if none."""
    try:
        recorded = json.loads(baseline_file.read_text())["headline"]["value"]
        return float(recorded)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return fallback


def _write_baseline(catalog: list[dict], degradation: list[dict], overhead: dict) -> None:
    BASELINE_FILE.write_text(
        json.dumps(
            {
                "description": (
                    "E20 hostile-network fault axis on the kernel engine: per-scenario "
                    "survivors / surviving completion rate for the hostile catalog at "
                    "n=48, loss-intensity degradation curves for three protocols, and "
                    "the faulted-vs-benign per-round slowdown ratio at n=128."
                ),
                "catalog": catalog,
                "degradation": degradation,
                "overhead": overhead,
                "headline": {
                    "name": "e20_fault_overhead_ratio",
                    # Sticky reference: keep the previously recorded value so
                    # check_regression.py compares the live figure against a
                    # real baseline instead of the number this very run just
                    # measured.
                    "value": _recorded_headline_value(overhead["slowdown_ratio"]),
                    "larger_is_better": False,
                    "note": (
                        "recorded faulted-vs-benign per-round slowdown (sticky "
                        "across bench reruns); benchmarks/check_regression.py "
                        "fails a run more than 25% above this"
                    ),
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


#: Adaptive-overhead comparison: the bridge-loss adversary recomputes the
#: cut edges of the live topology every round.
ADAPTIVE_MODEL = FaultModel(strategy=BridgeLossStrategy(probability=0.5))


def _adaptive_overhead_row() -> dict:
    benign, benign_s = _run(TokenForwardingNode, N, K, "edge_markov", None, seed=1)
    faulted, faulted_s = _run(
        TokenForwardingNode, N, K, "edge_markov", ADAPTIVE_MODEL, seed=1
    )
    benign_per_round = benign_s / max(1, benign.metrics.rounds_executed)
    faulted_per_round = faulted_s / max(1, faulted.metrics.rounds_executed)
    return {
        "scenario": "edge_markov",
        "faults": _axes(ADAPTIVE_MODEL),
        "n": N,
        "benign_ms_per_round": round(benign_per_round * 1e3, 3),
        "adaptive_ms_per_round": round(faulted_per_round * 1e3, 3),
        "slowdown_ratio": round(faulted_per_round / benign_per_round, 2),
    }


def _write_adaptive_baseline(overhead: dict) -> None:
    ADAPTIVE_BASELINE_FILE.write_text(
        json.dumps(
            {
                "description": (
                    "E20 adaptive-adversary overhead: per-round kernel slowdown of "
                    "a BridgeLossStrategy run (one linear low-link cut-edge pass "
                    "over the live CSR every round) versus the identical benign "
                    "run at n=48."
                ),
                "overhead": overhead,
                "headline": {
                    "name": "e20_adaptive_overhead_ratio",
                    # Sticky reference, like BENCH_HOSTILE.json's headline.
                    "value": _recorded_headline_value(
                        overhead["slowdown_ratio"], ADAPTIVE_BASELINE_FILE
                    ),
                    "larger_is_better": False,
                    "note": (
                        "recorded adaptive-vs-benign per-round slowdown (sticky "
                        "across bench reruns); benchmarks/check_regression.py "
                        "fails a run more than 25% above this"
                    ),
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


def test_e20_hostile_catalog_runs_on_kernel_engine():
    rows = _catalog_rows()
    assert len(rows) == len(hostile_scenarios())
    print_rows("E20 — hostile catalog, token forwarding, kernel engine", rows)


def test_e20_loss_degradation_curves():
    rows = _degradation_rows()
    print_rows("E20 — surviving completion rate vs loss intensity", rows)
    for protocol in PROTOCOLS:
        curve = [r for r in rows if r["protocol"] == protocol]
        assert [r["loss"] for r in curve] == [0.0, *LOSS_INTENSITIES]
        assert curve[0]["surviving_rate"] == 1.0
        # The heaviest loss intensity must show measurable degradation:
        # either not everyone finishes, or finishing takes strictly longer.
        worst = curve[-1]
        assert worst["surviving_rate"] < 1.0 or (
            worst["completion_round"] > curve[0]["completion_round"]
        )
    # The sweep must actually reach the failure regime: at least one point
    # with a partial surviving rate, recorded as data rather than an error.
    assert any(
        r["surviving_rate"] is not None and r["surviving_rate"] < 1.0 for r in rows
    )
    assert any(r["completion_round"] is None for r in rows)


def test_e20_fault_overhead_headline(benchmark):
    overhead = _overhead_row()
    _write_baseline(_catalog_rows(), _degradation_rows(), overhead)
    print(
        f"\nE20 — fault overhead at n={N_OVERHEAD}: "
        f"{overhead['faulted_ms_per_round']:.2f} ms/round faulted vs "
        f"{overhead['benign_ms_per_round']:.2f} ms/round benign: "
        f"{overhead['slowdown_ratio']:.2f}x"
    )
    record_headline(
        "e20_fault_overhead_ratio",
        overhead["slowdown_ratio"],
        larger_is_better=False,
    )
    benchmark.pedantic(
        lambda: _run(
            TokenForwardingNode, N_OVERHEAD, N_OVERHEAD, "edge_markov",
            FaultModel(loss=0.15, duplication=0.1), seed=1,
        ),
        rounds=1,
        iterations=1,
    )


def test_e20_adaptive_adversary_overhead_headline(benchmark):
    overhead = _adaptive_overhead_row()
    _write_adaptive_baseline(overhead)
    print(
        f"\nE20 — adaptive-adversary overhead at n={N}: "
        f"{overhead['adaptive_ms_per_round']:.2f} ms/round adaptive vs "
        f"{overhead['benign_ms_per_round']:.2f} ms/round benign: "
        f"{overhead['slowdown_ratio']:.2f}x"
    )
    record_headline(
        "e20_adaptive_overhead_ratio",
        overhead["slowdown_ratio"],
        larger_is_better=False,
    )
    benchmark.pedantic(
        lambda: _run(
            TokenForwardingNode, N, K, "edge_markov", ADAPTIVE_MODEL, seed=2
        ),
        rounds=1,
        iterations=1,
    )
