"""The repository benchmark: end-to-end and per-layer cost of the simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload coded_broadcast --seed 0 --seconds 28 --trace 0

Every dissemination run executes in a fresh interpreter (``child.py``), one
at a time, as many as fit in ``--seconds``.  With ``--trace 0`` the runs
are untraced and the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; each run's interpreter start is one set-up sample.
With ``--trace 1`` untraced and traced runs alternate; the traced runs wrap
every layer from the outside (``spans.py``) and the last line reports the
per-layer metrics, medians over the traced runs.

Every time is reported at the reference speed of ``calibrate.py``: the
benchmark times a fixed loop between consecutive runs and rescales each
run's times by the loop's speed around it, because on a shared machine the
core's speed drifts more than any bound a regression check could use.
The times as measured are printed beside the rescaled ones.

Every run is checked: the result must be correct, come from the expected
engine, repeat the recorded completion round for this seed (or, for an
unrecorded seed, the round of every other run here), and produce the same
``RunMetrics`` -- traced or not.  Each miss counts as a failed run.

Runs go straight through ``run_dissemination``: no sweep cache, no worker
pool, and no stored reference timings are read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
#: Completion rounds per workload and seed, written by ``record_expected.py``.
EXPECTED = HERE / "expected.json"
CHILD_TIMEOUT_S = 120
#: No child is started that could still be running past this point.
WALL_LIMIT_S = 150

#: Spans whose self time is a per-layer metric (``<span>_s``).
LAYER_SPANS = (
    "dynamics.choose_topology",
    "faults.begin_round",
    "faults.bind_edges",
    "faults.account",
    "kernel.build",
    "kernel.compose",
    "kernel.deliver",
    "kernel.materialise",
    "gf.insert",
    "gf.combine",
    "gf.picks",
    "gf.decode",
    "node.compose",
    "node.deliver",
    "runner.build_nodes",
    "obs.observe_round",
)


class ChildFailed(Exception):
    """A child interpreter exited abnormally or printed no report."""


def _spawn(mode: str, workload: str, seed: int) -> dict:
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, workload, str(seed), repr(spawned_at)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} run timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{mode} run exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


class Runner:
    """Spawns the runs of one benchmark invocation and checks each one."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        recorded = json.loads(EXPECTED.read_text()).get(workload, {})
        self.expected_rounds = recorded.get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None
        self.start = time.perf_counter()
        self._longest = 0.0
        self._loop = calibrate.loop_seconds()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def more(self) -> bool:
        """Whether another run fits: the budget is unspent and the wall limit safe."""
        return (
            self.elapsed() < self.seconds
            and self.elapsed() + 1.5 * self._longest < WALL_LIMIT_S
        )

    def spawn(self, mode: str) -> dict | None:
        """One checked child run; None when it failed.

        The report gains ``scale``: the reference speed over the speed the
        calibration loop measured just before and just after the child.
        """
        self.attempted += 1
        began = time.perf_counter()
        before = self._loop
        try:
            report = _spawn(mode, self.workload.name, self.seed)
            problems = self._problems(report, mode)
        except ChildFailed as exc:
            report, problems = None, [str(exc)]
        self._loop = calibrate.loop_seconds()
        if report is not None:
            report["scale"] = 2 * calibrate.REFERENCE_S / (before + self._loop)
        self._longest = max(self._longest, time.perf_counter() - began)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {self.workload.name} seed {self.seed}: {problem}")
            return None
        return report

    def _problems(self, report: dict, mode: str) -> list[str]:
        problems = []
        if report["correct"] is not True:
            problems.append(f"{mode} run: correct is {report['correct']}")
        if report["engine"] != self.workload.expected_engine:
            problems.append(
                f"{mode} run: engine {report['engine']!r}, expected "
                f"{self.workload.expected_engine!r}"
            )
        if self.reference is None:
            self.reference = report
            if self.expected_rounds is not None and (
                report["completion_rounds"] != self.expected_rounds
            ):
                problems.append(
                    f"completion round {report['completion_rounds']}, recorded "
                    f"{self.expected_rounds} for this seed"
                )
        elif report["digest"] != self.reference["digest"]:
            problems.append(
                f"{mode} run: RunMetrics differ from the first run "
                f"(completion round {report['completion_rounds']} vs "
                f"{self.reference['completion_rounds']})"
            )
        if mode == "trace":
            problems.extend(_layer_problems(report["layers"]))
        return problems


def _layer_problems(layers: dict) -> list[str]:
    problems = []
    if not layers["restored"]:
        problems.append("trace run: a layer wrapper was not restored")
    spans = list(layers["self_s"].values()) + [layers["other_s"]]
    if min(spans) < 0:
        problems.append("trace run: a negative self time")
    total, wall = sum(spans), layers["wall_s"]
    if abs(total - wall) > 1e-3 + 1e-4 * wall:
        problems.append(f"trace run: self times sum to {total:.6f} s, wall is {wall:.6f} s")
    return problems


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: steadier than the median over the 13 to 29
    runs a 28-second invocation makes, and as blind to the slow outliers a
    busy neighbour causes."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])


def untraced(runner: Runner) -> tuple[dict, list[str]]:
    runs = []
    while True:
        report = runner.spawn("run")
        if report is not None:
            runs.append(report)
        if not runner.more():
            break
    if not runs:
        return {}, []
    run_s = _interquartile_mean([r["run_s"] * r["scale"] for r in runs])
    values = {
        "setup_s": _interquartile_mean([r["setup_s"] * r["scale"] for r in runs]),
        "run_s": run_s,
        "rounds_per_s": runs[0]["rounds_executed"] / run_s,
        "completion_rounds": float(runs[0]["completion_rounds"]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
    }
    q1, q3 = _quartiles([r["run_s"] for r in runs])
    notes = [
        f"{len(runs)} runs, each in a fresh interpreter",
        f"run_s as measured: median {statistics.median([r['run_s'] for r in runs]):.4f} s, "
        f"quartiles {q1:.4f} .. {q3:.4f} s; median speed factor "
        f"{statistics.median([r['scale'] for r in runs]):.3f}",
    ]
    return values, notes


def _layer_values(report: dict) -> dict:
    """One traced run's per-layer metrics, times at reference speed."""
    layers, scale = report["layers"], report["scale"]
    self_s = layers["self_s"]
    values = {f"{span}_s": self_s.get(span, 0.0) * scale for span in LAYER_SPANS}
    base, rows = layers["base_entries"], layers["insert_rows"]
    values.update(
        {
            "runner.other_s": layers["other_s"] * scale,
            "runner.other_share": layers["other_s"] / layers["wall_s"],
            "topology.edges_per_round": layers["csr_entries"] / report["rounds_executed"],
            "faults.edges_removed_ratio": (
                1.0 - layers["effective_entries"] / base if base else 0.0
            ),
            "gf.insert_rows": rows,
            "gf.innovative_ratio": layers["innovative_rows"] / rows if rows else 0.0,
            "run.useless_ratio": report["useless_ratio"],
            "round.p50_ms": layers["round_p50_ms"] * scale,
            "round.p99_ms": layers["round_p99_ms"] * scale,
        }
    )
    return values


def traced(runner: Runner) -> tuple[dict, list[str]]:
    plain, spans = [], []
    while True:
        report = runner.spawn("run")
        if report is not None:
            plain.append(report["run_s"] * report["scale"])
        report = runner.spawn("trace")
        if report is not None:
            spans.append(report)
        if not runner.more():
            break
    if not spans or not plain:
        return {}, []
    per_run = [_layer_values(r) for r in spans]
    values = {name: statistics.median([v[name] for v in per_run]) for name in per_run[0]}
    wall = statistics.median([r["layers"]["wall_s"] * r["scale"] for r in spans])
    values["trace.overhead_ratio"] = wall / statistics.median(plain)
    shares = {span: values[f"{span}_s"] / wall for span in LAYER_SPANS}
    shares["runner.other"] = values["runner.other_s"] / wall
    ranked = sorted(shares.items(), key=lambda item: -item[1])
    notes = [
        f"{len(spans)} traced and {len(plain)} untraced runs",
        "self-time shares: "
        + ", ".join(f"{span} {share:.1%}" for span, share in ranked if share >= 0.001),
        f"dominant layer: {ranked[0][0]}",
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The calibration loop and every child run on one core, so each speed
    # factor describes the core its run used.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args.workload, args.seed, args.seconds)
    values, notes = (traced if args.trace else untraced)(runner)
    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, {runner.elapsed():.1f} s")
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<28} {value:>14.6g} {metric['unit']}")
    print(f"  {'failure_rate':<28} {runner.failed / runner.attempted:>14.6g} ratio")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
