"""Experiment harness: repeated runs, parameter sweeps, scaling fits.

The paper's claims are asymptotic; the benchmarks validate them by sweeping
a parameter (``n``, ``b``, ``T``, ...), averaging completion rounds over a
few seeds, and fitting power laws / comparing ratios.  This module holds
the shared machinery so each benchmark file stays declarative.

Every sweep fans out through one primitive, :func:`parallel_map`: an
order-preserving map of a module-level function over points, serial for
one worker or one point.  :func:`sweep_tasks` maps :func:`run_sweep_task`
over declarative, picklable :class:`SweepTask` points.  Each task seeds
its own randomness, so serial and parallel execution produce bit-identical
:class:`Measurement` values.  Nothing is memoised: every sweep recomputes.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..algorithms.base import ProtocolConfig, ProtocolFactory
from ..network.adversary import Adversary
from ..tokens.token import TokenPlacement, make_tokens, one_token_per_node, place_tokens
from .runner import RunResult, run_dissemination

__all__ = [
    "Measurement",
    "SweepPoint",
    "SweepTask",
    "measure",
    "standard_instance",
    "parallel_map",
    "sweep_tasks",
    "run_sweep_task",
    "fit_power_law",
    "format_table",
]

@dataclass(frozen=True)
class Measurement:
    """Aggregated completion statistics over repeated seeded runs."""

    rounds_mean: float
    rounds_std: float
    rounds_min: int
    rounds_max: int
    completed_fraction: float
    bits_mean: float
    repetitions: int

    @property
    def all_completed(self) -> bool:
        """True iff every repetition disseminated all tokens."""
        return self.completed_fraction >= 1.0


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    parameters: Mapping[str, object]
    measurement: Measurement


def standard_instance(
    n: int,
    k: int | None,
    token_bits: int,
    seed: int = 0,
) -> TokenPlacement:
    """The canonical problem instance used across benchmarks.

    ``k = None`` (or ``k == n``) gives the paper's favourite case of one
    token per node; otherwise ``k`` tokens are created at the first ``k``
    nodes (an adversarial concentration that stresses gathering).
    """
    rng = np.random.default_rng(seed)
    if k is None or k == n:
        return one_token_per_node(n, token_bits, rng)
    k = min(k, n)
    tokens = make_tokens(k, token_bits, rng, origins=list(range(k)))
    return place_tokens(tokens, n, rng, at_origin=True)


def measure(
    factory: ProtocolFactory,
    config: ProtocolConfig,
    placement: TokenPlacement,
    adversary_factory: Callable[[], Adversary],
    *,
    repetitions: int = 3,
    base_seed: int = 1,
    max_rounds: int | None = None,
) -> Measurement:
    """Run ``repetitions`` seeded executions and aggregate completion rounds."""
    rounds: list[int] = []
    bits: list[int] = []
    completed = 0
    for rep in range(repetitions):
        result: RunResult = run_dissemination(
            factory,
            config,
            placement,
            adversary_factory(),
            seed=base_seed + rep * 1009,
            max_rounds=max_rounds,
        )
        rounds.append(result.rounds)
        bits.append(result.metrics.total_message_bits)
        if result.completed:
            completed += 1
    return Measurement(
        rounds_mean=float(statistics.mean(rounds)),
        rounds_std=float(statistics.pstdev(rounds)) if len(rounds) > 1 else 0.0,
        rounds_min=min(rounds),
        rounds_max=max(rounds),
        completed_fraction=completed / repetitions,
        bits_mean=float(statistics.mean(bits)),
        repetitions=repetitions,
    )


def parallel_map(
    fn: Callable[[object], object],
    items: Sequence[object],
    *,
    max_workers: int | None = None,
) -> list:
    """``[fn(item) for item in items]``, fanned out over worker processes.

    The one fan-out primitive of the sweep harness.  ``fn`` must be a
    module-level function (pickled by reference into the workers) and the
    items picklable.  Results keep the input order.  ``None`` or
    ``max_workers <= 1``, or a single item, runs serially in this process.
    """
    if max_workers is None or max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: only a parallel sweep needs it, and importing it costs
    # every interpreter that loads the package ~11 ms at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=max_workers) as executor:
        return list(executor.map(fn, items))


@dataclass(frozen=True)
class SweepTask:
    """A fully declarative (and picklable) description of one sweep point.

    The task pins everything a worker process needs: the protocol factory,
    the shared configuration, the adversary, and every seed involved — the
    instance seed that places the tokens and the base seed that drives the
    repetitions.  Running the same task twice (in any process) therefore
    yields the same :class:`Measurement`, which is what makes serial and
    parallel sweeps agree.
    """

    factory: ProtocolFactory
    config: ProtocolConfig
    adversary_factory: Callable[[], Adversary]
    parameters: Mapping[str, object] = field(default_factory=dict)
    instance_seed: int = 0
    repetitions: int = 3
    base_seed: int = 1


def run_sweep_task(task: SweepTask) -> Measurement:
    """Execute one :class:`SweepTask` (the unit of work sent to a worker)."""
    placement = standard_instance(
        task.config.n, task.config.k, task.config.token_bits, seed=task.instance_seed
    )
    return measure(
        task.factory,
        task.config,
        placement,
        task.adversary_factory,
        repetitions=task.repetitions,
        base_seed=task.base_seed,
    )


def sweep_tasks(
    tasks: Sequence[SweepTask],
    *,
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """Measure every task through :func:`parallel_map`, in task order.

    Each task is fully self-seeded, so the measurements are identical
    whatever ``max_workers`` is.
    """
    measurements = parallel_map(run_sweep_task, tasks, max_workers=max_workers)
    return [
        SweepPoint(parameters=dict(task.parameters), measurement=measurement)
        for task, measurement in zip(tasks, measurements)
    ]


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Fit ``y ~ c * x^alpha`` by least squares in log-log space.

    Returns ``(alpha, c)``.  Used to check scaling exponents, e.g. that
    token-forwarding rounds grow ~quadratically in ``n`` while coded rounds
    grow ~quadratically/ log n, or that rounds fall ~quadratically in ``b``.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs of equal length")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    alpha, log_c = np.polyfit(log_x, log_y, 1)
    return float(alpha), float(math.exp(log_c))


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of dict rows as a fixed-width text table for bench output."""
    if not rows:
        return f"{title}\n(no data)"
    columns = list(rows[0].keys())
    widths = {
        col: max(len(str(col)), *(len(str(row.get(col, ""))) for row in rows))
        for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)
