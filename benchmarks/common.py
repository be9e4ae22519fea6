"""Shared helpers for the benchmark suite.

Every benchmark regenerates one "table/figure" of the paper — here, one
theorem/lemma/claim, named in the bench module's docstring.  Each bench:

1. runs a small parameter sweep with the simulator,
2. prints the measured rows next to the paper's predicted leading-order
   expression (shape comparison, not absolute constants), and
3. wraps one representative execution in the pytest-benchmark fixture so
   ``pytest benchmarks/ --benchmark-only`` also reports wall-clock costs.

Scales are laptop-sized on purpose: the claims being validated are about
*who wins and how the advantage scales*, which already shows at n of a few
dozen.

Benches print their rows and write nothing into the repository.  Speed
is measured end to end by ``perfbench/run.py``; a bench that times
something asserts its own in-process floor.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

from repro.algorithms.base import ProtocolConfig, ProtocolFactory
from repro.network import Adversary
from repro.simulation import (
    SweepPoint,
    SweepTask,
    parallel_map,
    run_dissemination,
    standard_instance,
    sweep_tasks,
)
from repro.tokens import MessageBudget

__all__ = [
    "make_config",
    "run_once",
    "measure_sweep",
    "sweep_map",
    "print_rows",
    "sweep_workers",
]


def sweep_workers(default: int = 4) -> int:
    """Worker-process count for benchmark sweeps.

    Controlled by ``REPRO_BENCH_WORKERS`` (set to ``1`` to force serial
    execution, e.g. when profiling); clamped to the machine's CPU count.
    The measurements are seed-deterministic either way — parallelism only
    changes wall-clock, never results.
    """
    try:
        requested = int(os.environ.get("REPRO_BENCH_WORKERS", default))
    except ValueError:
        requested = default
    return max(1, min(requested, os.cpu_count() or 1))


def make_config(
    n: int,
    k: int | None = None,
    d: int = 8,
    b: int | None = None,
    stability: int = 1,
    extra: dict | None = None,
) -> ProtocolConfig:
    """Terse configuration builder mirroring the tests' helper."""
    if k is None:
        k = n
    if b is None:
        b = max(d, n + 16)
    return ProtocolConfig(
        n=n,
        k=k,
        token_bits=d,
        budget=MessageBudget(b=b),
        stability=stability,
        extra=extra or {},
    )


def run_once(
    factory: ProtocolFactory,
    config: ProtocolConfig,
    adversary_factory: Callable[[], Adversary],
    seed: int = 0,
    k: int | None = None,
):
    """One dissemination run on the canonical instance; returns the RunResult."""
    placement = standard_instance(config.n, k if k is not None else config.k, config.token_bits, seed=seed)
    return run_dissemination(factory, config, placement, adversary_factory(), seed=seed)


def measure_sweep(
    factory: ProtocolFactory | None,
    points: Sequence[Mapping[str, object]],
    config_for: Callable[[Mapping[str, object]], ProtocolConfig],
    adversary_factory: Callable[[], Adversary] | None = None,
    repetitions: int = 2,
    seed: int = 0,
    max_workers: int | None = None,
    *,
    factory_for: Callable[[Mapping[str, object]], ProtocolFactory] | None = None,
    adversary_for: Callable[[Mapping[str, object]], Callable[[], Adversary]] | None = None,
    base_seed: int | None = None,
) -> list[SweepPoint]:
    """Measure every parameter point, fanned out over worker processes.

    ``config_for`` maps one parameter point (e.g. ``{"n": 64}``) to its
    :class:`ProtocolConfig`; ``factory_for`` / ``adversary_for`` do the same
    for benches whose protocol factory or adversary depends on the point
    (everything shipped to workers must be picklable — classes, module-level
    functions, ``functools.partial`` of those).  Each point is a self-seeded
    :class:`~repro.simulation.SweepTask`, so the sweep gives identical
    measurements serial or parallel; workers default to
    :func:`sweep_workers`.
    """
    if (factory is None) == (factory_for is None):
        raise ValueError("pass exactly one of factory / factory_for")
    if (adversary_factory is None) == (adversary_for is None):
        raise ValueError("pass exactly one of adversary_factory / adversary_for")

    tasks = [
        SweepTask(
            factory=factory if factory is not None else factory_for(point),
            config=config_for(point),
            adversary_factory=(
                adversary_factory if adversary_factory is not None else adversary_for(point)
            ),
            parameters=dict(point),
            instance_seed=seed,
            repetitions=repetitions,
            base_seed=seed + 1 if base_seed is None else base_seed,
        )
        for point in points
    ]
    workers = sweep_workers() if max_workers is None else max_workers
    return sweep_tasks(tasks, max_workers=workers)


def _call_with_point(payload: tuple[Callable, Mapping[str, object]]):
    """Top-level apply helper so worker processes can unpickle it."""
    fn, point = payload
    return fn(**point)


def sweep_map(
    fn: Callable[..., object],
    points: Sequence[Mapping[str, object]],
    *,
    max_workers: int | None = None,
) -> list:
    """Evaluate ``fn(**point)`` at every point, fanned out over workers.

    The :func:`measure_sweep` twin for benches whose per-point result is not
    a completion-rounds :class:`~repro.simulation.Measurement` (custom run
    drivers, analysis formulas, decomposition statistics).  ``fn`` must be a
    module-level function (pickled by reference into the workers).  Results
    come back in point order, exactly as ``fn`` returned them; workers
    default to :func:`sweep_workers`.
    """
    workers = sweep_workers() if max_workers is None else max_workers
    payloads = [(fn, dict(point)) for point in points]
    return parallel_map(_call_with_point, payloads, max_workers=workers)


def print_rows(title: str, rows: list[dict]) -> None:
    """Print a result table (captured by pytest -s / the bench log)."""
    from repro.simulation import format_table

    print()
    print(format_table(rows, title=title))
