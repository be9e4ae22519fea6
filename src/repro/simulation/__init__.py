"""Simulation engine: round executors (kernel/mask), metrics, harness."""

from .experiments import (
    Measurement,
    SweepCache,
    SweepPoint,
    SweepTask,
    fit_power_law,
    format_table,
    measure,
    ratio_table,
    run_sweep_task,
    standard_instance,
    sweep,
    sweep_tasks,
)
from .kernels import RoundKernel, kernel_for, register_kernel
from .metrics import RunMetrics
from .runner import RunResult, build_nodes, run_dissemination

__all__ = [
    "Measurement",
    "RoundKernel",
    "RunMetrics",
    "RunResult",
    "SweepCache",
    "SweepPoint",
    "SweepTask",
    "build_nodes",
    "fit_power_law",
    "format_table",
    "kernel_for",
    "measure",
    "register_kernel",
    "ratio_table",
    "run_dissemination",
    "run_sweep_task",
    "standard_instance",
    "sweep",
    "sweep_tasks",
]
