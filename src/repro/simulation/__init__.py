"""Simulation engine: round executors (kernel/mask), metrics, harness."""

from .experiments import (
    Measurement,
    SweepPoint,
    SweepTask,
    fit_power_law,
    format_table,
    measure,
    parallel_map,
    run_sweep_task,
    standard_instance,
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
    "SweepPoint",
    "SweepTask",
    "build_nodes",
    "fit_power_law",
    "format_table",
    "kernel_for",
    "measure",
    "parallel_map",
    "register_kernel",
    "run_dissemination",
    "run_sweep_task",
    "standard_instance",
    "sweep_tasks",
]
