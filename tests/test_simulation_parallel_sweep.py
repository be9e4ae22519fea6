"""Tests for the process-parallel sweep primitive and the task sweep on it."""

from __future__ import annotations

import os

from repro.algorithms import IndexedBroadcastNode
from repro.network import BottleneckAdversary
from repro.simulation import SweepTask, parallel_map, run_sweep_task, sweep_tasks

from tests.conftest import make_config


def _tasks(ns=(6, 10), repetitions=2):
    return [
        SweepTask(
            factory=IndexedBroadcastNode,
            config=make_config(n),
            adversary_factory=BottleneckAdversary,
            parameters={"n": n},
            repetitions=repetitions,
        )
        for n in ns
    ]


def square(x):
    """Module-level point function (picklable by reference)."""
    return x * x


def pid_of(_item):
    """The process that evaluated the item."""
    return os.getpid()


class TestParallelMap:
    def test_keeps_input_order_serial_and_parallel(self):
        items = [5, 3, 8, 1, 7]
        expected = [25, 9, 64, 1, 49]
        assert parallel_map(square, items) == expected
        assert parallel_map(square, items, max_workers=1) == expected
        assert parallel_map(square, items, max_workers=2) == expected

    def test_one_worker_runs_in_this_process(self):
        for workers in (None, 0, 1):
            assert set(parallel_map(pid_of, [1, 2, 3], max_workers=workers)) == {os.getpid()}

    def test_single_item_runs_in_this_process(self):
        assert parallel_map(pid_of, [1], max_workers=4) == [os.getpid()]

    def test_many_workers_leave_this_process(self):
        assert os.getpid() not in parallel_map(pid_of, [1, 2], max_workers=2)

    def test_empty_items(self):
        assert parallel_map(square, [], max_workers=2) == []


class TestParallelMatchesSerial:
    def test_sweep_tasks_identical_measurements(self):
        tasks = _tasks()
        serial = sweep_tasks(tasks, max_workers=1)
        parallel = sweep_tasks(tasks, max_workers=2)
        assert [p.parameters for p in serial] == [p.parameters for p in parallel]
        assert [p.measurement for p in serial] == [p.measurement for p in parallel]

    def test_sweep_tasks_wrap_each_task_in_order(self):
        tasks = _tasks(ns=(10, 6, 8), repetitions=1)
        points = sweep_tasks(tasks)
        assert [p.parameters for p in points] == [{"n": 10}, {"n": 6}, {"n": 8}]
        assert [p.measurement for p in points] == [run_sweep_task(t) for t in tasks]
        assert all(p.measurement.repetitions == 1 for p in points)

    def test_task_is_deterministic(self):
        task = _tasks(ns=(8,))[0]
        assert run_sweep_task(task) == run_sweep_task(task)
