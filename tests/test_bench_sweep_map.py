"""Tests for the benchmark suite's sweep helpers (``benchmarks/common.py``).

``sweep_map`` and ``measure_sweep`` recompute every point on every call:
a bench prints exactly what its point function returned, in the order the
function built it, whether the sweep ran serially or over worker processes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import common  # noqa: E402

from repro.algorithms import IndexedBroadcastNode, TokenForwardingNode  # noqa: E402
from repro.network import BottleneckAdversary  # noqa: E402


def table_row(n, b):
    """Module-level point function whose columns are not in alphabetical order."""
    return {"n": n, "rounds": n * b + 1, "b": b, "ratio": round(n / b, 3), "bits": (n, b)}


POINTS = [{"n": 16, "b": 4}, {"n": 8, "b": 2}, {"n": 24, "b": 8}]


def _config(point):
    return common.make_config(int(point["n"]), d=8)


def _factory(point):
    return IndexedBroadcastNode if point["coded"] else TokenForwardingNode


class TestSweepMap:
    def test_repeated_calls_return_the_functions_own_rows(self):
        expected = [table_row(**point) for point in POINTS]
        for _ in range(2):
            rows = common.sweep_map(table_row, POINTS, max_workers=1)
            assert [list(row) for row in rows] == [list(row) for row in expected]
            assert rows == expected

    def test_serial_equals_parallel(self):
        serial = common.sweep_map(table_row, POINTS, max_workers=1)
        parallel = common.sweep_map(table_row, POINTS, max_workers=2)
        assert parallel == serial
        assert [list(row) for row in parallel] == [list(row) for row in serial]

    def test_values_are_not_round_tripped(self):
        [row] = common.sweep_map(table_row, [{"n": 3, "b": 1}], max_workers=2)
        assert row["bits"] == (3, 1) and isinstance(row["bits"], tuple)

    def test_empty_sweep(self):
        assert common.sweep_map(table_row, [], max_workers=2) == []


class TestMeasureSweep:
    def test_serial_equals_parallel(self):
        points = [{"n": 6}, {"n": 9}]
        serial = common.measure_sweep(
            IndexedBroadcastNode, points, _config, BottleneckAdversary, max_workers=1
        )
        parallel = common.measure_sweep(
            IndexedBroadcastNode, points, _config, BottleneckAdversary, max_workers=2
        )
        assert [p.parameters for p in serial] == points
        assert [p.measurement for p in serial] == [p.measurement for p in parallel]

    def test_factory_for_picks_the_protocol_per_point(self):
        points = [{"n": 8, "coded": True}, {"n": 8, "coded": False}]
        per_point = common.measure_sweep(
            None, points, _config, BottleneckAdversary, factory_for=_factory, max_workers=1
        )
        for factory, point in zip((IndexedBroadcastNode, TokenForwardingNode), per_point):
            [alone] = common.measure_sweep(
                factory, [point.parameters], _config, BottleneckAdversary, max_workers=1
            )
            assert point.measurement == alone.measurement

    def test_exactly_one_factory_and_adversary(self):
        with pytest.raises(ValueError, match="factory"):
            common.measure_sweep(None, [{"n": 6}], _config, BottleneckAdversary)
        with pytest.raises(ValueError, match="factory"):
            common.measure_sweep(
                TokenForwardingNode, [{"n": 6}], _config, BottleneckAdversary,
                factory_for=_factory,
            )
        with pytest.raises(ValueError, match="adversary"):
            common.measure_sweep(TokenForwardingNode, [{"n": 6}], _config)


class TestSweepWorkers:
    def test_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "1")
        assert common.sweep_workers() == 1

    def test_clamped_to_cpu_count_and_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "100000")
        assert common.sweep_workers() == max(1, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        assert common.sweep_workers() == 1

    def test_unparsable_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
        assert common.sweep_workers(default=1) == 1
