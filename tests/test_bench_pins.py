"""Exact pins of the hostile-axis benches' behavioural rows.

E22's degradation surface and E20's failure-regime points are seeded,
deterministic runs, so their figures are pinned value for value rather
than summarised by a mean.  The pins call the benches' own code (E22's
``_surface``, which maps ``_degradation_point`` over the grid, and E20's
``_run``), so the table a bench prints and the figures pinned here come
from one definition.

The figures are kept in ``tests/golden/bench_pins.json`` (see
:mod:`tests.golden`).  A change to the fault layer, the round loop or the
token-forwarding kernel that moves any of them changed behaviour under the
hostile axes.
"""

from __future__ import annotations

import sys
from functools import cache
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import bench_e20_hostile as e20  # noqa: E402
import bench_e22_degradation as e22  # noqa: E402
import common  # noqa: E402

from repro.algorithms import TokenForwardingNode  # noqa: E402
from repro.network import FaultModel  # noqa: E402
from repro.scenarios import fault_model_for  # noqa: E402
from tests import golden  # noqa: E402

#: E22's grid in the bench's order, at seed 2, by name.  The three points
#: of the hostile corner run out of rounds with a partial surviving rate.
E22_POINTS = {
    f"loss{loss}-collision{collision}-fake{fake}": (loss, collision, fake)
    for loss in e22.LOSS_AXIS
    for collision in e22.COLLISION_AXIS
    for fake in e22.FAKE_AXIS
}
E22_FIELDS = ("surviving_rate", "completion_round", "collided", "dropped")
#: E20's two failure-regime runs; neither completes in the bench's ``MAX_ROUNDS``.
E20_POINTS = {
    # The tail of E20's token-forwarding loss curve.
    "E20/loss-0.97": {"scenario": "edge_markov", "model": FaultModel(loss=0.97)},
    # E20's catalog row for collision_waypoint: every round collides.
    "E20/collision_waypoint": {
        "scenario": "collision_waypoint",
        "model": fault_model_for("collision_waypoint", e20.N, seed=0),
    },
}


@cache
def _e22_rows() -> dict:
    """E22's surface exactly as the bench computes and prints it."""
    return {(row["loss"], row["collision"], row["fake"]): row for row in e22._surface()}


def _failure_point(scenario: str, model: FaultModel) -> dict:
    result, _ = e20._run(TokenForwardingNode, e20.N, e20.K, scenario, model)
    metrics = result.metrics
    return {
        "engine": result.engine,
        "completed": result.completed,
        "rounds": metrics.rounds_executed,
        "survivors": metrics.survivors,
        "surviving_rate": metrics.surviving_completion_rate,
        "completion_round": metrics.survivor_completion_round,
        "dropped": metrics.dropped_deliveries,
        "collided": metrics.collided_deliveries,
        "corrupted": metrics.corrupted_deliveries,
    }


@cache
def _e20_points() -> dict:
    """The failure points by key, over the bench's sweep workers."""
    return dict(zip(E20_POINTS, common.sweep_map(_failure_point, list(E20_POINTS.values()))))


def _e22_value(name: str) -> tuple:
    row = _e22_rows()[E22_POINTS[name]]
    return tuple(row[field] for field in E22_FIELDS)


def golden_values() -> dict:
    return {**{f"E22/{name}": _e22_value(name) for name in E22_POINTS}, **_e20_points()}


def test_e22_pins_cover_the_whole_grid():
    golden.check_keys("bench_pins", [f"E22/{name}" for name in E22_POINTS] + list(E20_POINTS))


@pytest.mark.parametrize("name", E22_POINTS)
def test_e22_degradation_point(name):
    assert _e22_rows()[E22_POINTS[name]]["engine"] == "kernel"
    golden.check("bench_pins", f"E22/{name}", _e22_value(name))


def test_e20_token_forwarding_loss_097_never_completes():
    golden.check("bench_pins", "E20/loss-0.97", _e20_points()["E20/loss-0.97"])


def test_e20_collision_waypoint_never_completes():
    golden.check("bench_pins", "E20/collision_waypoint", _e20_points()["E20/collision_waypoint"])
