"""Exact pins of the hostile-axis benches' behavioural rows.

E22's degradation surface and E20's failure-regime points are seeded,
deterministic runs, so their figures are pinned value for value rather
than summarised by a mean.  The pins call the benches' own code (E22's
``_surface``, which maps ``_degradation_point`` over the grid, and E20's
``_run``), so the table a bench prints and the figures pinned here come
from one definition.

A change to the fault layer, the round loop or the token-forwarding kernel
that moves any of these figures changed behaviour under the hostile axes.
"""

from __future__ import annotations

import sys
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

#: ``(loss, collision, fake) -> (surviving_rate, completion_round, collided,
#: dropped)`` for every point of E22's grid at seed 2.  The three points
#: of the hostile corner run out of rounds with a partial surviving rate.
E22_SURFACE = {
    (0.0, 0.0, 0): (1.0, 258, 0, 0),
    (0.0, 0.0, 2): (1.0, 258, 0, 0),
    (0.0, 0.0, 4): (1.0, 258, 0, 0),
    (0.0, 0.5, 0): (1.0, 261, 13032, 0),
    (0.0, 0.5, 2): (1.0, 261, 13032, 0),
    (0.0, 0.5, 4): (1.0, 261, 13032, 0),
    (0.0, 0.9, 0): (1.0, 266, 22588, 0),
    (0.0, 0.9, 2): (1.0, 266, 22588, 0),
    (0.0, 0.9, 4): (1.0, 265, 22510, 0),
    (0.5, 0.0, 0): (1.0, 261, 0, 16612),
    (0.5, 0.0, 2): (1.0, 261, 0, 16612),
    (0.5, 0.0, 4): (1.0, 261, 0, 16612),
    (0.5, 0.5, 0): (1.0, 266, 4748, 16869),
    (0.5, 0.5, 2): (1.0, 266, 4748, 16869),
    (0.5, 0.5, 4): (1.0, 265, 4722, 16815),
    (0.5, 0.9, 0): (1.0, 266, 8542, 16887),
    (0.5, 0.9, 2): (1.0, 266, 8542, 16887),
    (0.5, 0.9, 4): (1.0, 265, 8516, 16833),
    (0.9, 0.0, 0): (1.0, 291, 0, 33380),
    (0.9, 0.0, 2): (1.0, 291, 0, 33380),
    (0.9, 0.0, 4): (1.0, 291, 0, 33380),
    (0.9, 0.5, 0): (1.0, 297, 291, 33834),
    (0.9, 0.5, 2): (1.0, 297, 291, 33834),
    (0.9, 0.5, 4): (1.0, 297, 291, 33834),
    (0.9, 0.9, 0): (0.938, None, 526, 33955),
    (0.9, 0.9, 2): (0.933, None, 526, 33955),
    (0.9, 0.9, 4): (0.929, None, 526, 33955),
}


@pytest.fixture(scope="module")
def e22_rows() -> dict:
    """E22's surface exactly as the bench computes and prints it."""
    return {(row["loss"], row["collision"], row["fake"]): row for row in e22._surface()}


def test_e22_pins_cover_the_whole_grid(e22_rows):
    assert list(e22_rows) == list(E22_SURFACE)


@pytest.mark.parametrize(
    ("loss", "collision", "fake"),
    list(E22_SURFACE),
    ids=[
        f"loss{loss}-collision{collision}-fake{fake}"
        for loss, collision, fake in E22_SURFACE
    ],
)
def test_e22_degradation_point(e22_rows, loss, collision, fake):
    row = e22_rows[(loss, collision, fake)]
    assert row["engine"] == "kernel"
    measured = (
        row["surviving_rate"],
        row["completion_round"],
        row["collided"],
        row["dropped"],
    )
    assert measured == E22_SURFACE[(loss, collision, fake)]


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


@pytest.fixture(scope="module")
def e20_points() -> dict:
    """E20's two failure-regime runs, over the bench's sweep workers."""
    points = {
        # The tail of E20's token-forwarding loss curve.
        "loss-0.97": {"scenario": "edge_markov", "model": FaultModel(loss=0.97)},
        # E20's catalog row for collision_waypoint: every round collides.
        "collision_waypoint": {
            "scenario": "collision_waypoint",
            "model": fault_model_for("collision_waypoint", e20.N, seed=0),
        },
    }
    return dict(zip(points, common.sweep_map(_failure_point, list(points.values()))))


def test_e20_token_forwarding_loss_097_never_completes(e20_points):
    assert e20_points["loss-0.97"] == {
        "engine": "kernel",
        "completed": False,
        "rounds": e20.MAX_ROUNDS,
        "survivors": 48,
        "surviving_rate": 0.0,
        "completion_round": None,
        "dropped": 126717,
        "collided": 0,
        "corrupted": 0,
    }


def test_e20_collision_waypoint_never_completes(e20_points):
    assert e20_points["collision_waypoint"] == {
        "engine": "kernel",
        "completed": False,
        "rounds": e20.MAX_ROUNDS,
        "survivors": 48,
        "surviving_rate": 0.0,
        "completion_round": None,
        "dropped": 0,
        "collided": 273891,
        "corrupted": 0,
    }
