"""E22: sweep-scale degradation campaigns over the third-generation axes.

E20 sweeps one hostile axis (loss intensity) per curve; this bench crosses
three orthogonal third-generation axes into one degradation *surface*:

* per-edge loss probability,
* radio-collision round probability (capture mode: a receiver hearing two
  or more simultaneous senders keeps only the lowest uid),
* fake quorum membership ``f`` (the ``n >= 2f+1`` bound holds at every
  point; completion and the surviving rate run over the honest quorum).

Every grid point is one seeded kernel-engine token-forwarding run on the
edge-Markov scenario, fanned out through ``sweep_map`` (in parallel, like
every other sweep bench).  The bench asserts the surface's shape: every
point stays on the kernel engine, the benign corner completes, collisions
bite, and the hostile corner degrades.  The runs are deterministic, so
``tests/test_bench_pins.py`` pins every point's surviving rate,
completion round, collided and dropped counts exactly, through this
module's ``_degradation_point``.  Nothing here is timed.
"""

from __future__ import annotations

from repro.algorithms import TokenForwardingNode
from repro.network import CollisionModel, FaultModel, QuorumModel
from repro.scenarios import make_scenario
from repro.simulation import run_dissemination, standard_instance

from common import make_config, print_rows, sweep_map

#: Grid size: 27 kernel runs at n=32 stay CI-cheap even uncached.
N = 32
#: The four highest uids stay payload-free (standard_instance places tokens
#: at uids 0..k-1), so fake quorum members never originate honest tokens.
K = N - 4
#: Token forwarding completes the benign corner in ~260 rounds at this
#: size; the cap leaves only modest headroom on purpose — the protocol's
#: flooding redundancy absorbs enormous per-edge loss given unlimited time,
#: so the campaign measures *timely* completion.  Hostile corners are
#: meant to run out: a partial surviving rate is the data point, not an
#: error.
MAX_ROUNDS = 300

LOSS_AXIS = (0.0, 0.5, 0.9)
COLLISION_AXIS = (0.0, 0.5, 0.9)
FAKE_AXIS = (0, 2, 4)


def _model(loss: float, collision: float, fake: int) -> FaultModel:
    return FaultModel(
        loss=loss,
        collisions=(
            CollisionModel(probability=collision, capture=True)
            if collision > 0.0
            else None
        ),
        quorum=(
            QuorumModel(fake=tuple(range(N - fake, N))) if fake > 0 else None
        ),
    )


def _degradation_point(*, loss: float, collision: float, fake: int, seed: int) -> dict:
    """One grid point: a seeded kernel run, reduced to JSON-safe figures."""
    config = make_config(N, k=K, d=8, b=max(64, N + 16))
    placement = standard_instance(N, K, 8, seed=seed)
    faults = _model(loss, collision, fake)
    result = run_dissemination(
        TokenForwardingNode,
        config,
        placement,
        make_scenario("edge_markov", N, seed=seed),
        seed=seed,
        engine="kernel",
        faults=faults if faults.active else None,
        max_rounds=MAX_ROUNDS,
        track_progress=True,
    )
    metrics = result.metrics
    if metrics.survivors is None:
        # The benign corner: no fault axis, population-wide completion.
        rate = 1.0 if metrics.completed else 0.0
        completion = metrics.completion_round
    else:
        rate = metrics.surviving_completion_rate
        completion = metrics.survivor_completion_round
    return {
        "loss": loss,
        "collision": collision,
        "fake": fake,
        "surviving_rate": round(rate, 3) if rate is not None else None,
        "completion_round": completion,
        "collided": metrics.collided_deliveries,
        "dropped": metrics.dropped_deliveries,
        "engine": result.engine,
    }


def _surface() -> list[dict]:
    points = [
        {"loss": loss, "collision": collision, "fake": fake, "seed": 2}
        for loss in LOSS_AXIS
        for collision in COLLISION_AXIS
        for fake in FAKE_AXIS
    ]
    return sweep_map(_degradation_point, points)


def test_e22_degradation_surface(benchmark):
    rows = _surface()
    assert len(rows) == len(LOSS_AXIS) * len(COLLISION_AXIS) * len(FAKE_AXIS)
    print_rows("E22 — loss x collision x fake-quorum degradation surface", rows)
    for row in rows:
        assert row["engine"] == "kernel", f"{row} fell off the kernel engine"
    benign = rows[0]
    assert (benign["loss"], benign["collision"], benign["fake"]) == (0.0, 0.0, 0)
    assert benign["surviving_rate"] == 1.0
    assert benign["collided"] == 0
    # Collisions must actually bite somewhere on the surface...
    assert any(row["collided"] > 0 for row in rows if row["collision"] > 0)
    # ...and the hostile extreme must measurably degrade against benign:
    # fewer honest completers, or completion strictly later.
    worst = max(rows, key=lambda r: (r["loss"], r["collision"], r["fake"]))
    degraded = (
        worst["surviving_rate"] is None
        or worst["surviving_rate"] < 1.0
        or worst["completion_round"] is None
        or worst["completion_round"] > benign["completion_round"]
    )
    assert degraded, f"hostile corner shows no degradation: {worst}"
    benchmark.pedantic(
        lambda: _degradation_point(loss=0.2, collision=0.25, fake=2, seed=3),
        rounds=1,
        iterations=1,
    )
