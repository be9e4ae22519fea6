"""Scenario-registry tests and the adversary replay-determinism matrix.

The determinism matrix is the contract sweeps and benchmarks rely on: every
in-repo adversary — the hand-written ones (static, oblivious, adaptive,
T-stable-wrapped, omniscient) and every registered scenario — must replay an
*identical* topology sequence after ``reset()`` with the same seed, on every
execution engine it is eligible for.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms import TokenForwardingNode
from repro.network import (
    ObliviousSequenceAdversary,
    OmniscientBottleneckAdversary,
    RandomConnectedAdversary,
    TokenIsolationAdversary,
    Topology,
    TStableAdversary,
    ring_topology,
    shifted_ring_topology,
)
from repro.scenarios import SCENARIOS, Scenario, list_scenarios, make_scenario, register_scenario, scenario_for
from repro.simulation import run_dissemination, standard_instance
from tests.conftest import NAMED_ADVERSARIES, RecordingAdversary, make_config

N = 12


class TestRegistry:
    def test_catalog_is_populated(self):
        names = list_scenarios()
        assert len(names) >= 8
        assert "edge_markov_t4" in names and "waypoint_radio" in names
        assert names == sorted(names)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("no_such_scenario", 8)
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_for("no_such_scenario", 8)

    def test_duplicate_registration_rejected(self):
        existing = SCENARIOS["edge_markov"]
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(existing)

    def test_scenario_for_factories_pickle_and_build_fresh_adversaries(self):
        factory = scenario_for("edge_markov_t4", N, seed=5)
        clone = pickle.loads(pickle.dumps(factory))  # must ship to sweep workers
        a, b = factory(), clone()
        assert a is not b
        first = a.choose_topology(0, N, [])
        second = b.choose_topology(0, N, [])
        assert first.masks == second.masks  # independent objects, same schedule

    def test_every_catalog_entry_declares_connectivity(self):
        for scenario in SCENARIOS.values():
            assert isinstance(scenario, Scenario)
            assert "connected" in scenario.guarantees


# ----------------------------------------------------------------------
# the replay-determinism matrix (old and new adversaries, all engines)
# ----------------------------------------------------------------------


def _target_token_id():
    return sorted(standard_instance(N, N, 8, seed=0).all_ids())[0]


def _hand_written_adversaries():
    return [
        pytest.param(lambda build=build: build(4), id=name)
        for name, build in NAMED_ADVERSARIES.items()
    ] + [
        pytest.param(
            lambda: TStableAdversary(RandomConnectedAdversary(seed=4), 3),
            id="tstable-random-connected",
        ),
        pytest.param(
            lambda: TokenIsolationAdversary(_target_token_id()), id="token-isolation"
        ),
        pytest.param(lambda: OmniscientBottleneckAdversary(), id="omniscient-bottleneck"),
        pytest.param(
            lambda: ObliviousSequenceAdversary(
                lambda n, r: shifted_ring_topology(n, r) if r % 2 else ring_topology(n)
            ),
            id="oblivious-sequence",
        ),
    ]


def _scenario_adversaries():
    return [
        pytest.param(scenario_for(name, N, seed=6), id=f"scenario-{name}")
        for name in list_scenarios()
    ]


def _edge_sequence(topologies) -> list[set[frozenset]]:
    return [{frozenset(edge) for edge in graph.edges} for graph in topologies]


@pytest.mark.parametrize(
    "adversary_factory", _hand_written_adversaries() + _scenario_adversaries()
)
def test_adversary_replays_identical_sequence_across_resets_and_engines(
    adversary_factory,
):
    config = make_config(N)
    placement = standard_instance(N, N, 8, seed=0)
    adversary = RecordingAdversary(adversary_factory())
    engines = ["kernel", "mask"]

    sequences = {}
    for engine in engines:
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            adversary,  # the same object every run: reset() must rewind it fully
            seed=2,
            engine=engine,
        )
        assert result.engine == engine
        assert result.completed and result.correct
        sequences[engine] = _edge_sequence(adversary.topologies)

    # A second run on the first engine pins reset() replay directly.
    run_dissemination(
        TokenForwardingNode, config, placement, adversary, seed=2, engine=engines[0]
    )
    assert _edge_sequence(adversary.topologies) == sequences[engines[0]]

    reference = sequences[engines[0]]
    for engine in engines[1:]:
        assert sequences[engine] == reference, f"{engine} diverged from {engines[0]}"
