"""Behaviour pins: ``RunMetrics`` and trace-content digests over the catalog.

Every catalog scenario runs with :class:`TokenForwardingNode` and
:class:`IndexedBroadcastNode` on both the kernel and the mask engine, and
the protocols that only run on per-node objects (priority forward,
T-stable patches, the counting reduction's attempts and centralized
coding) run on the mask engine over a few scenarios.  The paper's
Section 7 and T-stable baselines (greedy-forward, naive coded, random
forward, pipelined forwarding) run on the mask engine over the object
scenarios and a healing partition.  The omniscient cases pin the Section 6
round order -- state snapshot, compose, then the adversary reads the
composed messages -- with a content-sensitive
:class:`OmniscientBottleneckAdversary` under a few fault models.  Each run must
reproduce the full ``RunMetrics.to_dict()``, the correctness verdict and
the trace ``content_digest()`` recorded in ``pinned_runs.json``.

The pins are the refactoring contract: a change that keeps them and
deletes code preserves behaviour.  To re-record after an *intended*
behaviour change, run ``PYTHONPATH=src python -m tests.test_pinned_runs``
and commit the rewritten fixture with the change that explains it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algorithms import (
    CentralizedCodedNode,
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
    PipelinedTokenForwardingNode,
    PriorityForwardNode,
    RandomForwardNode,
    TokenForwardingNode,
    make_tstable_factory,
)
from repro.algorithms.base import ProtocolConfig
from repro.network import OmniscientBottleneckAdversary
from repro.obs import TraceRecorder
from repro.scenarios import fault_model_for, list_scenarios, make_scenario
from repro.simulation import run_dissemination, standard_instance
from repro.tokens import CodedMessage, MessageBudget
from tests.conftest import make_config

FIXTURE = Path(__file__).with_name("pinned_runs.json")

N, K, SEED = 16, 12, 0
#: Hostile entries where forwarding never finishes would otherwise run to
#: the default ``20 n k`` limit; the pin covers the first ``12 n`` rounds.
MAX_ROUNDS = 12 * N

CATALOG_FACTORIES = {f.__name__: f for f in (TokenForwardingNode, IndexedBroadcastNode)}
OBJECT_SCENARIOS = ("edge_markov_stable4", "lossy_edge_markov", "crash_churn_markov")
#: The counting reduction's guesses for ``n_true = N``: too small, too
#: small, too small, then the first power of two that fits.
COUNTING_GUESSES = (2, 4, 8, 16)
#: Fault models (named by the catalog entry that carries them) the
#: omniscient adversary runs under; ``benign`` is no fault model at all.
OMNISCIENT_FAULTS = ("benign", "lossy_edge_markov", "byzantine_replay_t4")
OMNISCIENT_MASK_ONLY = {"PriorityForwardNode": PriorityForwardNode}
#: The Section 7 and T-stable baselines, pinned over ``PROTOCOL_SCENARIOS``
#: and every omniscient fault model, on the mask engine (they have no packed
#: kernel).  Greedy-forward gathers for only 4 rounds and both coded
#: protocols get a wider budget, so the runs reach their elect,
#: coded-broadcast and decode phases within ``MAX_ROUNDS``.
PROTOCOL_FACTORIES = {
    f.__name__: f
    for f in (
        GreedyForwardNode,
        NaiveCodedNode,
        RandomForwardNode,
        PipelinedTokenForwardingNode,
    )
}
PROTOCOL_CONFIGS = {
    "GreedyForwardNode": make_config(N, K, b=64, extra={"gather_rounds": 4}),
    "NaiveCodedNode": make_config(N, K, b=96),
}
PROTOCOL_SCENARIOS = OBJECT_SCENARIOS + ("partition_heal_waypoint",)


def _useful_crossing(sender: int, receiver: int, message) -> bool:
    """A content-sensitive usefulness oracle for the omniscient adversary.

    A forwarded batch counts as useful when it carries a token whose
    origin shares the receiver's parity; a coded message when its
    coefficient mask has the receiver's bit (mod the coefficient count);
    any other message when its size and the receiver differ mod 3.  The
    verdict depends on exactly what each node composed, so any change
    to what the adversary is shown moves the pins.
    """
    if message is None:
        return False
    tokens = getattr(message, "tokens", None)
    if tokens is not None:
        return any(token.token_id.origin % 2 == receiver % 2 for token in tokens)
    if isinstance(message, CodedMessage):
        width = max(1, message.num_coefficients)
        return bool((message.coefficient_mask() >> (receiver % width)) & 1)
    return message.size_bits % 3 != receiver % 3


def _counting_config(guess: int) -> ProtocolConfig:
    """The physical configuration ``count_nodes_via_doubling`` runs per guess."""
    return ProtocolConfig(
        n=N, k=K, token_bits=8, budget=MessageBudget(b=64), extra={"phase_length": guess}
    )


def _object_cases() -> dict[str, tuple]:
    """``key -> (factory builder, config)`` for the object-only protocols."""
    stable = make_config(N, K, b=N + 32, stability=4)
    cases = {
        "priority_forward": (lambda: PriorityForwardNode, make_config(N, K, b=64)),
        "tstable_patches": (lambda: make_tstable_factory(stable, seed=SEED), stable),
        "centralized": (lambda: CentralizedCodedNode, make_config(N, K, b=16)),
    }
    for guess in COUNTING_GUESSES:
        cases[f"counting_guess{guess}"] = (lambda: TokenForwardingNode, _counting_config(guess))
    return cases


def _cases() -> list[tuple[str, str]]:
    """``(key, engine)`` for every pinned run."""
    cases = [
        (f"catalog/{scenario}/{name}", engine)
        for scenario in list_scenarios()
        for name in CATALOG_FACTORIES
        for engine in ("kernel", "mask")
    ]
    cases += [
        (f"object/{scenario}/{name}", "mask")
        for scenario in OBJECT_SCENARIOS
        for name in _object_cases()
    ]
    cases += [
        (f"omniscient/{faults}/{name}", engine)
        for faults in OMNISCIENT_FAULTS
        for name in CATALOG_FACTORIES
        for engine in ("kernel", "mask")
    ]
    cases += [
        (f"omniscient/{faults}/{name}", "mask")
        for faults in OMNISCIENT_FAULTS
        for name in OMNISCIENT_MASK_ONLY
    ]
    cases += [
        (f"protocol/{scenario}/{name}", "mask")
        for scenario in PROTOCOL_SCENARIOS
        for name in PROTOCOL_FACTORIES
    ]
    cases += [
        (f"omniscient/{faults}/{name}", "mask")
        for faults in OMNISCIENT_FAULTS
        for name in PROTOCOL_FACTORIES
    ]
    return cases


def _run(key: str, engine: str) -> dict:
    family, scenario, name = key.split("/")
    if family == "catalog":
        factory, config = CATALOG_FACTORIES[name], make_config(N, K)
    elif family in ("omniscient", "protocol"):
        factory = (
            CATALOG_FACTORIES.get(name)
            or OMNISCIENT_MASK_ONLY.get(name)
            or PROTOCOL_FACTORIES[name]
        )
        config = PROTOCOL_CONFIGS.get(name) or make_config(N, K)
    else:
        build, config = _object_cases()[name]
        factory = build()
    if family == "omniscient":
        adversary = OmniscientBottleneckAdversary(usefulness_fn=_useful_crossing)
        faults = None if scenario == "benign" else fault_model_for(scenario, N, seed=SEED)
    else:
        adversary = make_scenario(scenario, N, seed=SEED)
        faults = fault_model_for(scenario, N, seed=SEED)
    trace = TraceRecorder()
    result = run_dissemination(
        factory,
        config,
        standard_instance(N, K, config.token_bits, seed=SEED),
        adversary,
        seed=SEED,
        engine=engine,
        max_rounds=MAX_ROUNDS,
        faults=faults,
        trace=trace,
    )
    assert result.engine == engine
    return {
        "metrics": result.metrics.to_dict(),
        "correct": result.correct,
        "trace": trace.to_trace().content_digest(),
    }


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key,engine", _cases(), ids=lambda value: value)
def test_run_matches_pin(key, engine):
    assert _run(key, engine) == _load()[key]


def test_fixture_covers_exactly_the_pinned_cases():
    assert set(_load()) == {key for key, _ in _cases()}


def _record() -> None:
    pins: dict[str, dict] = {}
    for key, engine in _cases():
        outcome = _run(key, engine)
        if key in pins and pins[key] != outcome:
            raise SystemExit(f"{key}: engines disagree, refusing to pin")
        pins[key] = outcome
    lines = [f"{json.dumps(key)}: {json.dumps(pins[key], sort_keys=True)}" for key in sorted(pins)]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(pins)} pins to {FIXTURE}")


if __name__ == "__main__":
    _record()
