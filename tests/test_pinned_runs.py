"""Behaviour pins: ``RunMetrics`` and trace-content digests over the catalog.

Every catalog scenario runs with :class:`TokenForwardingNode` and
:class:`IndexedBroadcastNode` on both the kernel and the mask engine, and
the protocols that only run on per-node objects (priority forward,
T-stable patches, the counting reduction's attempts and centralized
coding) run on the mask engine over a few scenarios.  The paper's
Section 7 and T-stable baselines (greedy-forward, naive coded, random
forward, pipelined forwarding) run on the mask engine over the object
scenarios and a healing partition; greedy-forward and priority-forward
also run at a budget whose blocks carry several tokens.  The omniscient
cases pin the Section 6 round order -- state snapshot, compose, then the
adversary reads the composed messages -- with a content-sensitive
:class:`OmniscientBottleneckAdversary` under a few fault models, two of them
with a state-aware fault strategy, so one round holds both snapshots: the
adversary's before compose and the strategy's after it.  The adaptive
cases pin the non-omniscient adversaries that read node state (the
bottleneck's knowledge/rank split and the isolation of one token's
holders).  Each run must
reproduce the full ``RunMetrics.to_dict()``, the correctness verdict and
the trace ``content_digest()`` pinned in ``tests/golden/pinned_runs.json``
(see :mod:`tests.golden`); both engines must reproduce the one pin.

The pins are the refactoring contract: a change that keeps them and
deletes code preserves behaviour.
"""

from __future__ import annotations

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
from repro.algorithms.blocks import block_layout
from repro.network import (
    BottleneckAdversary,
    OmniscientBottleneckAdversary,
    TokenIsolationAdversary,
)
from repro.obs import TraceRecorder
from repro.scenarios import fault_model_for, list_scenarios, make_scenario
from repro.simulation import run_dissemination, standard_instance
from repro.tokens import CodedMessage, MessageBudget
from tests import golden
from tests.conftest import make_config

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
#: Fault models with a state-aware strategy the omniscient adversary runs
#: under, for the catalog protocols on both engines and naive coding on mask.
STATE_AWARE_FAULTS = ("frontier_adaptive_mix", "straggler_capture_radio")
STATE_AWARE_MASK_ONLY = ("NaiveCodedNode",)
#: Non-omniscient adversaries that read node state, built per placement.
ADAPTIVE_ADVERSARIES = {
    "bottleneck2": lambda placement: BottleneckAdversary(bridge_pairs=2),
    "token_isolation": lambda placement: TokenIsolationAdversary(min(placement.all_ids())),
}
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
#: Greedy-forward and priority-forward at a budget where a block carries
#: several tokens, so Section 7's b/2 payload vs header split shows in the
#: pins (at b=64 a block holds one token under any split).  A forwarding
#: window of one or two rounds leaves tokens for the coded broadcast, which
#: a longer window at this budget would finish without.
WIDE_BLOCK_FACTORIES = {f.__name__: f for f in (GreedyForwardNode, PriorityForwardNode)}
WIDE_BLOCK_CONFIGS = {
    "GreedyForwardNode": make_config(N, K, b=128, extra={"gather_rounds": 2}),
    "PriorityForwardNode": make_config(N, K, b=128, extra={"spread_rounds": 1}),
}
WIDE_BLOCK_SCENARIOS = ("edge_markov", "lossy_edge_markov")


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
    cases += [
        (f"omniscient/{faults}/{name}", engine)
        for faults in STATE_AWARE_FAULTS
        for name in CATALOG_FACTORIES
        for engine in ("kernel", "mask")
    ]
    cases += [
        (f"omniscient/{faults}/{name}", "mask")
        for faults in STATE_AWARE_FAULTS
        for name in STATE_AWARE_MASK_ONLY
    ]
    cases += [
        (f"adaptive/{adversary}/{name}", engine)
        for adversary in ADAPTIVE_ADVERSARIES
        for name in CATALOG_FACTORIES
        for engine in ("kernel", "mask")
    ]
    cases += [
        (f"wide_blocks/{scenario}/{name}", "mask")
        for scenario in WIDE_BLOCK_SCENARIOS
        for name in WIDE_BLOCK_FACTORIES
    ]
    return cases


def _run(key: str, engine: str) -> dict:
    family, scenario, name = key.split("/")
    if family in ("catalog", "adaptive"):
        factory, config = CATALOG_FACTORIES[name], make_config(N, K)
    elif family in ("omniscient", "protocol"):
        factory = (
            CATALOG_FACTORIES.get(name)
            or OMNISCIENT_MASK_ONLY.get(name)
            or PROTOCOL_FACTORIES[name]
        )
        config = PROTOCOL_CONFIGS.get(name) or make_config(N, K)
    elif family == "wide_blocks":
        factory, config = WIDE_BLOCK_FACTORIES[name], WIDE_BLOCK_CONFIGS[name]
    else:
        build, config = _object_cases()[name]
        factory = build()
    placement = standard_instance(N, K, config.token_bits, seed=SEED)
    if family == "omniscient":
        adversary = OmniscientBottleneckAdversary(usefulness_fn=_useful_crossing)
        faults = None if scenario == "benign" else fault_model_for(scenario, N, seed=SEED)
    elif family == "adaptive":
        adversary, faults = ADAPTIVE_ADVERSARIES[scenario](placement), None
    else:
        adversary = make_scenario(scenario, N, seed=SEED)
        faults = fault_model_for(scenario, N, seed=SEED)
    trace = TraceRecorder()
    result = run_dissemination(
        factory,
        config,
        placement,
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


@pytest.mark.parametrize("key,engine", _cases(), ids=lambda value: value)
def test_run_matches_pin(key, engine):
    golden.check("pinned_runs", key, _run(key, engine))


@pytest.mark.parametrize("name", sorted(WIDE_BLOCK_CONFIGS))
def test_wide_block_configs_carry_several_tokens_per_block(name):
    tokens_per_block, _ = block_layout(WIDE_BLOCK_CONFIGS[name])
    assert tokens_per_block >= 2


def test_fixture_covers_exactly_the_pinned_cases():
    golden.check_keys("pinned_runs", (key for key, _ in _cases()))


def golden_values() -> dict:
    pins: dict[str, dict] = {}
    for key, engine in _cases():
        outcome = _run(key, engine)
        if pins.setdefault(key, outcome) != outcome:
            raise SystemExit(f"{key}: engines disagree, refusing to pin")
    return pins
