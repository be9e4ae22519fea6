"""The scenario registry and the in-repo catalog entries.

Every entry composes a raw :class:`~repro.network.dynamics.DynamicsProcess`
with the transformer that provides its model guarantee and bridges the
result through :class:`~repro.network.dynamics.ScheduleAdversary`.  All
catalog scenarios are adaptive-adversary-free and non-omniscient, so they
are eligible for every execution engine including ``engine="kernel"``.

Scenario builders take ``(n, seed)`` and derive their process parameters
from ``n`` (target degrees, radio range, churn counts), so one scenario
name means the same *qualitative* workload at every network size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..network.adversary import Adversary, TStableAdversary
from ..network.dynamics import (
    ChurnProcess,
    ConnectivityPatcher,
    DegreeBoundedRewiringProcess,
    EdgeMarkovProcess,
    RandomWaypointProcess,
    ScheduleAdversary,
    TIntervalEnforcer,
)
from ..network.faults import (
    BridgeLossStrategy,
    BudgetedLossStrategy,
    CollisionModel,
    FaultModel,
    FrontierLossStrategy,
    PartitionModel,
    QuorumModel,
    StragglerIsolationStrategy,
    crash_schedule_from_churn,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "fault_model_for",
    "hostile_scenarios",
    "list_scenarios",
    "make_scenario",
    "register_scenario",
    "scenario_for",
]


@dataclass(frozen=True)
class Scenario:
    """One named dynamic-network workload.

    Attributes
    ----------
    name:
        Registry key (``scenario_for`` / ``make_scenario`` look it up).
    description:
        One line for catalogs and benchmark tables.
    build:
        ``(n, seed) -> Adversary``; must be a module-level callable (or a
        ``partial`` of one) so scenario factories pickle into sweep workers.
    process:
        The raw dynamics family ("edge-markov", "waypoint", "churn",
        "rewiring").
    guarantees:
        Human-readable model guarantees, e.g. ``("connected",)`` or
        ``("connected", "4-interval-connected")``.  Every catalog entry is
        at least per-round connected (the paper's standing assumption).
    faults:
        The hostile axis: ``(n, seed) -> FaultModel``, or ``None`` for a
        benign entry.  Like ``build``, must be a module-level callable so
        scenario factories pickle into sweep workers; pass the result to
        ``run_dissemination(..., faults=...)``.
    """

    name: str
    description: str
    build: Callable[[int, int], Adversary]
    process: str
    guarantees: tuple[str, ...]
    faults: Callable[[int, int], FaultModel] | None = None


SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (rejecting duplicate names)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def list_scenarios() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIOS)


def make_scenario(name: str, n: int, seed: int = 0) -> Adversary:
    """Build a fresh adversary for a named scenario at network size ``n``."""
    try:
        scenario = SCENARIOS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {list_scenarios()}"
        ) from exc
    return scenario.build(n, seed)


def scenario_for(name: str, n: int, seed: int = 0) -> Callable[[], Adversary]:
    """A picklable zero-argument adversary factory for a named scenario.

    The sweep-harness twin of ``adversary_for`` in ``benchmarks/common.py``:
    the returned ``partial`` references only module-level callables, so it
    ships into ``ProcessPoolExecutor`` workers, and every call builds an
    independent adversary (sweep repetitions never share process state).
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {list_scenarios()}")
    return partial(make_scenario, name, n, seed)


def fault_model_for(name: str, n: int, seed: int = 0) -> FaultModel | None:
    """The named scenario's fault model at size ``n`` (None: benign entry).

    A :class:`~repro.network.faults.FaultModel` is itself frozen plain
    data, so the returned object pickles into sweep workers directly — no
    factory indirection needed on the caller's side.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {list_scenarios()}"
        ) from exc
    if scenario.faults is None:
        return None
    return scenario.faults(n, seed)


def hostile_scenarios() -> list[str]:
    """Names of the catalog entries that carry a fault model, sorted."""
    return sorted(name for name, s in SCENARIOS.items() if s.faults is not None)


# ----------------------------------------------------------------------
# parameter derivations (qualitative workload invariant in n)
# ----------------------------------------------------------------------


def _edge_markov_process(n: int, seed: int, target_degree: float = 4.0) -> EdgeMarkovProcess:
    """Birth/death rates whose stationary density gives ~``target_degree``."""
    density = min(0.5, target_degree / max(1, n - 1))
    p_death = 0.25
    p_birth = p_death * density / (1.0 - density)
    return EdgeMarkovProcess(n, p_birth=p_birth, p_death=p_death, seed=seed)


def _waypoint_process(n: int, seed: int, target_degree: float = 8.0) -> RandomWaypointProcess:
    """Radio radius sized for ~``target_degree`` neighbours in the unit square."""
    radius = min(0.5, math.sqrt(target_degree / (math.pi * max(2, n - 1))))
    return RandomWaypointProcess(n, radius=radius, speed=0.05, seed=seed)


# ----------------------------------------------------------------------
# catalog builders (module-level: scenario factories must pickle)
# ----------------------------------------------------------------------


def _build_edge_markov(n: int, seed: int) -> Adversary:
    return ScheduleAdversary(ConnectivityPatcher(_edge_markov_process(n, seed)))


def _build_edge_markov_t4(n: int, seed: int) -> Adversary:
    return ScheduleAdversary(TIntervalEnforcer(_edge_markov_process(n, seed), 4))


def _build_edge_markov_stable4(n: int, seed: int) -> Adversary:
    return TStableAdversary(
        ScheduleAdversary(ConnectivityPatcher(_edge_markov_process(n, seed))), 4
    )


def _build_waypoint_radio(n: int, seed: int) -> Adversary:
    return ScheduleAdversary(ConnectivityPatcher(_waypoint_process(n, seed)))


def _build_waypoint_churn_t4(n: int, seed: int) -> Adversary:
    churned = ChurnProcess(
        _waypoint_process(n, seed), max_churn=2, min_active=max(2, n // 4), seed=seed + 101
    )
    return ScheduleAdversary(TIntervalEnforcer(churned, 4))


def _build_churn_markov(n: int, seed: int) -> Adversary:
    churned = ChurnProcess(
        _edge_markov_process(n, seed), max_churn=2, min_active=max(2, n // 4), seed=seed + 101
    )
    return ScheduleAdversary(ConnectivityPatcher(churned))


def _build_rewiring_degree4(n: int, seed: int) -> Adversary:
    process = DegreeBoundedRewiringProcess(
        n, degree_bound=4, rewires_per_round=max(1, n // 16), seed=seed
    )
    return ScheduleAdversary(ConnectivityPatcher(process))


def _build_rewiring_t8(n: int, seed: int) -> Adversary:
    process = DegreeBoundedRewiringProcess(
        n, degree_bound=4, rewires_per_round=max(1, n // 32), seed=seed
    )
    return ScheduleAdversary(TIntervalEnforcer(process, 8))


# ----------------------------------------------------------------------
# fault-model builders (module-level: like `build`, they must pickle)
# ----------------------------------------------------------------------
#
# Byzantine entries place the compromised senders at the two highest uids:
# `standard_instance(n, k, ...)` with k <= n - 2 keeps them payload-free, so
# survivor completion stays reachable (a Byzantine node holding the *only*
# copy of a token can starve the network by construction — that regime is
# still measurable through surviving_completion_rate < 1).


def _crash_schedule(n: int, seed: int, exclude: tuple[int, ...] = ()) -> tuple:
    """A permanent-crash schedule replayed from lifeline-free churn."""
    churn = ChurnProcess(
        _edge_markov_process(n, seed + 7),
        max_churn=1,
        min_active=max(2, (3 * n) // 4),
        seed=seed + 211,
        record_activity=True,
        lifeline=False,
    )
    schedule = crash_schedule_from_churn(churn, rounds=2 * n)
    return tuple((uid, r) for uid, r in schedule if uid not in exclude)


def _loss20_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(loss=0.2)


def _loss_dup_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(loss=0.15, duplication=0.15)


def _crash_churn_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(crashes=_crash_schedule(n, seed))


def _byzantine_malformed_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(byzantine=(n - 2, n - 1), byzantine_mode="malformed")


def _byzantine_replay_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(byzantine=(n - 2, n - 1), byzantine_mode="replay")


def _hostile_mix_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(
        loss=0.1,
        duplication=0.05,
        crashes=_crash_schedule(n, seed, exclude=(n - 1,)),
        byzantine=(n - 1,),
        byzantine_mode="malformed",
    )


def _recovery_schedule(n: int, seed: int, exclude: tuple[int, ...] = ()) -> tuple:
    """A crash–recovery interval schedule replayed from recorded churn.

    Unlike :func:`_crash_schedule` the churn keeps its lifeline semantics —
    departed nodes can toggle back up — and the replay emits
    ``(uid, down, up)`` intervals: nodes rejoin with stale state mid-run.
    Runs still down at the window's end stay permanent ``(uid, down)``
    entries.
    """
    churn = ChurnProcess(
        _edge_markov_process(n, seed + 7),
        max_churn=2,
        min_active=max(2, (3 * n) // 4),
        seed=seed + 211,
        record_activity=True,
    )
    schedule = crash_schedule_from_churn(churn, rounds=2 * n, recoveries=True)
    return tuple(entry for entry in schedule if entry[0] not in exclude)


def _bridge_loss_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(strategy=BridgeLossStrategy(probability=0.5))


def _crash_recover_faults(n: int, seed: int) -> FaultModel:
    return FaultModel(crashes=_recovery_schedule(n, seed))


def _partition_heal_faults(n: int, seed: int) -> FaultModel:
    # Two healing partition windows sized to the network: an early split
    # while dissemination ramps up and a later one after partial progress.
    return FaultModel(
        partitions=PartitionModel(
            windows=((n // 2, n), (2 * n, 2 * n + max(1, n // 2))), groups=2
        )
    )


def _budgeted_mix_faults(n: int, seed: int) -> FaultModel:
    # Background stochastic loss, churn-replayed crash–recovery intervals,
    # and a run-wide budget of targeted spanning-link erasures.
    return FaultModel(
        loss=0.05,
        crashes=_recovery_schedule(n, seed, exclude=(0,)),
        strategy=BudgetedLossStrategy(budget=max(8, n // 2), per_round=2),
    )


def _collision_capture_faults(n: int, seed: int) -> FaultModel:
    # Every round is a collision round; capture keeps the lowest-uid sender
    # per crowded receiver (the classic radio capture effect).
    return FaultModel(collisions=CollisionModel(probability=1.0, capture=True))


def _quorum_fake3_faults(n: int, seed: int) -> FaultModel:
    # Three fake quorum members at the highest uids: `standard_instance`
    # with k <= n - 3 keeps them payload-free, so the honest quorum can
    # still complete; n >= 7 satisfies the n >= 2f+1 quorum bound.
    return FaultModel(quorum=QuorumModel(fake=(n - 3, n - 2, n - 1)))


def _frontier_mix_faults(n: int, seed: int) -> FaultModel:
    # Background loss plus a state-aware adversary erasing half of the
    # knowledge-frontier edges (informed -> less-informed) every round.
    return FaultModel(loss=0.05, strategy=FrontierLossStrategy(probability=0.5))


def _straggler_capture_faults(n: int, seed: int) -> FaultModel:
    # A state-aware isolator severing the least-informed node's edges,
    # stacked on capture-mode radio collisions.
    return FaultModel(
        collisions=CollisionModel(probability=0.5, capture=True),
        strategy=StragglerIsolationStrategy(probability=0.75),
    )


register_scenario(
    Scenario(
        name="edge_markov",
        description="evolving graph: per-edge birth/death chains at ~degree-4 density",
        build=_build_edge_markov,
        process="edge-markov",
        guarantees=("connected",),
    )
)
register_scenario(
    Scenario(
        name="edge_markov_t4",
        description="edge-Markov evolution repaired to 4-interval connectivity",
        build=_build_edge_markov_t4,
        process="edge-markov",
        guarantees=("connected", "4-interval-connected"),
    )
)
register_scenario(
    Scenario(
        name="edge_markov_stable4",
        description="edge-Markov evolution frozen into T=4 stability blocks",
        build=_build_edge_markov_stable4,
        process="edge-markov",
        guarantees=("connected", "4-stable"),
    )
)
register_scenario(
    Scenario(
        name="waypoint_radio",
        description="random-waypoint mobility, unit-disk radio at ~degree-8 range",
        build=_build_waypoint_radio,
        process="waypoint",
        guarantees=("connected",),
    )
)
register_scenario(
    Scenario(
        name="waypoint_churn_t4",
        description=(
            "mobile radio network with <=2 joins/leaves per round (down nodes keep "
            "one lifeline edge), 4-interval repaired"
        ),
        build=_build_waypoint_churn_t4,
        process="churn",
        guarantees=("connected", "4-interval-connected", "churn<=2/round raw"),
    )
)
register_scenario(
    Scenario(
        name="churn_markov",
        description=(
            "edge-Markov evolution under <=2 joins/leaves per round (down nodes keep "
            "one lifeline edge)"
        ),
        build=_build_churn_markov,
        process="churn",
        guarantees=("connected", "churn<=2/round raw"),
    )
)
register_scenario(
    Scenario(
        name="rewiring_degree4",
        description="degree-<=4 sparse graph, adversarially rewired every round",
        build=_build_rewiring_degree4,
        process="rewiring",
        guarantees=("connected", "degree<=4 raw"),
    )
)
register_scenario(
    Scenario(
        name="rewiring_t8",
        description="slow degree-bounded rewiring repaired to 8-interval connectivity",
        build=_build_rewiring_t8,
        process="rewiring",
        guarantees=("connected", "8-interval-connected", "degree<=4 raw"),
    )
)

# ----------------------------------------------------------------------
# hostile entries: benign topology dynamics + an orthogonal fault model.
# The topology keeps its connectivity repairs (the paper's model needs
# every round graph connected over all n nodes); crashes, loss and
# Byzantine substitution live in the delivery layer via `faults`.
# ----------------------------------------------------------------------

register_scenario(
    Scenario(
        name="lossy_edge_markov",
        description="edge-Markov evolution with 20% per-edge delivery erasure",
        build=_build_edge_markov,
        process="edge-markov",
        guarantees=("connected",),
        faults=_loss20_faults,
    )
)
register_scenario(
    Scenario(
        name="lossy_dup_waypoint",
        description="waypoint radio with 15% loss and 15% duplication per edge",
        build=_build_waypoint_radio,
        process="waypoint",
        guarantees=("connected",),
        faults=_loss_dup_faults,
    )
)
register_scenario(
    Scenario(
        name="crash_churn_markov",
        description=(
            "edge-Markov evolution where churned-out nodes truly crash "
            "(lifeline-free schedule, >=3n/4 survivors)"
        ),
        build=_build_edge_markov,
        process="churn",
        guarantees=("connected", "crashes permanent"),
        faults=_crash_churn_faults,
    )
)
register_scenario(
    Scenario(
        name="byzantine_edge_markov",
        description=(
            "edge-Markov evolution with 2 Byzantine coded senders injecting "
            "out-of-span (malformed) vectors"
        ),
        build=_build_edge_markov,
        process="edge-markov",
        guarantees=("connected",),
        faults=_byzantine_malformed_faults,
    )
)
register_scenario(
    Scenario(
        name="byzantine_replay_t4",
        description=(
            "4-interval-repaired edge-Markov evolution with 2 Byzantine senders "
            "replaying a fixed in-span vector"
        ),
        build=_build_edge_markov_t4,
        process="edge-markov",
        guarantees=("connected", "4-interval-connected"),
        faults=_byzantine_replay_faults,
    )
)
register_scenario(
    Scenario(
        name="hostile_mix",
        description=(
            "waypoint radio under 10% loss + 5% duplication + permanent crashes "
            "+ 1 malformed Byzantine sender"
        ),
        build=_build_waypoint_radio,
        process="waypoint",
        guarantees=("connected", "crashes permanent"),
        faults=_hostile_mix_faults,
    )
)
register_scenario(
    Scenario(
        name="bridge_loss_markov",
        description=(
            "edge-Markov evolution where an adaptive adversary erases each "
            "live cut edge with probability 0.5 every round"
        ),
        build=_build_edge_markov,
        process="edge-markov",
        guarantees=("connected", "adaptive bridge loss"),
        faults=_bridge_loss_faults,
    )
)
register_scenario(
    Scenario(
        name="crash_recover_churn",
        description=(
            "edge-Markov evolution with churn-replayed crash-recovery "
            "intervals: nodes rejoin mid-run with stale state"
        ),
        build=_build_edge_markov,
        process="churn",
        guarantees=("connected", "crashes recover"),
        faults=_crash_recover_faults,
    )
)
register_scenario(
    Scenario(
        name="partition_heal_waypoint",
        description=(
            "waypoint radio split into 2 uid-parity groups over two healing "
            "partition windows"
        ),
        build=_build_waypoint_radio,
        process="waypoint",
        guarantees=("connected", "partitions heal"),
        faults=_partition_heal_faults,
    )
)
register_scenario(
    Scenario(
        name="budgeted_adversary_mix",
        description=(
            "edge-Markov evolution under 5% loss + crash-recovery intervals "
            "+ a budgeted adversary erasing 2 spanning links per round"
        ),
        build=_build_edge_markov,
        process="edge-markov",
        guarantees=("connected", "crashes recover", "adaptive budgeted loss"),
        faults=_budgeted_mix_faults,
    )
)
register_scenario(
    Scenario(
        name="collision_waypoint",
        description=(
            "waypoint radio where every round collides: receivers hearing "
            ">=2 senders capture only the lowest uid"
        ),
        build=_build_waypoint_radio,
        process="waypoint",
        guarantees=("connected", "radio collisions"),
        faults=_collision_capture_faults,
    )
)
register_scenario(
    Scenario(
        name="quorum_fake3_markov",
        description=(
            "edge-Markov evolution with 3 fake quorum members (n >= 2f+1): "
            "completion and survivor metrics run over the honest quorum only"
        ),
        build=_build_edge_markov,
        process="edge-markov",
        guarantees=("connected", "honest quorum n>=2f+1"),
        faults=_quorum_fake3_faults,
    )
)
register_scenario(
    Scenario(
        name="frontier_adaptive_mix",
        description=(
            "edge-Markov evolution under 5% loss + a state-aware adversary "
            "erasing half the knowledge-frontier edges each round"
        ),
        build=_build_edge_markov,
        process="edge-markov",
        guarantees=("connected", "state-aware frontier loss"),
        faults=_frontier_mix_faults,
    )
)
register_scenario(
    Scenario(
        name="straggler_capture_radio",
        description=(
            "waypoint radio with capture-mode collision rounds (p=0.5) + a "
            "state-aware isolator severing the least-informed node's edges"
        ),
        build=_build_waypoint_radio,
        process="waypoint",
        guarantees=("connected", "radio collisions", "state-aware isolation"),
        faults=_straggler_capture_faults,
    )
)
