"""The dynamic network model substrate (Kuhn–Lynch–Oshman style).

Mask-native round topologies (:class:`Topology` — the one type an
adversary returns each round — and its builders), adversaries (oblivious /
adaptive / omniscient, optionally T-stable), the packed-native dynamics
subsystem (edge-Markov / mobility / churn / rewiring schedule processes,
connectivity and T-interval transformers, ``ScheduleAdversary``),
stability checkers over ``Topology`` sequences, the composable
fault-injection layer (:mod:`repro.network.faults`: per-edge loss and
duplication, crashes with optional recovery, partitions, adaptive and
protocol-state-aware :class:`~repro.network.faults.FaultStrategy`
adversaries, Byzantine coded senders, radio-collision rounds, honest/fake
quorum membership), and the graph-patching machinery of Section 8.1 (power
graph, MIS and patch decomposition, all on :class:`Topology`).  The named
scenario catalog built on the dynamics layer lives in
:mod:`repro.scenarios`.
"""

from .adversary import (
    Adversary,
    BottleneckAdversary,
    ObliviousSequenceAdversary,
    OmniscientBottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    RandomTreeAdversary,
    RotatingStarAdversary,
    RoundState,
    ShiftedRingAdversary,
    StaticAdversary,
    TokenIsolationAdversary,
    TStableAdversary,
)
from .faults import (
    BoundFaults,
    BridgeLossStrategy,
    BudgetedLossStrategy,
    CollisionModel,
    FaultModel,
    FaultStrategy,
    FrontierLossStrategy,
    PartitionModel,
    QuorumModel,
    RoundFaultPlan,
    RoundFaultStats,
    SpanGuard,
    StragglerIsolationStrategy,
    crash_schedule_from_churn,
)
from .dynamics import (
    ChurnProcess,
    ConnectivityPatcher,
    DegreeBoundedRewiringProcess,
    DynamicsProcess,
    EdgeMarkovProcess,
    PrecomputedSchedule,
    RandomWaypointProcess,
    ScheduleAdversary,
    TIntervalEnforcer,
    spanning_structure,
)
from .mis import MisResult, luby_mis
from .topology import (
    Topology,
    as_topology,
    clique_pair_topology,
    complete_topology,
    path_topology,
    random_connected_topology,
    random_tree_topology,
    ring_topology,
    shifted_ring_topology,
    split_topology,
    star_topology,
)
from .patches import Patch, PatchDecomposition, compute_patches, power_graph
from .stability import (
    is_t_interval_connected,
    is_t_stable,
    max_interval_connectivity,
    max_stability,
    stable_intersection,
)

__all__ = [
    "Adversary",
    "BottleneckAdversary",
    "BoundFaults",
    "BridgeLossStrategy",
    "BudgetedLossStrategy",
    "ChurnProcess",
    "CollisionModel",
    "FaultModel",
    "FaultStrategy",
    "FrontierLossStrategy",
    "PartitionModel",
    "QuorumModel",
    "RoundFaultPlan",
    "RoundFaultStats",
    "SpanGuard",
    "StragglerIsolationStrategy",
    "crash_schedule_from_churn",
    "ConnectivityPatcher",
    "DegreeBoundedRewiringProcess",
    "DynamicsProcess",
    "EdgeMarkovProcess",
    "PrecomputedSchedule",
    "RandomWaypointProcess",
    "ScheduleAdversary",
    "TIntervalEnforcer",
    "spanning_structure",
    "Topology",
    "as_topology",
    "clique_pair_topology",
    "complete_topology",
    "path_topology",
    "random_connected_topology",
    "random_tree_topology",
    "ring_topology",
    "shifted_ring_topology",
    "split_topology",
    "star_topology",
    "MisResult",
    "ObliviousSequenceAdversary",
    "OmniscientBottleneckAdversary",
    "Patch",
    "PatchDecomposition",
    "PathShuffleAdversary",
    "RandomConnectedAdversary",
    "RandomTreeAdversary",
    "RotatingStarAdversary",
    "RoundState",
    "ShiftedRingAdversary",
    "StaticAdversary",
    "TStableAdversary",
    "TokenIsolationAdversary",
    "compute_patches",
    "is_t_interval_connected",
    "is_t_stable",
    "luby_mis",
    "max_interval_connectivity",
    "max_stability",
    "power_graph",
    "stable_intersection",
]
