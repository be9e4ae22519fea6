"""repro — reproduction of Haeupler & Karger (PODC 2011).

"Faster Information Dissemination in Dynamic Networks via Network Coding."

The package is organised as:

* :mod:`repro.gf` — finite-field linear algebra substrate;
* :mod:`repro.network` — the dynamic network model (topologies, adversaries,
  stability, patching);
* :mod:`repro.tokens` — tokens, placements, message envelopes with bit-level
  size accounting;
* :mod:`repro.coding` — random linear network coding and its derandomization;
* :mod:`repro.algorithms` — every dissemination protocol in the paper plus
  the token-forwarding baselines;
* :mod:`repro.simulation` — the synchronous round executor and experiment
  harness;
* :mod:`repro.analysis` — closed-form predicted round complexities for every
  theorem, used by the benchmarks.

Quickstart::

    from repro import (
        ProtocolConfig, MessageBudget, IndexedBroadcastNode,
        RandomConnectedAdversary, one_token_per_node, run_dissemination,
    )
    import numpy as np

    n = 32
    config = ProtocolConfig(n=n, k=n, token_bits=8, budget=MessageBudget(b=n + 16))
    placement = one_token_per_node(n, 8, np.random.default_rng(0))
    result = run_dissemination(
        IndexedBroadcastNode, config, placement, RandomConnectedAdversary(seed=1)
    )
    print(result.rounds, result.correct)
"""

from .algorithms import (
    CentralizedCodedNode,
    CountingOutcome,
    DeterministicIndexedBroadcastNode,
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
    PipelinedTokenForwardingNode,
    PriorityForwardNode,
    ProtocolConfig,
    ProtocolNode,
    RandomForwardNode,
    TokenForwardingNode,
    TStablePatchNode,
    count_nodes_via_doubling,
    deterministic_broadcast_config,
    make_tstable_factory,
)
from .coding import DeterministicSchedule, Generation, GenerationState, Subspace
from .gf import GF, GF2, get_field
from .network import (
    Adversary,
    BottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    RandomTreeAdversary,
    RotatingStarAdversary,
    StaticAdversary,
    TokenIsolationAdversary,
    TStableAdversary,
)
from .simulation import (
    Measurement,
    RunMetrics,
    RunResult,
    fit_power_law,
    format_table,
    measure,
    run_dissemination,
    standard_instance,
)
from .tokens import (
    MessageBudget,
    Token,
    TokenId,
    TokenPlacement,
    make_tokens,
    one_token_per_node,
    place_tokens,
)

__version__ = "1.1.0"

__all__ = [
    "Adversary",
    "BottleneckAdversary",
    "CentralizedCodedNode",
    "CountingOutcome",
    "DeterministicIndexedBroadcastNode",
    "DeterministicSchedule",
    "GF",
    "GF2",
    "Generation",
    "GenerationState",
    "GreedyForwardNode",
    "IndexedBroadcastNode",
    "Measurement",
    "MessageBudget",
    "NaiveCodedNode",
    "PathShuffleAdversary",
    "PipelinedTokenForwardingNode",
    "PriorityForwardNode",
    "ProtocolConfig",
    "ProtocolNode",
    "RandomConnectedAdversary",
    "RandomForwardNode",
    "RandomTreeAdversary",
    "RotatingStarAdversary",
    "RunMetrics",
    "RunResult",
    "StaticAdversary",
    "Subspace",
    "TStableAdversary",
    "TStablePatchNode",
    "Token",
    "TokenForwardingNode",
    "TokenId",
    "TokenIsolationAdversary",
    "TokenPlacement",
    "count_nodes_via_doubling",
    "deterministic_broadcast_config",
    "fit_power_law",
    "format_table",
    "get_field",
    "make_tokens",
    "make_tstable_factory",
    "measure",
    "one_token_per_node",
    "place_tokens",
    "run_dissemination",
    "standard_instance",
    "__version__",
]
