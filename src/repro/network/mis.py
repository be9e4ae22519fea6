"""Maximal independent set algorithms used for graph patching (Section 8.1).

The T-stable patch-sharing algorithm partitions the (temporarily static)
graph into patches around a maximal independent set of the ``D``-th power
graph.  The paper uses Luby's randomized MIS [11] (simulated over the
dynamic-network broadcast primitive) for the randomized algorithms and the
Panconesi–Srinivasan deterministic MIS [13] for the deterministic variants.

We provide:

* :func:`luby_mis` — Luby's permutation/priority algorithm, implemented
  round-by-round the way a distributed system would run it, so the number of
  *rounds* it takes is observable and can be charged ``D log n`` as in the
  paper;
* :func:`greedy_mis` — a deterministic MIS by lowest-identifier greedy,
  substituted for the Panconesi–Srinivasan algorithm: only the MIS
  *output* affects dissemination correctness, and the deterministic
  running time is accounted symbolically in ``analysis.bounds``;
* :func:`is_maximal_independent_set` — verification helper used by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

__all__ = [
    "MisResult",
    "luby_mis",
    "greedy_mis",
    "is_maximal_independent_set",
]


@dataclass(frozen=True)
class MisResult:
    """Outcome of an MIS computation.

    Attributes
    ----------
    members:
        The nodes selected into the maximal independent set.
    rounds:
        Number of synchronous phases the distributed algorithm used.  For the
        greedy deterministic algorithm this counts sequential passes and is
        reported for bookkeeping only.
    """

    members: frozenset
    rounds: int


def is_maximal_independent_set(graph: nx.Graph, candidate: set | frozenset) -> bool:
    """Check independence and maximality of ``candidate`` in ``graph``."""
    candidate = set(candidate)
    for u in candidate:
        if u not in graph:
            return False
        for v in graph.neighbors(u):
            if v in candidate:
                return False
    for u in graph.nodes:
        if u in candidate:
            continue
        if not any(v in candidate for v in graph.neighbors(u)):
            return False
    return True


def luby_mis(graph: nx.Graph, rng: np.random.Generator) -> MisResult:
    """Luby's randomized MIS via random priorities.

    Each phase: every still-active node draws a random priority; a node joins
    the MIS if its priority is strictly larger than all still-active
    neighbours'; it and its neighbours then deactivate.  Terminates in
    O(log n) phases with high probability.

    In the dynamic-network simulation each phase is realised with ``O(D)``
    flooding rounds on the power graph (Section 8.1); the phase count
    returned here is what gets multiplied by that factor.
    """
    active = set(graph.nodes)
    mis: set = set()
    rounds = 0
    # Isolated nodes join immediately (they have no neighbours to contend with).
    for node in list(active):
        if graph.degree(node) == 0:
            mis.add(node)
            active.discard(node)
    while active:
        rounds += 1
        priorities = {node: float(rng.random()) for node in active}
        joined = set()
        for node in active:
            neighbour_priorities = [
                priorities[v] for v in graph.neighbors(node) if v in active
            ]
            if all(priorities[node] > p for p in neighbour_priorities):
                joined.add(node)
        if not joined:
            # Ties with identical float priorities are essentially impossible,
            # but guard against an infinite loop by breaking ties by id.
            best = min(active)
            joined = {best}
        mis |= joined
        deactivated = set(joined)
        for node in joined:
            deactivated |= {v for v in graph.neighbors(node) if v in active}
        active -= deactivated
    return MisResult(members=frozenset(mis), rounds=rounds)


def greedy_mis(graph: nx.Graph, key=None) -> MisResult:
    """Deterministic MIS by greedy selection in ``key`` order (default: node id).

    Stands in for the Panconesi–Srinivasan ``2^{O(sqrt(log n))}``-round
    deterministic distributed MIS: the *set* it outputs has the same
    guarantees (maximal, independent); the deterministic round complexity is
    charged symbolically by ``repro.analysis.bounds.deterministic_mis_rounds``.
    """
    ordering = sorted(graph.nodes, key=key)
    blocked: set = set()
    mis: set = set()
    for node in ordering:
        if node in blocked:
            continue
        mis.add(node)
        blocked.add(node)
        blocked |= set(graph.neighbors(node))
    return MisResult(members=frozenset(mis), rounds=len(graph.nodes))
