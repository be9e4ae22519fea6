"""The maximal independent set used for graph patching (Section 8.1).

The T-stable patch-sharing algorithm partitions the (temporarily static)
graph into patches around a maximal independent set of the ``D``-th power
graph.  An MIS of ``G^D`` is a ``(D+1, D)``-ruling set of ``G``.

:func:`luby_mis` is Luby's randomized permutation/priority algorithm [11]
(the paper simulates it over the dynamic-network broadcast primitive),
run phase by phase the way a distributed system would run it, so the
number of phases it takes is observable and can be charged ``D log n`` as
in the paper.  It reads a :class:`~repro.network.topology.Topology`, in
practice the power graph from :func:`repro.network.patches.power_graph`.

The paper's deterministic variants (Theorem 2.5) use the
Panconesi–Srinivasan deterministic MIS [13] instead.  No run here executes
a deterministic MIS, so none is provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology

__all__ = ["MisResult", "luby_mis"]


@dataclass(frozen=True)
class MisResult:
    """Outcome of an MIS computation.

    Attributes
    ----------
    members:
        The nodes selected into the maximal independent set.
    rounds:
        Number of synchronous phases Luby's algorithm used (each phase is
        ``O(D)`` rounds on the base graph).
    """

    members: frozenset
    rounds: int


def luby_mis(topology: Topology, rng: np.random.Generator) -> MisResult:
    """Luby's randomized MIS via random priorities.

    Each phase: every still-active node draws a random priority; a node joins
    the MIS if its priority is strictly larger than all still-active
    neighbours'; it and its neighbours then deactivate.  Terminates in
    O(log n) phases with high probability.

    In the dynamic-network simulation each phase is realised with ``O(D)``
    flooding rounds on the power graph (Section 8.1); the phase count
    returned here is what gets multiplied by that factor.

    The draws visit the active nodes in the iteration order of a Python
    ``set`` of ints built from ``0..n-1`` and shrunk by ``-=`` each phase.
    That order is ascending until a shrink rebuilds the set's hash table
    smaller than the largest remaining id; keeping it keeps seeded runs
    (and their pins) on the same rng stream.
    """
    neighbours = topology.neighbors_tuple
    active = set(range(topology.n))
    mis: set = set()
    rounds = 0
    # Isolated nodes join immediately (they have no neighbours to contend with).
    for node in list(active):
        if not neighbours(node):
            mis.add(node)
            active.discard(node)
    while active:
        rounds += 1
        priorities = {node: float(rng.random()) for node in active}
        joined = {
            node
            for node in active
            if all(priorities[node] > priorities[v] for v in neighbours(node) if v in active)
        }
        if not joined:
            # Ties with identical float priorities are essentially impossible,
            # but guard against an infinite loop by breaking ties by id.
            joined = {min(active)}
        mis |= joined
        deactivated = set(joined)
        for node in joined:
            deactivated.update(v for v in neighbours(node) if v in active)
        active -= deactivated
    return MisResult(members=frozenset(mis), rounds=rounds)
