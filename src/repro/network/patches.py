"""Graph patching for T-stable networks (Section 8.1).

The patch-sharing algorithm partitions the (static for ``T`` rounds) graph
into connected *patches* of size ``Omega(D)`` and diameter ``O(D)``:

1. form the ``D``-th power ``G^D`` of the connectivity graph,
2. compute a maximal independent set ``S`` of ``G^D`` with Luby's
   randomized algorithm (the patch *leaders*),
3. assign every vertex to its closest leader (ties by smallest leader id),

which yields patches that are connected (via shortest-path trees), have
diameter at most ``2D`` and size at least ``D/2`` (Section 8.1 items 1-3;
the size bound degrades gracefully when fewer than ``D/2`` nodes exist).

Everything runs on :class:`~repro.network.topology.Topology`: the power
graph is ``D`` rounds of OR over packed reach rows along the topology's
cached CSR, Luby's MIS reads the power graph's rows, and the leader
assignment is a multi-source BFS over the topology's neighbour tuples.  The module exposes both the patch
decomposition itself and the per-patch shortest-path trees (rooted at the
leaders) that the share step's pipelined aggregation runs over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bits import set_bits, word_count
from .mis import luby_mis
from .topology import Topology

__all__ = [
    "Patch",
    "PatchDecomposition",
    "power_graph",
    "compute_patches",
]


@dataclass(frozen=True)
class Patch:
    """One patch of the decomposition.

    Attributes
    ----------
    leader:
        The MIS vertex this patch is built around.
    members:
        All vertices assigned to the leader (including the leader itself).
    parent:
        Shortest-path-tree parent of each member (leader maps to itself).
    depth:
        Tree depth of each member (leader has depth 0).
    """

    leader: int
    members: frozenset
    parent: dict
    depth: dict

    @property
    def size(self) -> int:
        """Number of vertices in the patch."""
        return len(self.members)

    @property
    def height(self) -> int:
        """Height of the patch's shortest-path tree."""
        return max(self.depth.values()) if self.depth else 0


@dataclass(frozen=True)
class PatchDecomposition:
    """A full patch decomposition of one static topology."""

    patches: tuple[Patch, ...]
    radius: int
    mis_rounds: int

    @property
    def leaders(self) -> frozenset:
        """The set of patch leaders (the MIS of the power graph)."""
        return frozenset(p.leader for p in self.patches)

    @property
    def min_patch_size(self) -> int:
        """Size of the smallest patch."""
        return min(p.size for p in self.patches)


def power_graph(topology: Topology, distance: int) -> Topology:
    """The ``distance``-th power of ``topology``: connect nodes within that distance.

    Packed ``distance``-hop reachability: starting from the identity, each
    round ORs every node's reach row with its neighbours' rows (one gather
    and one ``reduceat`` over the topology's CSR), so after round ``r`` row
    ``u`` holds the ball of radius ``r`` around ``u``.
    """
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    n = topology.n
    nodes = np.arange(n)
    identity = np.zeros((n, word_count(n)), dtype=np.uint64)
    set_bits(identity, (nodes,), nodes)
    indices, indptr = topology.csr_adjacency()
    # reduceat needs non-empty segments: only nodes with a neighbour grow.
    grows = np.flatnonzero(np.diff(indptr))
    reach = identity.copy()
    for _ in range(distance):
        reach[grows] |= np.bitwise_or.reduceat(reach[indices], indptr[grows], axis=0)
    return Topology.from_packed(n, reach & ~identity)


def compute_patches(
    topology: Topology,
    radius: int,
    rng: np.random.Generator,
) -> PatchDecomposition:
    """Partition ``topology`` into patches of radius ``radius`` (the paper's ``D``).

    Parameters
    ----------
    topology:
        The static topology for the current T-stable block.  Must be connected.
    radius:
        The target patch radius ``D``; the paper sets ``D = O(T / log n)``.
    rng:
        Randomness source for Luby's MIS.
    """
    if topology.n == 0:
        raise ValueError("cannot patch an empty graph")
    if not topology.is_connected():
        raise ValueError("patching requires a connected topology")
    radius = max(1, radius)

    powered = power_graph(topology, radius)
    mis_result = luby_mis(powered, rng)
    leaders = sorted(mis_result.members)

    # Multi-source BFS from all leaders simultaneously; each node is claimed
    # by the first leader to reach it (ties broken by smaller leader id
    # because we expand leaders in sorted order within each BFS layer, and
    # each node's neighbours in ascending order).
    assignment: dict = {leader: leader for leader in leaders}
    parent: dict = {leader: leader for leader in leaders}
    depth: dict = {leader: 0 for leader in leaders}
    frontier = list(leaders)
    while frontier:
        next_frontier: list = []
        for node in frontier:
            for neighbour in topology.neighbors_tuple(node):
                if neighbour not in assignment:
                    assignment[neighbour] = assignment[node]
                    parent[neighbour] = node
                    depth[neighbour] = depth[node] + 1
                    next_frontier.append(neighbour)
        frontier = next_frontier

    missing = set(topology.nodes) - set(assignment)
    if missing:
        # Cannot happen on a connected graph, but fail loudly rather than
        # silently produce an incomplete decomposition.
        raise RuntimeError(f"patching left nodes unassigned: {sorted(missing)[:5]}")

    patches = []
    for leader in leaders:
        members = frozenset(v for v, owner in assignment.items() if owner == leader)
        patches.append(
            Patch(
                leader=leader,
                members=members,
                parent={v: parent[v] for v in members},
                depth={v: depth[v] for v in members},
            )
        )
    return PatchDecomposition(
        patches=tuple(patches), radius=radius, mis_rounds=mis_result.rounds
    )
