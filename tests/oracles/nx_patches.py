"""The networkx implementation of Section 8.1 patching, kept as an oracle.

This is the power graph, Luby MIS and patch decomposition that
``repro.network`` ran on ``networkx.Graph`` objects before patching moved
onto :class:`~repro.network.Topology`.  ``tests/test_patches_oracle.py``
checks the packed versions against it field by field, including the state
of the rng afterwards.  Only the result containers are shared.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.network import MisResult, Patch, PatchDecomposition


def luby_mis(graph: nx.Graph, rng: np.random.Generator) -> MisResult:
    """Luby's randomized MIS via random priorities, one draw per active node."""
    active = set(graph.nodes)
    mis: set = set()
    rounds = 0
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
            best = min(active)
            joined = {best}
        mis |= joined
        deactivated = set(joined)
        for node in joined:
            deactivated |= {v for v in graph.neighbors(node) if v in active}
        active -= deactivated
    return MisResult(members=frozenset(mis), rounds=rounds)


def power_graph(graph: nx.Graph, distance: int) -> nx.Graph:
    """The ``distance``-th power of ``graph``: connect nodes within that distance."""
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    powered = nx.Graph()
    powered.add_nodes_from(graph.nodes)
    lengths = dict(nx.all_pairs_shortest_path_length(graph, cutoff=distance))
    for u, reachable in lengths.items():
        for v, dist in reachable.items():
            if u != v and dist <= distance:
                powered.add_edge(u, v)
    return powered


def compute_patches(
    graph: nx.Graph,
    radius: int,
    rng: np.random.Generator,
) -> PatchDecomposition:
    """Partition ``graph`` into patches of radius ``radius`` (the paper's ``D``)."""
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot patch an empty graph")
    if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
        raise ValueError("patching requires a connected topology")
    radius = max(1, radius)

    powered = power_graph(graph, radius)
    mis_result = luby_mis(powered, rng)
    leaders = sorted(mis_result.members)

    assignment: dict = {leader: leader for leader in leaders}
    parent: dict = {leader: leader for leader in leaders}
    depth: dict = {leader: 0 for leader in leaders}
    frontier = list(leaders)
    while frontier:
        next_frontier: list = []
        for node in frontier:
            for neighbour in sorted(graph.neighbors(node)):
                if neighbour not in assignment:
                    assignment[neighbour] = assignment[node]
                    parent[neighbour] = node
                    depth[neighbour] = depth[node] + 1
                    next_frontier.append(neighbour)
        frontier = next_frontier

    missing = set(graph.nodes) - set(assignment)
    if missing:
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
