"""Stability measures for dynamic graph sequences (packed-native).

The paper works with two related notions:

* **T-stability** (the paper's own, stronger requirement, Section 8): the
  entire topology is unchanged within every block of ``T`` consecutive
  rounds.
* **T-interval connectivity** (Kuhn et al.): for every window of ``T``
  consecutive rounds there exists a connected spanning subgraph whose edges
  are present in *all* rounds of the window.

This module provides checkers for both, plus measurement helpers reporting
the largest ``T`` for which a recorded topology sequence satisfies each
property.  They confirm that :class:`~repro.network.adversary.TStableAdversary`
really produces T-stable sequences and that the
:class:`~repro.network.dynamics.TIntervalEnforcer` really produces
T-interval-connected schedules.

Representation: every checker takes a sequence of
:class:`~repro.network.topology.Topology` objects, the type adversaries
return each round (each input is checked through
:func:`~repro.network.topology.as_topology`), and works on the stacked
``(rounds, n, ceil(n/64))`` packed ``uint64`` adjacency matrices (the
:mod:`repro.bits` layout) — block equality is one array comparison, a
window intersection is one ``np.bitwise_and.reduce``, and connectivity is
:meth:`Topology.is_connected`, the package's one mask BFS — instead of
materialising a frozenset of edge pairs per round.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .topology import Topology, as_topology

__all__ = [
    "is_t_stable",
    "is_t_interval_connected",
    "max_stability",
    "max_interval_connectivity",
    "stable_intersection",
]


def _packed_stack(topologies: Sequence[Topology]) -> tuple[int, np.ndarray]:
    """Stack a sequence into one ``(rounds, n, words)`` packed uint64 array."""
    checked = [as_topology(graph) for graph in topologies]
    n = checked[0].n
    for topology in checked[1:]:
        if topology.n != n:
            raise ValueError(
                f"mixed node counts in topology sequence: {topology.n} != {n}"
            )
    return n, np.stack([topology.packed_adjacency() for topology in checked])


def is_t_stable(topologies: Sequence[Topology], stability: int) -> bool:
    """True iff the sequence is T-stable for ``T = stability``.

    The blocks are aligned at round 0, matching how the simulator applies
    :class:`TStableAdversary`: rounds ``[iT, (i+1)T)`` share one topology.
    """
    if stability < 1:
        raise ValueError(f"stability must be >= 1, got {stability}")
    if not topologies:
        return True
    _, stack = _packed_stack(topologies)
    return _stack_is_t_stable(stack, stability)


def _stack_is_t_stable(stack: np.ndarray, stability: int) -> bool:
    for block_start in range(0, stack.shape[0], stability):
        block = stack[block_start : block_start + stability]
        if (block != block[0]).any():
            return False
    return True


def stable_intersection(topologies: Sequence[Topology]) -> Topology:
    """The graph of edges present in *every* topology of the sequence.

    Returns a mask-native :class:`~repro.network.topology.Topology` (one
    ``np.bitwise_and.reduce`` over the packed stack — the n-ary twin of
    :meth:`Topology.intersection`).  The result is frequently disconnected
    — that is the quantity T-interval connectivity asks about — so probe it
    with :meth:`Topology.is_connected`, not ``validate``.
    """
    if not topologies:
        raise ValueError("need at least one topology")
    n, stack = _packed_stack(topologies)
    return Topology.from_packed(n, np.bitwise_and.reduce(stack, axis=0))


def is_t_interval_connected(topologies: Sequence[Topology], interval: int) -> bool:
    """True iff every window of ``interval`` rounds has a common connected spanning subgraph."""
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    if not topologies:
        return True
    n, stack = _packed_stack(topologies)
    return _stack_is_interval_connected(stack, n, interval)


def _stack_is_interval_connected(stack: np.ndarray, n: int, interval: int) -> bool:
    if n <= 1:
        return True
    for start in range(0, stack.shape[0] - interval + 1):
        # repro: allow[REP401] loop is per sliding window; the reduce is one whole-matrix op
        window = np.bitwise_and.reduce(stack[start : start + interval], axis=0)
        if not Topology.from_packed(n, window).is_connected():
            return False
    return True


def max_stability(topologies: Sequence[Topology]) -> int:
    """Largest ``T`` such that the sequence is T-stable (aligned blocks)."""
    if not topologies:
        return 0
    _, stack = _packed_stack(topologies)
    best = 1
    for candidate in range(2, stack.shape[0] + 1):
        if _stack_is_t_stable(stack, candidate):
            best = candidate
    return best


def max_interval_connectivity(topologies: Sequence[Topology]) -> int:
    """Largest ``T`` such that the sequence is T-interval connected."""
    if not topologies:
        return 0
    n, stack = _packed_stack(topologies)
    best = 0
    for candidate in range(1, stack.shape[0] + 1):
        if _stack_is_interval_connected(stack, n, candidate):
            best = candidate
        else:
            break
    return best
