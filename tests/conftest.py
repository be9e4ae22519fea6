"""Shared fixtures for the test suite."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.base import ProtocolConfig
from repro.network import (
    BottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    RandomTreeAdversary,
    RotatingStarAdversary,
    RoundState,
    ShiftedRingAdversary,
    StaticAdversary,
    complete_topology,
    path_topology,
    ring_topology,
    star_topology,
)
from repro.tokens.message import MessageBudget
from repro.tokens.token import one_token_per_node


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> ProtocolConfig:
    """A small canonical configuration: n = k = 12, d = 8, b = n + 16."""
    n = 12
    return ProtocolConfig(n=n, k=n, token_bits=8, budget=MessageBudget(b=n + 16))


@pytest.fixture
def small_placement(rng):
    """One 8-bit token per node for the small configuration."""
    return one_token_per_node(12, 8, rng)


def make_config(n: int, k: int | None = None, d: int = 8, b: int | None = None, **kwargs) -> ProtocolConfig:
    """Helper used across tests to build configurations tersely."""
    if k is None:
        k = n
    if b is None:
        b = max(d, n + 16)
    return ProtocolConfig(n=n, k=k, token_bits=d, budget=MessageBudget(b=b), **kwargs)


def nx_graph(topology) -> nx.Graph:
    """The topology as a ``networkx.Graph`` on ``0..n-1``, for networkx oracles."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    graph.add_edges_from(topology.edges)
    return graph


class _FixedColumns:
    """A :class:`RoundState` source with fixed columns (see :func:`fixed_state`)."""

    def __init__(self, counts, ranks, holders):
        self.counts, self.ranks, self.holders = counts, ranks, holders

    def known_counts(self):
        return self.counts

    def coded_ranks(self):
        return self.ranks

    def knows(self, token_id):
        column = np.zeros(len(self.counts), dtype=bool)
        column[list(self.holders.get(token_id, ()))] = True
        return column


def fixed_state(counts, ranks=None, holders=None) -> RoundState:
    """A round state with fixed columns, for adversary and strategy tests.

    ``counts`` are the per-node known-token counts, ``ranks`` the coded
    ranks (zeros when omitted) and ``holders`` maps a token id to the uids
    that know it.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ranks = np.zeros_like(counts) if ranks is None else np.asarray(ranks, dtype=np.int64)
    return RoundState(_FixedColumns(counts, ranks, holders or {}))


#: The ten named adversary constructions, each built from a seed.
NAMED_ADVERSARIES = {
    "bottleneck": lambda seed: BottleneckAdversary(),
    "path_shuffle": lambda seed: PathShuffleAdversary(seed=seed),
    "random_connected": lambda seed: RandomConnectedAdversary(seed=seed),
    "random_tree": lambda seed: RandomTreeAdversary(seed=seed),
    "rotating_star": lambda seed: RotatingStarAdversary(),
    "shifted_ring": lambda seed: ShiftedRingAdversary(),
    "static_complete": lambda seed: StaticAdversary(complete_topology),
    "static_path": lambda seed: StaticAdversary(path_topology),
    "static_ring": lambda seed: StaticAdversary(ring_topology),
    "static_star": lambda seed: StaticAdversary(star_topology),
}


class RecordingAdversary:
    """Wraps an adversary and keeps every topology it chooses.

    ``reset()`` (called by ``run_dissemination`` before round 0) rewinds
    the inner adversary and starts a new record, so a reused wrapper holds
    the last run's topologies.
    """

    def __init__(self, inner):
        self.inner = inner
        self.topologies: list = []

    @property
    def sees_messages(self) -> bool:
        return self.inner.sees_messages

    def reset(self) -> None:
        self.inner.reset()
        self.topologies = []

    def choose_topology(self, round_index, n, state, messages=None):
        topology = self.inner.choose_topology(round_index, n, state, messages)
        self.topologies.append(topology)
        return topology


def bind_every_sender(plan, indices, indptr, state=None):
    """``plan.bind_edges`` with every node composing, receivers read off ``indptr``."""
    n = indptr.size - 1
    return plan.bind_edges(
        indices,
        indptr,
        active=np.ones(n, dtype=bool),
        receivers=np.repeat(np.arange(n), np.diff(indptr)),
        state=state,
    )
