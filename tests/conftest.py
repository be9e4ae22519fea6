"""Shared fixtures for the test suite."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.base import ProtocolConfig
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
