"""Differential tests: Section 8.1 patching on ``Topology`` vs networkx.

The package computes the power graph, Luby's MIS and the patch
decomposition on packed :class:`~repro.network.Topology` rows.  The
reference is the networkx implementation in ``tests/oracles/nx_patches.py``
plus networkx's own ``power``, ``is_dominating_set`` and subgraph edge
counts.  Every field has to agree, and so does the rng state afterwards:
the packed Luby MIS must draw exactly the stream the networkx one drew.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    compute_patches,
    luby_mis,
    power_graph,
    random_connected_topology,
)
from tests.conftest import nx_graph
from tests.oracles import nx_patches
from tests.oracles.mis import is_maximal_independent_set


def _edge_set(graph) -> set[frozenset]:
    return {frozenset(edge) for edge in graph.edges}


@st.composite
def _topologies(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**16))
    extra = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3]))
    return random_connected_topology(n, np.random.default_rng(seed), extra_edge_prob=extra)


class TestPowerGraph:
    @settings(deadline=None, max_examples=40)
    @given(topology=_topologies(max_n=100), distance=st.integers(1, 5))
    def test_matches_networkx_power(self, topology, distance):
        graph = nx_graph(topology)
        powered = power_graph(topology, distance)
        assert powered.n == topology.n
        assert _edge_set(powered) == _edge_set(nx.power(graph, distance))
        assert _edge_set(powered) == _edge_set(nx_patches.power_graph(graph, distance))


class TestMis:
    @settings(deadline=None, max_examples=150)
    @given(topology=_topologies(), distance=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_luby_matches_oracle_draw_for_draw(self, topology, distance, seed):
        powered = power_graph(topology, distance)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = luby_mis(powered, rng)
        expected = nx_patches.luby_mis(nx_graph(powered), oracle_rng)
        assert result == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert is_maximal_independent_set(powered, result.members)

    @settings(deadline=None, max_examples=80)
    @given(topology=_topologies(), distance=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_luby_on_power_graph_is_a_ruling_set(self, topology, distance, seed):
        # An MIS of G^D is a (D+1, D)-ruling set of G: members lie more than
        # D hops apart, and every node lies within D hops of a member.
        members = luby_mis(power_graph(topology, distance), np.random.default_rng(seed)).members
        hops = dict(nx.all_pairs_shortest_path_length(nx_graph(topology)))
        for u in members:
            assert all(hops[u][v] > distance for v in members if v != u)
        assert all(min(hops[v][u] for u in members) <= distance for v in range(topology.n))

    @settings(deadline=None, max_examples=150)
    @given(topology=_topologies(max_n=20), data=st.data())
    def test_checker_matches_networkx(self, topology, data):
        candidate = data.draw(st.sets(st.integers(0, topology.n - 1)))
        graph = nx_graph(topology)
        expected = (
            graph.subgraph(candidate).number_of_edges() == 0
            and nx.is_dominating_set(graph, candidate)
        )
        assert is_maximal_independent_set(topology, candidate) == expected


class TestComputePatches:
    @settings(deadline=None, max_examples=150)
    @given(
        topology=_topologies(),
        radius=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_matches_oracle_field_by_field(self, topology, radius, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = compute_patches(topology, radius, rng=rng)
        expected = nx_patches.compute_patches(nx_graph(topology), radius, rng=oracle_rng)
        assert result.radius == expected.radius
        assert result.mis_rounds == expected.mis_rounds
        assert result.leaders == expected.leaders
        assert len(result.patches) == len(expected.patches)
        for patch, oracle_patch in zip(result.patches, expected.patches):
            assert patch.leader == oracle_patch.leader
            assert patch.members == oracle_patch.members
            assert patch.parent == oracle_patch.parent
            assert patch.depth == oracle_patch.depth
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("n", [65, 130])
    def test_multi_word_rows(self, n):
        topology = random_connected_topology(n, np.random.default_rng(n), extra_edge_prob=0.02)
        rng, oracle_rng = np.random.default_rng(1), np.random.default_rng(1)
        result = compute_patches(topology, 3, rng=rng)
        expected = nx_patches.compute_patches(nx_graph(topology), 3, rng=oracle_rng)
        assert result == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
