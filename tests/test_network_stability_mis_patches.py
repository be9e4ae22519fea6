"""Unit tests for stability measures, MIS algorithms and graph patching."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.network import (
    Topology,
    complete_topology,
    compute_patches,
    is_t_interval_connected,
    is_t_stable,
    luby_mis,
    max_interval_connectivity,
    max_stability,
    path_topology,
    power_graph,
    random_connected_topology,
    ring_topology,
    stable_intersection,
    star_topology,
)
from tests.conftest import nx_graph
from tests.oracles.mis import is_maximal_independent_set


class TestStabilityMeasures:
    def test_constant_sequence_is_stable_for_all_t(self):
        g = path_topology(6)
        seq = [g] * 8
        assert is_t_stable(seq, 1)
        assert is_t_stable(seq, 4)
        assert max_stability(seq) == 8

    def test_alternating_sequence_only_1_stable(self):
        seq = [path_topology(5), star_topology(5), path_topology(5), star_topology(5)]
        assert is_t_stable(seq, 1)
        assert not is_t_stable(seq, 2)
        assert max_stability(seq) == 1

    def test_block_stable_sequence(self):
        a, b = path_topology(5), star_topology(5)
        seq = [a, a, a, b, b, b]
        assert is_t_stable(seq, 3)
        assert not is_t_stable(seq, 2)  # blocks [a,a],[a,b] differ internally

    def test_invalid_stability_raises(self):
        with pytest.raises(ValueError):
            is_t_stable([path_topology(3)], 0)

    def test_stable_intersection(self):
        a = path_topology(4)  # 0-1-2-3
        b = ring_topology(4)  # cycle
        common = stable_intersection([a, b])
        assert set(map(frozenset, common.edges)) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }

    def test_stable_intersection_empty_input(self):
        with pytest.raises(ValueError):
            stable_intersection([])

    def test_interval_connectivity_static(self):
        seq = [ring_topology(6)] * 5
        assert is_t_interval_connected(seq, 5)
        assert max_interval_connectivity(seq) == 5

    def test_interval_connectivity_fails_without_common_subgraph(self):
        # Two edge-disjoint spanning trees: their intersection is disconnected.
        a = path_topology(4, order=[0, 1, 2, 3])
        b = path_topology(4, order=[1, 3, 0, 2])
        assert is_t_interval_connected([a], 1)
        assert not is_t_interval_connected([a, b], 2)

    def test_t_stable_blocks_are_interval_connected_within_a_block(self):
        a = random_connected_topology(10, np.random.default_rng(0))
        b = random_connected_topology(10, np.random.default_rng(1))
        seq = [a] * 4 + [b] * 4
        assert is_t_stable(seq, 4)
        # Within one aligned block the topology is literally constant, hence
        # trivially T-interval connected; across block boundaries it need not be.
        assert is_t_interval_connected(seq[:4], 4)
        assert is_t_interval_connected(seq[4:], 4)


class TestMis:
    def test_luby_produces_maximal_independent_set(self, rng):
        for seed in range(3):
            g = random_connected_topology(20, np.random.default_rng(seed))
            result = luby_mis(g, rng)
            assert is_maximal_independent_set(g, result.members)

    def test_luby_on_complete_graph_single_node(self, rng):
        g = complete_topology(7)
        result = luby_mis(g, rng)
        assert len(result.members) == 1

    def test_luby_on_empty_graph_all_nodes(self, rng):
        g = Topology.from_edges(5, [])
        result = luby_mis(g, rng)
        assert result.members == frozenset(range(5))

    def test_luby_round_count_logarithmic_ish(self, rng):
        g = random_connected_topology(60, np.random.default_rng(3))
        result = luby_mis(g, rng)
        assert result.rounds <= 30

    def test_luby_same_seed_same_result(self):
        g = random_connected_topology(15, np.random.default_rng(5))
        first = luby_mis(g, np.random.default_rng(9))
        assert luby_mis(g, np.random.default_rng(9)) == first
        assert is_maximal_independent_set(g, first.members)

    def test_luby_on_star_takes_centre_or_every_leaf(self):
        # The centre joins iff it draws the top priority.  Otherwise it drops
        # out in phase 1, and the leaves that lost to it join in phase 2.
        g = star_topology(6, center=0)
        outcomes = set()
        for seed in range(20):
            result = luby_mis(g, np.random.default_rng(seed))
            assert result.members in (frozenset({0}), frozenset(range(1, 6)))
            assert result.rounds in (1, 2)
            outcomes.add(result.members)
        assert len(outcomes) == 2

    def test_luby_isolated_nodes_join_without_a_phase(self, rng):
        g = Topology.from_edges(4, [(0, 1)])
        result = luby_mis(g, rng)
        assert {2, 3} <= result.members
        assert len(result.members & {0, 1}) == 1
        assert result.rounds == 1
        assert luby_mis(Topology.from_edges(3, []), rng).rounds == 0

    def test_is_maximal_independent_set_detects_violations(self):
        g = path_topology(4)
        assert not is_maximal_independent_set(g, {0, 1})     # not independent
        assert not is_maximal_independent_set(g, {0})        # not maximal
        assert is_maximal_independent_set(g, {0, 2})          # wait: 3 uncovered? 2-3 edge covers 3
        assert is_maximal_independent_set(g, {1, 3})


class TestPowerGraphAndPatches:
    def test_power_graph_distance_2(self):
        g = path_topology(5)
        p = power_graph(g, 2)
        assert p.masks[0] >> 2 & 1
        assert not p.masks[0] >> 3 & 1

    def test_power_graph_invalid_distance(self):
        with pytest.raises(ValueError):
            power_graph(path_topology(3), 0)

    def test_patches_cover_all_nodes_exactly_once(self, rng):
        g = random_connected_topology(30, np.random.default_rng(2))
        decomposition = compute_patches(g, radius=2, rng=rng)
        seen = []
        for patch in decomposition.patches:
            seen.extend(patch.members)
        assert sorted(seen) == list(range(30))

    def test_patch_leaders_form_independent_set_in_power_graph(self, rng):
        g = random_connected_topology(24, np.random.default_rng(4))
        radius = 2
        decomposition = compute_patches(g, radius=radius, rng=rng)
        powered = power_graph(g, radius)
        leaders = decomposition.leaders
        for u in leaders:
            for v in leaders:
                if u != v:
                    assert not powered.masks[u] >> v & 1

    def test_patch_diameter_bound(self, rng):
        g = random_connected_topology(30, np.random.default_rng(6))
        radius = 3
        decomposition = compute_patches(g, radius=radius, rng=rng)
        for patch in decomposition.patches:
            assert patch.height <= radius  # tree depth <= D (Section 8.1 item 2)

    def test_patches_are_connected_subgraphs(self, rng):
        g = random_connected_topology(30, np.random.default_rng(7))
        decomposition = compute_patches(g, radius=2, rng=rng)
        for patch in decomposition.patches:
            sub = nx_graph(g).subgraph(patch.members)
            assert nx.is_connected(sub)

    def test_patch_tree_parents_are_edges(self, rng):
        g = random_connected_topology(20, np.random.default_rng(8))
        decomposition = compute_patches(g, radius=2, rng=rng)
        for patch in decomposition.patches:
            for node, parent in patch.parent.items():
                if node != patch.leader:
                    assert g.masks[node] >> parent & 1

    def test_patch_of_and_membership(self, rng):
        g = random_connected_topology(15, np.random.default_rng(10))
        decomposition = compute_patches(g, radius=2, rng=rng)
        owner = {}
        for patch in decomposition.patches:
            assert patch.leader in patch.members
            assert patch.parent[patch.leader] == patch.leader
            for node in patch.members:
                assert node not in owner  # every node lies in exactly one patch
                owner[node] = patch.leader
        assert sorted(owner) == list(range(15))
        assert set(owner.values()) == decomposition.leaders

    def test_same_seed_same_decomposition(self):
        g = random_connected_topology(20, np.random.default_rng(11))
        first = compute_patches(g, radius=2, rng=np.random.default_rng(3))
        assert compute_patches(g, radius=2, rng=np.random.default_rng(3)) == first
        seen = sorted(v for p in first.patches for v in p.members)
        assert seen == list(range(20))

    def test_randomized_patching_requires_rng(self):
        g = path_topology(6)
        with pytest.raises(TypeError, match="rng"):
            compute_patches(g, radius=1)

    def test_patching_rejects_disconnected(self, rng):
        g = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            compute_patches(g, radius=1, rng=rng)

    def test_min_patch_size_reasonable_on_path(self, rng):
        # On a long path with radius D, patches have at least ~D/2 nodes
        # (Section 8.1 item 3) except possibly tiny boundary effects.
        g = path_topology(40)
        radius = 4
        decomposition = compute_patches(g, radius=radius, rng=rng)
        assert decomposition.min_patch_size >= radius // 2
