"""Unit tests for the mask-native :mod:`repro.network.topology` layer."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.network import graphs
from repro.network.topology import (
    Topology,
    as_topology,
    clique_pair_topology,
    complete_topology,
    path_topology,
    random_connected_topology,
    random_tree_topology,
    ring_topology,
    shifted_ring_topology,
    split_topology,
    star_topology,
)


def _edge_set(graph) -> set[frozenset]:
    return {frozenset(edge) for edge in graph.edges}


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_from_nx_to_nx_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        graph = graphs.random_connected_graph(17, rng, extra_edge_prob=0.2)
        topology = Topology.from_nx(graph)
        back = topology.to_nx()
        assert set(back.nodes) == set(graph.nodes)
        assert _edge_set(back) == _edge_set(graph)

    def test_to_nx_from_nx_round_trip(self):
        topology = split_topology(11, informed=range(5), bridge_pairs=2)
        again = Topology.from_nx(topology.to_nx())
        assert again == topology
        assert hash(again) == hash(topology)

    def test_from_nx_numpy_labels_above_64_nodes(self):
        # Regression: numpy-int node labels must not wrap the row shifts at
        # 64 bits (mask rows are arbitrary-precision Python ints).
        n = 80
        graph = nx.Graph()
        graph.add_nodes_from(np.arange(n))
        for u in np.arange(n - 1):
            graph.add_edge(u, u + np.int64(1))
        topology = Topology.from_nx(graph)
        assert all(isinstance(mask, int) for mask in topology.masks)
        assert topology.is_connected()
        assert _edge_set(topology.to_nx()) == _edge_set(graph)

    def test_from_nx_rejects_wrong_node_labels(self):
        graph = nx.path_graph(4)
        graph = nx.relabel_nodes(graph, {3: 7})
        with pytest.raises(ValueError, match="node set"):
            Topology.from_nx(graph)

    def test_read_surface_matches_nx(self):
        topology = clique_pair_topology(9, range(4), range(4, 9), [(0, 4)])
        graph = topology.to_nx()
        assert topology.number_of_nodes() == graph.number_of_nodes()
        assert topology.number_of_edges() == graph.number_of_edges()
        for u in topology.nodes:
            assert sorted(topology.neighbors(u)) == sorted(graph.neighbors(u))
            assert topology.degree_of(u) == graph.degree(u)
        assert topology.has_edge(0, 4) and not topology.has_edge(0, 5)


class TestConnectivity:
    @pytest.mark.parametrize("seed", range(20))
    def test_mask_bfs_matches_nx_is_connected(self, seed):
        # Random graphs with no connectivity guarantee: p below/around the
        # threshold produces a healthy mix of connected and disconnected.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        p = float(rng.uniform(0.02, 0.25))
        graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        topology = Topology.from_nx(graph)
        assert topology.is_connected() == nx.is_connected(graph)

    def test_trivial_sizes(self):
        assert Topology(0, []).is_connected()
        assert Topology(1, [0]).is_connected()
        assert not Topology(2, [0, 0]).is_connected()

    def test_validate_accepts_legal_topology(self):
        ring_topology(8).validate(8)

    def test_validate_rejects_wrong_n(self):
        with pytest.raises(ValueError, match="node set"):
            ring_topology(8).validate(9)

    def test_validate_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(3, [0b010 | 0b001, 0b101, 0b010]).validate()

    def test_validate_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Topology(3, [0b010, 0b101, 0b000]).validate()

    def test_validate_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError, match="outside"):
            Topology(2, [0b110, 0b001]).validate()

    def test_validate_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            Topology(4, [0b0010, 0b0001, 0b1000, 0b0100]).validate()


class TestAdapter:
    def test_topology_passes_through_by_identity(self):
        topology = complete_topology(5)
        assert as_topology(topology) is topology
        assert as_topology(topology, 5) is topology

    def test_nx_graph_converted(self):
        graph = graphs.ring_graph(6)
        topology = as_topology(graph, 6)
        assert isinstance(topology, Topology)
        assert _edge_set(topology) == _edge_set(graph)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="expected Topology"):
            as_topology([(0, 1)])

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError, match="node set"):
            as_topology(complete_topology(5), 6)


class TestBuilderTwins:
    """The mask builders are edge-identical to the networkx generators,
    including RNG draw sequences — what lets adversaries switch representation
    without changing which topology they play."""

    def test_path_twin(self):
        order = [3, 0, 2, 4, 1]
        assert _edge_set(path_topology(5, order)) == _edge_set(graphs.path_graph(5, order))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_ring_twin(self, n):
        assert _edge_set(ring_topology(n)) == _edge_set(graphs.ring_graph(n))

    @pytest.mark.parametrize("center", [0, 3, 6])
    def test_star_twin(self, center):
        assert _edge_set(star_topology(7, center)) == _edge_set(graphs.star_graph(7, center))

    def test_complete_twin(self):
        assert _edge_set(complete_topology(6)) == _edge_set(graphs.complete_graph(6))

    def test_split_twin(self):
        for bridge_pairs in (1, 3):
            mask = split_topology(10, range(4), bridge_pairs=bridge_pairs)
            legacy = graphs.split_graph(10, range(4), bridge_pairs=bridge_pairs)
            assert _edge_set(mask) == _edge_set(legacy)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tree_twin_same_rng_sequence(self, seed):
        mask = random_tree_topology(12, np.random.default_rng(seed))
        legacy = graphs.random_tree(12, np.random.default_rng(seed))
        assert _edge_set(mask) == _edge_set(legacy)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_connected_twin_same_rng_sequence(self, seed):
        mask = random_connected_topology(14, np.random.default_rng(seed), extra_edge_prob=0.15)
        legacy = graphs.random_connected_graph(
            14, np.random.default_rng(seed), extra_edge_prob=0.15
        )
        assert _edge_set(mask) == _edge_set(legacy)

    @pytest.mark.parametrize("round_index", [0, 1, 5, 17])
    def test_shifted_ring_twin(self, round_index):
        mask = shifted_ring_topology(9, round_index)
        legacy = graphs.shifted_ring(9, round_index)
        assert _edge_set(mask) == _edge_set(legacy)


class TestStructuralIdentity:
    def test_equal_masks_equal_objects(self):
        assert ring_topology(7) == ring_topology(7)
        assert hash(ring_topology(7)) == hash(ring_topology(7))

    def test_different_edges_differ(self):
        assert ring_topology(7) != path_topology(7)

    def test_usable_as_dict_key(self):
        cache = {ring_topology(7): "ring", path_topology(7): "path"}
        assert cache[ring_topology(7)] == "ring"


class TestPackedSetAlgebra:
    @pytest.mark.parametrize("n", [7, 70])
    def test_union_matches_nx(self, n):
        a = random_connected_topology(n, np.random.default_rng(0))
        b = random_connected_topology(n, np.random.default_rng(1))
        expected = _edge_set(a) | _edge_set(b)
        union = a.union(b)
        assert union.n == n
        assert _edge_set(union) == expected

    @pytest.mark.parametrize("n", [7, 70])
    def test_intersection_matches_nx(self, n):
        a = random_connected_topology(n, np.random.default_rng(0), extra_edge_prob=0.3)
        b = random_connected_topology(n, np.random.default_rng(1), extra_edge_prob=0.3)
        expected = _edge_set(a) & _edge_set(b)
        intersection = a.intersection(b)
        assert intersection.n == n
        assert _edge_set(intersection) == expected

    def test_union_of_validated_operands_is_pre_validated(self):
        union = ring_topology(9).union(star_topology(9))
        union.validate(9)  # must not raise, and must be free (flag test)
        assert _edge_set(union) == _edge_set(ring_topology(9)) | _edge_set(star_topology(9))

    def test_intersection_can_be_probed_when_disconnected(self):
        a = path_topology(4, order=[0, 1, 2, 3])
        b = path_topology(4, order=[1, 3, 0, 2])
        common = a.intersection(b)
        assert not common.is_connected()
        with pytest.raises(ValueError):
            common.validate(4)

    def test_mismatched_node_counts_rejected(self):
        with pytest.raises(ValueError):
            ring_topology(5).union(ring_topology(6))
        with pytest.raises(ValueError):
            ring_topology(5).intersection(ring_topology(6))

    @pytest.mark.parametrize("n", [1, 7, 70])
    def test_degrees_matches_nx(self, n):
        topology = random_connected_topology(n, np.random.default_rng(3), extra_edge_prob=0.2)
        degrees = topology.degrees()
        assert degrees.shape == (n,)
        assert degrees.dtype == np.int64
        expected = dict(topology.to_nx().degree())
        assert [expected[u] for u in range(n)] == degrees.tolist()
        assert [topology.degree_of(u) for u in range(n)] == degrees.tolist()


class TestCsrAdjacency:
    @staticmethod
    def _batch(n: int, rounds: int, seed: int) -> np.ndarray:
        return np.stack(
            [
                random_connected_topology(n, np.random.default_rng(seed + r), 0.2)
                .packed_adjacency()
                for r in range(rounds)
            ]
        )

    @pytest.mark.parametrize("n", [1, 2, 24, 64, 65, 130])
    def test_batch_builder_matches_per_round_neighbours(self, n):
        batch = self._batch(n, 5, seed=n)
        topologies = Topology.from_packed_batch(n, batch, pre_validated=True)
        assert len(topologies) == 5
        for packed, topology in zip(batch, topologies):
            assert np.array_equal(topology.packed_adjacency(), packed)
            assert topology._valid
            indices, indptr = topology.csr_adjacency()
            assert indptr.shape == (n + 1,) and indptr[0] == 0
            assert indptr[-1] == indices.size
            for u in range(n):
                assert tuple(indices[indptr[u] : indptr[u + 1]]) == topology.neighbors_tuple(u)

    def test_batch_topologies_are_private_copies(self):
        batch = self._batch(10, 3, seed=0)
        topologies = Topology.from_packed_batch(10, batch)
        before = [t.masks for t in Topology.from_packed_batch(10, batch)]
        batch[:] = 0
        assert [t.masks for t in topologies] == before

    @pytest.mark.parametrize("batched", [False, True])
    def test_cached_csr_arrays_are_read_only(self, batched):
        if batched:
            topology = Topology.from_packed_batch(12, self._batch(12, 3, seed=1))[1]
        else:
            topology = random_connected_topology(12, np.random.default_rng(1), 0.2)
        indices, indptr = topology.csr_adjacency()
        assert not indices.flags.writeable and not indptr.flags.writeable
        with pytest.raises(ValueError):
            indices[0] = 0
        with pytest.raises(ValueError):
            indptr[1] += 1
