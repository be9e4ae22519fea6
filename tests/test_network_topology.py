"""Unit tests for the mask-native :mod:`repro.network.topology` layer."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

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
from tests import golden
from tests.conftest import nx_graph


def _edge_set(graph) -> set[frozenset]:
    return {frozenset(edge) for edge in graph.edges}


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_from_edges_matches_nx_graph(self, seed):
        graph = nx.gnp_random_graph(17, 0.2, seed=seed)
        topology = Topology.from_edges(17, graph.edges)
        assert list(topology.nodes) == sorted(graph.nodes)
        assert _edge_set(topology) == _edge_set(graph)

    def test_edges_from_edges_round_trip(self):
        topology = split_topology(11, informed=range(5), bridge_pairs=2)
        again = Topology.from_edges(11, topology.edges)
        assert again == topology
        assert hash(again) == hash(topology)

    def test_from_edges_numpy_labels_above_64_nodes(self):
        # Regression: numpy-int node labels must not wrap the row shifts at
        # 64 bits (mask rows are arbitrary-precision Python ints).
        n = 80
        edges = [(u, u + np.int64(1)) for u in np.arange(n - 1)]
        topology = Topology.from_edges(n, edges)
        assert all(isinstance(mask, int) for mask in topology.masks)
        assert topology.is_connected()
        assert _edge_set(nx_graph(topology)) == {
            frozenset((int(u), int(v))) for u, v in edges
        }

    def test_read_surface_matches_nx(self):
        topology = clique_pair_topology(9, range(4), range(4, 9), [(0, 4)])
        graph = nx_graph(topology)
        assert len(topology.nodes) == graph.number_of_nodes()
        assert topology.number_of_edges() == graph.number_of_edges()
        for u in topology.nodes:
            assert list(topology.neighbors_tuple(u)) == sorted(graph.neighbors(u))
        assert (0, 4) in topology.edges and (0, 5) not in topology.edges


class TestConnectivity:
    @pytest.mark.parametrize("seed", range(20))
    def test_mask_bfs_matches_nx_is_connected(self, seed):
        # Random graphs with no connectivity guarantee: p below/around the
        # threshold produces a healthy mix of connected and disconnected.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        p = float(rng.uniform(0.02, 0.25))
        graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        topology = Topology.from_edges(n, graph.edges)
        assert topology.is_connected() == nx.is_connected(graph)

    def test_trivial_sizes(self):
        assert Topology(0, []).is_connected()
        assert Topology(1, [0]).is_connected()
        assert not Topology(2, [0, 0]).is_connected()

    def test_validate_accepts_legal_topology(self):
        ring_topology(8).validate(8)
        Topology(1, [0]).validate(1)

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

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="expected Topology"):
            as_topology([(0, 1)])
        with pytest.raises(TypeError, match="returned Graph; .*Topology.from_edges"):
            as_topology(nx.path_graph(3), 3)

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError, match="node set"):
            as_topology(complete_topology(5), 6)


class TestBuilderStructure:
    """Each builder's shape, checked with networkx as an independent oracle
    on the topology's ``networkx`` copy."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_path_is_connected_tree(self, n):
        graph = nx_graph(path_topology(n))
        assert nx.is_tree(graph)
        assert nx.diameter(graph) == n - 1

    def test_path_with_custom_order(self):
        graph = nx_graph(path_topology(4, order=[3, 1, 0, 2]))
        assert _edge_set(graph) == {frozenset(e) for e in [(3, 1), (1, 0), (0, 2)]}

    def test_path_rejects_bad_order(self):
        with pytest.raises(ValueError):
            path_topology(3, order=[0, 1, 1])

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_ring_degree_two(self, n):
        graph = nx_graph(ring_topology(n))
        assert nx.is_connected(graph)
        assert all(d == 2 for _, d in graph.degree)

    def test_ring_small_n_falls_back(self):
        assert nx.is_tree(nx_graph(ring_topology(2)))
        assert ring_topology(2).number_of_edges() == 1

    @pytest.mark.parametrize("n,center", [(5, 0), (5, 3), (8, 7)])
    def test_star_structure(self, n, center):
        graph = nx_graph(star_topology(n, center))
        assert nx.is_tree(graph)
        assert graph.degree[center] == n - 1
        assert all(graph.degree[v] == 1 for v in range(n) if v != center)

    def test_star_bad_center(self):
        with pytest.raises(ValueError):
            star_topology(4, center=4)

    def test_complete_graph_edges(self):
        graph = nx_graph(complete_topology(6))
        assert graph.number_of_edges() == 15
        assert nx.number_of_selfloops(graph) == 0

    def test_random_tree_is_tree(self, rng):
        for n in (2, 5, 20):
            assert nx.is_tree(nx_graph(random_tree_topology(n, rng)))

    def test_random_connected_is_connected(self, rng):
        for _ in range(5):
            topology = random_connected_topology(15, rng, extra_edge_prob=0.1)
            topology.validate(15)
            graph = nx_graph(topology)
            assert nx.is_connected(graph)
            assert nx.number_of_selfloops(graph) == 0

    def test_random_connected_rejects_bad_prob(self, rng):
        with pytest.raises(ValueError):
            random_connected_topology(5, rng, extra_edge_prob=1.5)

    def test_random_tree_reproducible(self):
        first = random_tree_topology(12, np.random.default_rng(7))
        second = random_tree_topology(12, np.random.default_rng(7))
        assert first == second

    def test_shifted_ring_always_connected(self):
        for r in range(10):
            graph = nx_graph(shifted_ring_topology(9, r))
            assert nx.is_connected(graph)
            assert all(d == 2 for _, d in graph.degree)

    def test_shifted_ring_changes_edges(self):
        edges = {frozenset(_edge_set(shifted_ring_topology(11, r))) for r in range(4)}
        assert len(edges) > 1

    def test_split_bridges(self):
        informed = {0, 1, 2}
        graph = nx_graph(split_topology(10, informed))
        assert nx.is_connected(graph)
        cut = [(u, v) for u, v in graph.edges if (u in informed) != (v in informed)]
        assert len(cut) == 1

    def test_split_all_informed_is_complete(self):
        assert nx_graph(split_topology(5, set(range(5)))).number_of_edges() == 10


class TestNetworkxGenerators:
    """The deterministic builders equal networkx's own generators edge for
    edge (node ``i`` of the networkx graph is node ``i`` of the topology)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_path_matches_nx_path_graph(self, n):
        assert _edge_set(path_topology(n)) == _edge_set(nx.path_graph(n))

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_ring_matches_nx_cycle_graph(self, n):
        assert _edge_set(ring_topology(n)) == _edge_set(nx.cycle_graph(n))

    @pytest.mark.parametrize("center", [0, 3, 6])
    def test_star_matches_relabelled_nx_star_graph(self, center):
        # nx.star_graph(6) is centred on node 0; swap labels 0 and ``center``.
        graph = nx.relabel_nodes(nx.star_graph(6), {0: center, center: 0})
        assert _edge_set(star_topology(7, center)) == _edge_set(graph)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_complete_matches_nx_complete_graph(self, n):
        assert _edge_set(complete_topology(n)) == _edge_set(nx.complete_graph(n))


def _edge_digest(topology) -> str:
    return golden.digest(repr(sorted(topology.edges)))


#: Each builder's sorted edge list, pinned by digest in
#: ``tests/golden/builder_digests.json``; the digests were recorded while the
#: builders were still checked edge-for-edge against independent networkx
#: generators.  A moved digest means an adversary built on the builder now
#: plays different topologies (or draws its RNG in a different order).
_BUILDER_CASES = {
    "path-3-0-2-4-1": lambda: path_topology(5, [3, 0, 2, 4, 1]),
    **{f"ring-{n}": (lambda n=n: ring_topology(n)) for n in (1, 2, 3, 8)},
    **{f"star-7-{c}": (lambda c=c: star_topology(7, c)) for c in (0, 3, 6)},
    "complete-6": lambda: complete_topology(6),
    **{
        f"split-10-4-{b}": (lambda b=b: split_topology(10, range(4), bridge_pairs=b))
        for b in (1, 3)
    },
    **{
        f"random-tree-12-{s}": (
            lambda s=s: random_tree_topology(12, np.random.default_rng(s))
        )
        for s in range(5)
    },
    **{
        f"random-connected-14-{s}": (
            lambda s=s: random_connected_topology(
                14, np.random.default_rng(s), extra_edge_prob=0.15
            )
        )
        for s in range(5)
    },
    **{
        f"shifted-ring-9-{r}": (lambda r=r: shifted_ring_topology(9, r))
        for r in (0, 1, 5, 17)
    },
}


def golden_values() -> dict:
    return {case: _edge_digest(build()) for case, build in _BUILDER_CASES.items()}


class TestBuilderPins:
    @pytest.mark.parametrize("case", sorted(_BUILDER_CASES))
    def test_edge_digest(self, case):
        golden.check("builder_digests", case, _edge_digest(_BUILDER_CASES[case]()))

    def test_every_case_pinned(self):
        golden.check_keys("builder_digests", _BUILDER_CASES)


class TestStructuralIdentity:
    def test_equal_masks_equal_objects(self):
        assert ring_topology(7) == ring_topology(7)
        assert hash(ring_topology(7)) == hash(ring_topology(7))

    def test_different_edges_differ(self):
        assert ring_topology(7) != path_topology(7)

    def test_usable_as_dict_key(self):
        cache = {ring_topology(7): "ring", path_topology(7): "path"}
        assert cache[ring_topology(7)] == "ring"


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
