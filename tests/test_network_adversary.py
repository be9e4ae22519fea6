"""Unit tests for adversaries (repro.network.adversary)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.network import (
    BottleneckAdversary,
    ObliviousSequenceAdversary,
    OmniscientBottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    RandomTreeAdversary,
    RotatingStarAdversary,
    RoundState,
    ShiftedRingAdversary,
    StaticAdversary,
    TStableAdversary,
    TokenIsolationAdversary,
    Topology,
    path_topology,
)
from repro.network.adversary import _rich_poor_split
from repro.network.stability import is_t_stable
from tests.conftest import NAMED_ADVERSARIES, fixed_state, nx_graph


def assert_legal(topology, n):
    """A legal round topology, checked with networkx as an independent oracle."""
    assert isinstance(topology, Topology)
    topology.validate(n)
    graph = nx_graph(topology)
    assert set(graph.nodes) == set(range(n))
    assert nx.number_of_selfloops(graph) == 0
    assert nx.is_connected(graph)


def make_states(n, informed=None, informed_ids=frozenset({("t", 0)})):
    """``informed`` nodes know every id of ``informed_ids``, the rest nothing."""
    informed = informed or set()
    counts = [len(informed_ids) if i in informed else 0 for i in range(n)]
    return fixed_state(counts, holders={tid: informed for tid in informed_ids})


class _CountingSource:
    """Round-state columns that count how often they are read."""

    def __init__(self, counts, ranks):
        self.counts = np.array(counts, dtype=np.int64)
        self.ranks = np.array(ranks, dtype=np.int64)
        self.reads = 0

    def known_counts(self):
        self.reads += 1
        return self.counts

    def coded_ranks(self):
        self.reads += 1
        return self.ranks

    def knows(self, token_id):
        return self.counts > token_id


class TestRoundState:
    def test_columns_are_read_on_first_use_then_cached(self):
        source = _CountingSource([2, 0, 1], [0, 3, 1])
        state = RoundState(source)
        assert source.reads == 0
        assert state.progress().tolist() == [2, 3, 1]
        assert state.progress().tolist() == [2, 3, 1]
        assert state.known_counts.dtype == state.coded_ranks.dtype == np.int64
        assert source.reads == 2

    def test_freeze_copies_both_columns(self):
        source = _CountingSource([2, 0, 1], [0, 3, 1])
        frozen = RoundState(source).freeze()
        source.counts[:] = 7
        source.ranks[:] = 7
        assert frozen.known_counts.tolist() == [2, 0, 1]
        assert frozen.coded_ranks.tolist() == [0, 3, 1]
        assert RoundState(source).progress().tolist() == [7, 7, 7]

    def test_knows_is_the_sources_column(self):
        state = RoundState(_CountingSource([2, 0, 1], [0, 0, 0]))
        assert state.knows(0).tolist() == [True, False, True]
        assert state.knows(1).tolist() == [True, False, False]

    def test_rich_poor_split_orders_by_count_then_rank_then_uid(self):
        counts, ranks = [1, 0, 1, 0, 1, 0, 1], [2, 0, 1, 0, 1, 5, 1]
        poor, rich = _rich_poor_split(fixed_state(counts, ranks), 7)
        assert poor + rich == sorted(range(7), key=lambda u: (counts[u], ranks[u], u))
        assert len(poor) == 3


class TestStaticAndOblivious:
    def test_static_adversary_same_graph_every_round(self):
        adv = StaticAdversary(path_topology)
        g1 = adv.choose_topology(0, 6, make_states(6))
        g2 = adv.choose_topology(5, 6, make_states(6))
        assert set(g1.edges) == set(g2.edges)

    def test_static_adversary_accepts_explicit_graph(self):
        graph = path_topology(4)
        adv = StaticAdversary(graph)
        assert set(adv.choose_topology(0, 4, make_states(4)).edges) == set(graph.edges)

    def test_oblivious_sequence_uses_round_index(self):
        adv = ObliviousSequenceAdversary(
            lambda n, r: path_topology(n, order=[(v + r) % n for v in range(n)])
        )
        g0 = adv.choose_topology(0, 5, make_states(5))
        g1 = adv.choose_topology(1, 5, make_states(5))
        assert_legal(g0, 5)
        assert_legal(g1, 5)
        assert set(g0.edges) != set(g1.edges)
        nx_sequence = ObliviousSequenceAdversary(lambda n, r: nx_graph(path_topology(n)))
        with pytest.raises(TypeError, match="expected Topology"):
            nx_sequence.choose_topology(0, 5, make_states(5))

    @pytest.mark.parametrize("cls", [RandomConnectedAdversary, RandomTreeAdversary, PathShuffleAdversary])
    def test_random_adversaries_always_connected(self, cls):
        adv = cls(seed=3)
        for r in range(10):
            assert_legal(adv.choose_topology(r, 12, make_states(12)), 12)

    @pytest.mark.parametrize("cls", [RandomConnectedAdversary, RandomTreeAdversary, PathShuffleAdversary])
    def test_reset_reproduces_sequence(self, cls):
        adv = cls(seed=5)
        first = [frozenset(map(frozenset, adv.choose_topology(r, 8, make_states(8)).edges)) for r in range(3)]
        adv.reset()
        second = [frozenset(map(frozenset, adv.choose_topology(r, 8, make_states(8)).edges)) for r in range(3)]
        assert first == second

    def test_rotating_star_and_shifted_ring(self):
        for cls in (RotatingStarAdversary, ShiftedRingAdversary):
            adv = cls()
            for r in range(6):
                assert_legal(adv.choose_topology(r, 9, make_states(9)), 9)


class TestAdaptiveAdversaries:
    def test_bottleneck_produces_single_cut_edge(self):
        adv = BottleneckAdversary()
        states = make_states(10, informed={0, 1, 2, 3, 4})
        g = adv.choose_topology(0, 10, states)
        assert_legal(g, 10)
        rich = {0, 1, 2, 3, 4}
        cut_edges = [(u, v) for u, v in g.edges if (u in rich) != (v in rich)]
        assert len(cut_edges) == 1

    def test_bottleneck_small_networks(self):
        adv = BottleneckAdversary()
        for n in (1, 2):
            assert_legal(adv.choose_topology(0, n, make_states(n)), n)

    def test_bottleneck_rejects_zero_bridges(self):
        with pytest.raises(ValueError):
            BottleneckAdversary(bridge_pairs=0)

    def test_token_isolation_splits_holders(self):
        target = ("token", 7)
        states = make_states(9, informed={0, 1, 2}, informed_ids={target})
        adv = TokenIsolationAdversary(target)
        g = adv.choose_topology(0, 9, states)
        assert_legal(g, 9)
        holders = {0, 1, 2}
        cut = [(u, v) for u, v in g.edges if (u in holders) != (v in holders)]
        assert len(cut) == 1

    def test_token_isolation_complete_when_all_informed(self):
        target = ("token", 1)
        states = make_states(5, informed=set(range(5)), informed_ids={target})
        g = TokenIsolationAdversary(target).choose_topology(0, 5, states)
        assert g.number_of_edges() == 10

    def test_omniscient_requires_messages_flag(self):
        adv = OmniscientBottleneckAdversary()
        assert adv.sees_messages
        # Without a usefulness function it degenerates but still returns a legal graph.
        g = adv.choose_topology(0, 8, make_states(8, informed={0, 1}), messages=[None] * 8)
        assert_legal(g, 8)

    def test_omniscient_picks_useless_bridge(self):
        # Usefulness oracle: message from node u is useful only to receivers
        # with uid > u.  The adversary should find a rich->poor pair where it
        # is useless.
        def useless(sender, receiver, message):
            return receiver > sender

        adv = OmniscientBottleneckAdversary(usefulness_fn=useless)
        states = make_states(8, informed={4, 5, 6, 7})
        g = adv.choose_topology(0, 8, states, messages=list(range(8)))
        assert_legal(g, 8)


class TestTStableWrapper:
    def test_topology_constant_within_block(self):
        inner = RandomConnectedAdversary(seed=2)
        adv = TStableAdversary(inner, stability=4)
        graphs = [adv.choose_topology(r, 10, make_states(10)) for r in range(12)]
        assert is_t_stable(graphs, 4)

    def test_topology_changes_across_blocks(self):
        adv = TStableAdversary(PathShuffleAdversary(seed=9), stability=3)
        g0 = adv.choose_topology(0, 12, make_states(12))
        g3 = adv.choose_topology(3, 12, make_states(12))
        assert set(map(frozenset, g0.edges)) != set(map(frozenset, g3.edges))

    def test_invalid_stability(self):
        with pytest.raises(ValueError):
            TStableAdversary(PathShuffleAdversary(), stability=0)

    def test_reset_clears_block_cache(self):
        adv = TStableAdversary(RandomConnectedAdversary(seed=4), stability=5)
        g_before = adv.choose_topology(0, 8, make_states(8))
        adv.reset()
        g_after = adv.choose_topology(0, 8, make_states(8))
        assert set(map(frozenset, g_before.edges)) == set(map(frozenset, g_after.edges))


class TestFactory:
    """The named constructions that the replay matrix in test_scenarios runs."""

    @pytest.mark.parametrize("name", sorted(NAMED_ADVERSARIES))
    def test_every_named_adversary_builds_and_runs(self, name):
        adv = NAMED_ADVERSARIES[name](seed=1)
        for r in range(3):
            assert_legal(adv.choose_topology(r, 7, make_states(7)), 7)

    def test_factory_stability_wrapping(self):
        adv = TStableAdversary(NAMED_ADVERSARIES["path_shuffle"](seed=0), stability=6)
        graphs = [adv.choose_topology(r, 7, make_states(7)) for r in range(18)]
        for graph in graphs:
            assert_legal(graph, 7)
        assert is_t_stable(graphs, 6)
