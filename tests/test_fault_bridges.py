"""The bridge-loss adversary's cut-edge pass and its pinned behaviour.

:func:`repro.network.faults._bridges` finds every cut edge of a round's
live subgraph in one low-link DFS.  These tests check it against an
oracle that shares no code with it, ``networkx.bridges``, on the
subgraph that survives the round's ``down`` mask: exact list, exact
order.  A 2,000-node path shows the pass needs no recursion.

The strategies turn their chosen ``(u, v)`` pairs into a per-edge mask
with :func:`repro.network.faults._edge_positions_lost`, a sorted-key
lookup in the canonical CSR.  It is checked against an ``np.isin``
reference kept here, over random subsets of the CSR's edges and over the
spanning-forest edges :class:`BudgetedLossStrategy` targets.

The pinned runs fix what ``BridgeLossStrategy`` does end to end: one
Bernoulli per bridge, in sorted ``(u, v)`` order, from the fault stream.
Any change to the bridge list or its order shifts the draws and so the
recorded ``RunMetrics`` and trace-content digests.
"""

from __future__ import annotations

import hashlib
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import IndexedBroadcastNode, TokenForwardingNode
from repro.network.faults import (
    _bridges,
    _edge_positions_lost,
    _forest_edges,
    _live_edge_row_ints,
)
from repro.obs import TraceRecorder
from repro.scenarios import fault_model_for, make_scenario
from repro.simulation import run_dissemination, standard_instance
from tests.conftest import make_config


def _csr(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Canonical symmetric CSR (ascending neighbours per row) of ``edges``."""
    rows: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    indices = np.array(
        [v for row in rows for v in sorted(row)], dtype=np.int64
    )
    return indices, indptr


def _oracle(n: int, edges, down) -> list[tuple[int, int]]:
    """Sorted ``(u, v)``, u < v, bridges of the live subgraph via networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(u for u in range(n) if not down[u])
    graph.add_edges_from(
        (u, v) for u, v in edges if not down[u] and not down[v]
    )
    return sorted((min(u, v), max(u, v)) for u, v in nx.bridges(graph))


def _check(n: int, edges, down=None) -> list[tuple[int, int]]:
    down = np.zeros(n, dtype=bool) if down is None else np.asarray(down, dtype=bool)
    indices, indptr = _csr(n, edges)
    found = _bridges(indices, indptr, down, n)
    assert found == _oracle(n, edges, down)
    return found


@st.composite
def _graphs(draw, max_n: int = 40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # Up to ~3 edges per node: from forests through the connectivity
    # threshold, where bridges are plentiful, to cycle-rich graphs.
    edges = (
        draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
        if pairs
        else []
    )
    down = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, edges, down


class TestBridgesMatchNetworkx:
    @settings(deadline=None, max_examples=300)
    @given(graph=_graphs())
    def test_random_graphs_with_down_masks(self, graph):
        n, edges, down = graph
        _check(n, edges, down)

    def test_empty_graph(self):
        assert _check(0, []) == []

    def test_isolated_nodes(self):
        assert _check(5, []) == []

    def test_single_edge(self):
        assert _check(2, [(0, 1)]) == [(0, 1)]

    def test_tree_is_all_bridges(self):
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)]
        assert _check(7, edges) == sorted(edges)

    def test_cycle_has_no_bridges(self):
        assert _check(6, [(u, (u + 1) % 6) for u in range(6)]) == []

    def test_disconnected_components(self):
        # A triangle, a path hanging off a cycle, and an isolated node.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7)]
        assert _check(9, edges) == [(5, 6), (6, 7)]

    def test_down_node_turns_cycle_into_path(self):
        edges = [(u, (u + 1) % 5) for u in range(5)]
        down = [False, False, True, False, False]
        assert _check(5, edges, down) == [(0, 1), (0, 4), (3, 4)]

    def test_all_down(self):
        assert _check(4, [(0, 1), (1, 2)], [True] * 4) == []

    def test_long_path_needs_no_recursion(self):
        # Deeper than the default recursion limit: an explicit stack only.
        n = 2000
        edges = [(u, u + 1) for u in range(n - 1)]
        assert _check(n, edges) == edges


def _isin_reference(senders, receivers, n, pairs) -> np.ndarray:
    """The lookup as ``np.isin`` over every CSR key (which ignores non-edges)."""
    keys = senders.astype(np.int64) * n + receivers.astype(np.int64)
    wanted = [u * n + v for u, v in pairs] + [v * n + u for u, v in pairs]
    return np.isin(keys, np.asarray(wanted, dtype=np.int64))


def _lookup(n, edges, pairs):
    indices, indptr = _csr(n, edges)
    receivers = np.repeat(np.arange(n), np.diff(indptr)).astype(np.uint8)
    found = _edge_positions_lost(indices, receivers, n, pairs)
    assert found.tolist() == _isin_reference(indices, receivers, n, pairs).tolist()
    assert int(found.sum()) == 2 * len(set(pairs))
    return found


class TestEdgePositionsLookup:
    @settings(deadline=None, max_examples=100)
    @given(graph=_graphs(), data=st.data())
    def test_random_edge_subsets_match_isin(self, graph, data):
        n, edges, _ = graph
        chosen = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
        _lookup(n, edges, sorted((min(u, v), max(u, v)) for u, v in chosen))

    @settings(deadline=None, max_examples=100)
    @given(graph=_graphs())
    def test_budgeted_forest_edges_match_isin(self, graph):
        n, edges, down = graph
        if n == 0:
            return
        indices, indptr = _csr(n, edges)
        receivers = np.repeat(np.arange(n), np.diff(indptr))
        packed, rows = _live_edge_row_ints(
            indices, receivers, np.asarray(down, dtype=bool), n
        )
        _lookup(n, edges, sorted(_forest_edges(packed, rows, n)))

    def test_no_pairs_marks_nothing(self):
        assert not _lookup(4, [(0, 1), (1, 2)], []).any()

    @pytest.mark.parametrize("pair", [(0, 2), (2, 3), (0, 3), (1, 1)])
    def test_a_pair_that_is_not_an_edge_raises(self, pair):
        # (2, 3) and (0, 3) sort past the last key of the CSR; (1, 1) is a
        # self-loop the canonical CSR never holds.
        indices, indptr = _csr(4, [(0, 1), (1, 2)])
        receivers = np.repeat(np.arange(4), np.diff(indptr))
        with pytest.raises(ValueError, match="not an edge"):
            _edge_positions_lost(indices, receivers, 4, [(0, 1), pair])

    def test_lookup_on_an_empty_csr_raises(self):
        indices, indptr = _csr(3, [])
        receivers = np.repeat(np.arange(3), np.diff(indptr))
        with pytest.raises(ValueError, match="not an edge"):
            _edge_positions_lost(indices, receivers, 3, [(0, 1)])


#: ``(protocol, seed) -> (sha256 of RunMetrics.to_dict(), trace content
#: digest)`` for ``bridge_loss_markov`` at n = k = 32, recorded with the
#: per-forest-edge BFS the low-link pass replaced.  Kernel and mask
#: engines must both reproduce them.
PINNED = {
    ("TokenForwardingNode", 0): (
        "fc780f4f53712204b1394a8618b0701755e4a1ee528a9b053774318e5287b78e",
        "af952f812c664b6e6e6f95047f000287091e51f45cabc934f0d9435f53be0e74",
    ),
    ("TokenForwardingNode", 1): (
        "0610308136806e80481a7b0a6358461f9d38e8b8196f09c0309575413113c923",
        "e6d3739829a6844203f93b2903fa6985ccf69067a7b5c8d0c9473c91323a99d8",
    ),
    ("TokenForwardingNode", 2): (
        "53ee8f65d57ca5875aa23b570f6bff35979a4ee715b4a064a29544d96b5be67e",
        "88183a5947453267f402174ee0034e8b1068a41244907bffb734a1709a4dbbf6",
    ),
    ("IndexedBroadcastNode", 0): (
        "818eb6190695896eb543e0c6879bb90cd0f939753e81c2cfc21f917e6fe6e697",
        "68cd09a0a179c326b774baed8c08141ece4ec037b6c9dd7ad4ad94ace21c5d64",
    ),
    ("IndexedBroadcastNode", 1): (
        "3f7e54386175b6b042308b21dba381fc8d204bb290668b79f16028a0c3bc5811",
        "d4a6369bcc65f199c0714d37a2f62194695ae9e99a1d45d99019ca8c8dd9f495",
    ),
    ("IndexedBroadcastNode", 2): (
        "4199ff94cf917666b74c4e9fc72ff744d43ed548242f439d780f8ba0ec1716bb",
        "7c1153dac01096ca9c1ef76346dea6a7227162fbea9fb7d8846675cb0a19fbb7",
    ),
}
FACTORIES = {f.__name__: f for f in (TokenForwardingNode, IndexedBroadcastNode)}


@pytest.mark.parametrize("engine", ("kernel", "mask"))
@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: f"{key[0]}-{key[1]}")
def test_bridge_loss_runs_are_pinned(key, engine):
    name, seed = key
    n = 32
    trace = TraceRecorder()
    result = run_dissemination(
        FACTORIES[name],
        make_config(n),
        standard_instance(n, n, 8, seed=seed),
        make_scenario("bridge_loss_markov", n, seed=seed),
        seed=seed,
        engine=engine,
        faults=fault_model_for("bridge_loss_markov", n, seed=seed),
        trace=trace,
    )
    assert result.engine == engine
    assert result.metrics.dropped_deliveries > 0  # bridges were really hit
    metrics = hashlib.sha256(
        json.dumps(result.metrics.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    assert (metrics, trace.to_trace().content_digest()) == PINNED[key]
