"""Adversaries controlling the dynamic network topology.

Section 4.1 of the paper: "During each round ``t`` the network's
connectivity is defined by a connected undirected graph ``G(t)`` chosen by
an adversary."  For randomized algorithms the paper's default is the
*adaptive* adversary, which picks the topology of round ``t`` after seeing
all past actions and the current node states, but *before* the (random)
messages of round ``t`` are chosen.  Section 6 additionally considers an
*omniscient* adversary that knows all randomness in advance — operationally
it may pick the topology after seeing the round's messages.

The adversary API reflects this distinction:

* every adversary implements :meth:`Adversary.choose_topology`, called before
  messages are fixed, receiving the round's read-only :class:`RoundState`;
* adversaries with ``sees_messages = True`` are instead called *after* the
  messages for the round have been committed and also receive them, with
  the state frozen before the messages were composed.

Concrete adversaries include the oblivious random/periodic families, the
worst-case adaptive "bottleneck" adversaries used in the KLO lower-bound
constructions, and wrappers adding T-stability.

Every adversary returns a mask-native
:class:`~repro.network.topology.Topology` (per-node neighbour bitmasks) —
the bottleneck/split cliques are two mask fills instead of O(n^2) edge
insertions — and reads the state's whole-network columns.  Custom
adversaries build their topologies with the builders of
:mod:`repro.network.topology` or
:meth:`~repro.network.topology.Topology.from_edges`; the runner rejects any
other return type through :func:`~repro.network.topology.as_topology`.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from .topology import (
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

__all__ = [
    "RoundState",
    "Adversary",
    "StaticAdversary",
    "ObliviousSequenceAdversary",
    "RandomConnectedAdversary",
    "RandomTreeAdversary",
    "RotatingStarAdversary",
    "ShiftedRingAdversary",
    "PathShuffleAdversary",
    "BottleneckAdversary",
    "TokenIsolationAdversary",
    "OmniscientBottleneckAdversary",
    "TStableAdversary",
]


class RoundState:
    """Read-only protocol state of one round, for adversaries and fault strategies.

    One object serves every reader of node state: the adaptive adversary
    choosing ``G(t)`` and the state-aware fault strategies.  ``source`` is
    the round kernel; the two int64 columns -- per-node decodable-token
    counts and coded ranks -- are read from it on first access and cached
    for the round, and :meth:`knows` asks it for one token's column.  A
    state is valid for the round it was issued in.  :meth:`freeze` copies
    both columns at once, which is how the Section 6 omniscient adversary
    keeps the pre-compose snapshot while reading the composed messages.
    Readers must treat the arrays as read-only.
    """

    __slots__ = ("_source", "_counts", "_ranks")

    def __init__(self, source):
        self._source = source
        self._counts: np.ndarray | None = None
        self._ranks: np.ndarray | None = None

    @property
    def known_counts(self) -> np.ndarray:
        """Per-node number of decodable tokens."""
        if self._counts is None:
            self._counts = np.asarray(self._source.known_counts(), dtype=np.int64)
        return self._counts

    @property
    def coded_ranks(self) -> np.ndarray:
        """Per-node dimension of the received coded subspace (0 when uncoded)."""
        if self._ranks is None:
            self._ranks = np.asarray(self._source.coded_ranks(), dtype=np.int64)
        return self._ranks

    def knows(self, token_id: object) -> np.ndarray:
        """Per-node bool column: which nodes can decode ``token_id``."""
        return self._source.knows(token_id)

    def progress(self) -> np.ndarray:
        """Per-node progress score: tokens known or coded rank, whichever
        is larger (a broadcasting node's knowledge rides in its rank)."""
        return np.maximum(self.known_counts, self.coded_ranks)

    def freeze(self) -> "RoundState":
        """A copy holding both columns as read now."""
        frozen = RoundState(self._source)
        frozen._counts = self.known_counts.copy()
        frozen._ranks = self.coded_ranks.copy()
        return frozen


class Adversary(abc.ABC):
    """Base class for topology-choosing adversaries."""

    #: True for omniscient adversaries that pick the topology after seeing the
    #: messages nodes committed for the round.
    sees_messages: bool = False

    @abc.abstractmethod
    def choose_topology(
        self,
        round_index: int,
        n: int,
        state: RoundState,
        messages: Sequence[object] | None = None,
    ) -> Topology:
        """Return the connected round-``round_index`` communication graph.

        ``messages`` is only provided to adversaries with ``sees_messages``.
        """

    def reset(self) -> None:
        """Reset internal adversary state before a fresh run (optional)."""


class StaticAdversary(Adversary):
    """Keeps a single fixed topology for the whole execution."""

    def __init__(
        self,
        graph_factory: Callable[[int], Topology] | Topology,
    ):
        self._factory = graph_factory
        self._cached: Topology | None = None

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        if self._cached is None:
            if isinstance(self._factory, Topology):
                graph = self._factory
            else:
                graph = self._factory(n)
            topology = as_topology(graph, n)
            topology.validate(n)
            self._cached = topology
        return self._cached

    def reset(self) -> None:
        # A static topology does not depend on run history; keep the cache.
        pass


class ObliviousSequenceAdversary(Adversary):
    """Plays a pre-determined (round-indexed) sequence of topologies.

    ``topology_fn(n, round_index)`` returns the round's
    :class:`~repro.network.topology.Topology`, which is validated here.
    """

    def __init__(self, topology_fn: Callable[[int, int], Topology]):
        self._topology_fn = topology_fn

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        topology = as_topology(self._topology_fn(n, round_index))
        topology.validate(n)
        return topology


class RandomConnectedAdversary(Adversary):
    """A fresh random connected graph in every round (oblivious)."""

    def __init__(self, seed: int = 0, extra_edge_prob: float = 0.05):
        self._seed = seed
        self._extra_edge_prob = extra_edge_prob
        self._rng = np.random.default_rng(seed)

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        return random_connected_topology(n, self._rng, self._extra_edge_prob)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


class RandomTreeAdversary(Adversary):
    """A fresh uniformly random spanning tree every round (sparsest legal graphs)."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        return random_tree_topology(n, self._rng)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


class RotatingStarAdversary(Adversary):
    """Star topology whose center moves every round."""

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        return star_topology(n, center=round_index % n)


class ShiftedRingAdversary(Adversary):
    """Ring topology whose labelling is permuted every round."""

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        return shifted_ring_topology(n, round_index)


class PathShuffleAdversary(Adversary):
    """A freshly shuffled path in every round.

    Paths are the sparsest connected graphs with the largest diameter, which
    makes this a natural stress topology for dissemination.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        order = list(self._rng.permutation(n))
        return path_topology(n, order)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


def _rich_poor_split(state: RoundState, n: int) -> tuple[list[int], list[int]]:
    """Sort nodes by (known tokens, rank, uid) and split into poor/rich halves."""
    ordered = np.lexsort((state.coded_ranks, state.known_counts)).tolist()
    half = n // 2
    return ordered[:half], ordered[half:]


class BottleneckAdversary(Adversary):
    """Adaptive adversary that minimises the flow of *new* information.

    It partitions nodes into "rich" (many known tokens / high rank) and
    "poor" groups and joins the two sides with a single bridge, always
    choosing as the rich-side bridge endpoint the rich node with the fewest
    known tokens.  This is the adaptive cut structure underlying the KLO
    lower bound for knowledge-based token-forwarding: each round at most one
    poor node can learn anything from the rich side, and it learns it from
    the least-informed rich node.
    """

    def __init__(self, bridge_pairs: int = 1):
        if bridge_pairs < 1:
            raise ValueError("bridge_pairs must be at least 1")
        self._bridge_pairs = bridge_pairs

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        if n <= 2:
            return complete_topology(n)
        poor, rich = _rich_poor_split(state, n)
        # Bridge: least-informed rich node to most-informed poor node — the
        # crossing that transfers the least new knowledge.
        bridges = [
            (rich[b % len(rich)], poor[-1 - (b % len(poor))])
            for b in range(self._bridge_pairs)
        ]
        return clique_pair_topology(n, poor, rich, bridges)


class TokenIsolationAdversary(Adversary):
    """Adaptive adversary that isolates the holders of one target token.

    Nodes that know the target token are placed in one clique, all other
    nodes in another, with a single bridge edge.  The spread of the target
    token (or, for coding protocols, of the corresponding direction) is
    then limited to one new node per round — the slowest rate connectivity
    permits.  This realises, per round, the worst case used in the
    Section 5.3 analysis.
    """

    def __init__(self, target_token_id: object):
        self._target = target_token_id

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        informed = np.flatnonzero(state.knows(self._target)).tolist()
        if not informed or len(informed) == n:
            return complete_topology(n)
        return split_topology(n, informed, bridge_pairs=1)


class OmniscientBottleneckAdversary(Adversary):
    """Omniscient variant of the bottleneck adversary (Section 6).

    Because it is allowed to see the round's committed messages, it can try
    to place the bridge so that the crossing message is useless to the
    receiving side (e.g. already in its span).  Against small fields this
    succeeds often; against the large fields of Theorem 6.1 it cannot,
    which is exactly the claim benchmark E9 validates.
    """

    sees_messages = True

    def __init__(self, usefulness_fn: Callable[[int, int, object], bool] | None = None):
        """``usefulness_fn(sender_uid, receiver_uid, message) -> bool``.

        Supplied by the experiment harness because judging "useless" requires
        inspecting protocol-specific message contents.  When omitted, the
        adversary degenerates to the adaptive bottleneck behaviour.
        """
        self._usefulness_fn = usefulness_fn
        self._fallback = BottleneckAdversary()

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        if messages is None or self._usefulness_fn is None or n <= 2:
            return self._fallback.choose_topology(round_index, n, state, messages)
        poor, rich = _rich_poor_split(state, n)
        # Search for a bridge whose rich->poor message is NOT useful.
        best_edge = None
        for sender in rich:
            message = messages[sender]
            for receiver in poor:
                if not self._usefulness_fn(sender, receiver, message):
                    best_edge = (sender, receiver)
                    break
            if best_edge:
                break
        if best_edge is None:
            best_edge = (rich[0], poor[-1])
        return clique_pair_topology(n, poor, rich, [best_edge])


class TStableAdversary(Adversary):
    """Wrap any adversary so the topology only changes every ``T`` rounds.

    This is the paper's T-stability requirement (Section 8): the entire
    network is static within each block of ``T`` consecutive rounds.  The
    cached block topology is returned as the *same object* every round of
    the block, and a topology remembers that it validated, so the runner
    checks it once per block instead of once per round.
    """

    def __init__(self, inner: Adversary, stability: int):
        if stability < 1:
            raise ValueError(f"stability T must be >= 1, got {stability}")
        self.inner = inner
        self.stability = stability
        self._current: Topology | None = None
        self._current_block = -1

    @property
    def sees_messages(self) -> bool:  # type: ignore[override]
        return self.inner.sees_messages

    def choose_topology(self, round_index, n, state, messages=None):
        block = round_index // self.stability
        if block != self._current_block or self._current is None:
            self._current = self.inner.choose_topology(round_index, n, state, messages)
            self._current_block = block
        return self._current

    def reset(self) -> None:
        self.inner.reset()
        self._current = None
        self._current_block = -1
