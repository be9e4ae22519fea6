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
  messages are fixed, receiving a read-only :class:`NodeStateView` per node;
* adversaries with ``sees_messages = True`` are instead called *after* the
  messages for the round have been committed and also receive them.

Concrete adversaries include the oblivious random/periodic families, the
worst-case adaptive "bottleneck" adversaries used in the KLO lower-bound
constructions, and wrappers adding T-stability.

Every adversary returns a mask-native
:class:`~repro.network.topology.Topology` (per-node neighbour bitmasks) —
the bottleneck/split cliques are two mask fills instead of O(n^2) edge
insertions — and reads the cheap ``known_count`` / ``knows`` accessors of
the (lazy) state views.  Custom adversaries build their topologies with the
builders of :mod:`repro.network.topology` or
:meth:`~repro.network.topology.Topology.from_edges`; the runner rejects any
other return type through :func:`~repro.network.topology.as_topology`.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Mapping, Sequence

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
    "NodeStateView",
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


class NodeStateView:
    """Read-only view of a node's knowledge, exposed to adaptive adversaries.

    The view is *lazy*: the runner constructs it from O(1) suppliers, and the
    ``known_token_ids`` frozenset — the expensive part of the old eager
    snapshot — is only materialised if an adversary actually reads it.  The
    in-repo adversaries use :attr:`known_count` (number of decodable tokens)
    and :meth:`knows` (membership test), both O(1); custom adversaries can
    keep reading ``known_token_ids`` unchanged.

    Contract: a view is valid for the round it was issued (nodes do not
    learn between snapshot and ``choose_topology``, so all accessors agree
    there).  It is *not* a durable snapshot — a lazy view retained across
    rounds reads through to the node's then-current knowledge on first
    access.  An adversary that wants cross-round deltas must copy
    ``known_token_ids`` during ``choose_topology``.

    Attributes
    ----------
    uid:
        The node's unique identifier (its index in ``0..n-1``).
    known_token_ids:
        Identifiers of tokens the node can currently decode (built on first
        access when the view is lazy).
    rank:
        Dimension of the node's received coded subspace (0 for non-coding
        protocols).
    extra:
        Protocol-specific scalars (e.g. phase counters) useful for adaptive
        scheduling; adversaries must not rely on specific keys existing.
    """

    __slots__ = ("uid", "rank", "extra", "_known", "_supplier", "_count", "_membership")

    def __init__(
        self,
        uid: int,
        known_token_ids: Iterable | None = None,
        rank: int = 0,
        extra: Mapping[str, int] | None = None,
        *,
        known_supplier: Callable[[], Iterable] | None = None,
        known_count: int | None = None,
        membership: Callable[[object], bool] | None = None,
    ):
        self.uid = uid
        self.rank = rank
        self.extra: Mapping[str, int] = extra if extra is not None else {}
        self._known: frozenset | None = (
            frozenset(known_token_ids) if known_token_ids is not None else None
        )
        self._supplier = known_supplier
        self._count = known_count
        self._membership = membership
        if self._known is None and self._supplier is None:
            self._known = frozenset()

    @property
    def known_token_ids(self) -> frozenset:
        if self._known is None:
            if self._supplier is None:
                raise RuntimeError(
                    "NodeStateView invariant violated: neither a known set "
                    "nor a supplier was provided"
                )
            self._known = frozenset(self._supplier())
        return self._known

    @property
    def known_count(self) -> int:
        """Number of decodable tokens, without materialising the frozenset."""
        if self._count is not None:
            return self._count
        return len(self.known_token_ids)

    def knows(self, token_id: object) -> bool:
        """O(1) membership test for a single token identifier."""
        if self._known is not None:
            return token_id in self._known
        if self._membership is not None:
            return bool(self._membership(token_id))
        return token_id in self.known_token_ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeStateView(uid={self.uid}, known={self.known_count}, rank={self.rank})"


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
        states: Sequence[NodeStateView],
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

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
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

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        topology = as_topology(self._topology_fn(n, round_index))
        topology.validate(n)
        return topology


class RandomConnectedAdversary(Adversary):
    """A fresh random connected graph in every round (oblivious)."""

    def __init__(self, seed: int = 0, extra_edge_prob: float = 0.05):
        self._seed = seed
        self._extra_edge_prob = extra_edge_prob
        self._rng = np.random.default_rng(seed)

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        return random_connected_topology(n, self._rng, self._extra_edge_prob)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


class RandomTreeAdversary(Adversary):
    """A fresh uniformly random spanning tree every round (sparsest legal graphs)."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        return random_tree_topology(n, self._rng)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


class RotatingStarAdversary(Adversary):
    """Star topology whose center moves every round."""

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        return star_topology(n, center=round_index % n)


class ShiftedRingAdversary(Adversary):
    """Ring topology whose labelling is permuted every round."""

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        return shifted_ring_topology(n, round_index)


class PathShuffleAdversary(Adversary):
    """A freshly shuffled path in every round.

    Paths are the sparsest connected graphs with the largest diameter, which
    makes this a natural stress topology for dissemination.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        order = list(self._rng.permutation(n))
        return path_topology(n, order)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


def _rich_poor_split(states: Sequence[NodeStateView], n: int) -> tuple[list[int], list[int]]:
    """Sort nodes by (known tokens, rank) and split into poor/rich halves."""
    ordered = sorted(states, key=lambda s: (s.known_count, s.rank))
    half = n // 2
    poor = [s.uid for s in ordered[:half]]
    rich = [s.uid for s in ordered[half:]]
    return poor, rich


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

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        if n <= 2:
            return complete_topology(n)
        poor, rich = _rich_poor_split(states, n)
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

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        informed = {s.uid for s in states if s.knows(self._target)}
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

    def choose_topology(self, round_index, n, states, messages=None) -> Topology:
        if messages is None or self._usefulness_fn is None or n <= 2:
            return self._fallback.choose_topology(round_index, n, states, messages)
        poor, rich = _rich_poor_split(states, n)
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
    the block, so the runner's identity-keyed validation cache checks it
    once per block instead of once per round.
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

    def choose_topology(self, round_index, n, states, messages=None):
        block = round_index // self.stability
        if block != self._current_block or self._current is None:
            self._current = self.inner.choose_topology(round_index, n, states, messages)
            self._current_block = block
        return self._current

    def reset(self) -> None:
        self.inner.reset()
        self._current = None
        self._current_block = -1
