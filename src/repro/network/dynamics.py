"""Dynamic-network scenario subsystem: packed-native topology schedules.

The engines (PR 2/3) made round *execution* cheap; what remained expensive —
and thin — was round *generation*: every in-repo adversary builds one
topology per round in Python, and the scenario space stopped at hand-written
shapes (rings, stars, cliques).  This module turns whole topology
*schedules* into first-class packed data: a :class:`DynamicsProcess` yields
batches of rounds as ``(rounds, n, ceil(n/64))`` ``uint64`` adjacency
matrices — the same packed form :meth:`Topology.packed_adjacency` feeds the
kernel engine, the bit-row layout of :mod:`repro.bits` — with all per-edge
work vectorised in numpy.

Three layers:

* **Processes** generate raw dynamic-graph evolutions studied in the
  dynamic-network literature: :class:`EdgeMarkovProcess` (independent
  per-edge birth/death chains, the standard *evolving graph* model),
  :class:`RandomWaypointProcess` (geometric radio connectivity under
  random-waypoint mobility, as in ad-hoc/radio-network work),
  :class:`ChurnProcess` (per-round bounded join/leave with inactive nodes
  isolated), :class:`DegreeBoundedRewiringProcess` (worst-case-flavoured
  edge rewiring under a degree cap) and :class:`PrecomputedSchedule`
  (replay of a recorded schedule).
* **Transformers** are processes wrapping processes, repairing raw
  evolutions into model-compliant adversaries: :class:`ConnectivityPatcher`
  (per-round connectivity, the paper's standing assumption on ``G(t)``)
  and :class:`TIntervalEnforcer` (sliding-window T-interval connectivity in
  the sense of Kuhn–Lynch–Oshman, by unioning a cheap spanning structure
  derived from each window's intersection).
* :class:`ScheduleAdversary` bridges any process into
  :func:`~repro.simulation.runner.run_dissemination`: topologies are served
  from buffered batches (:meth:`DynamicsProcess.topologies`: views into one
  frozen batch, every round's CSR arrays and receiver ids pre-filled),
  marked ``pre_validated`` when the process guarantees legality, with a
  cheap ``reset()`` for sweep reuse.

The catalog's hot pipeline — :class:`EdgeMarkovProcess` →
:class:`ConnectivityPatcher` → :class:`ScheduleAdversary` — works one batch
at a time: the only per-round Python left is the edge-Markov chain step
(one ``rng.random`` draw per round, which fixes the schedule's draw order)
and the construction of each round's :class:`Topology` view.  The chain's
set-bit positions travel with the packed batch through the patcher into
the CSR build, so the batch is never unpacked, and its edge pairs feed the
patcher's component labelling, which hooks every edge once.

The named scenario catalog built on top of these pieces lives in
:mod:`repro.scenarios`.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..bits import (
    iter_bits,
    pack_bools,
    packed_to_masks,
    set_bits,
    unpack_bools,
    word_count,
)
from .adversary import Adversary
from .topology import Topology

__all__ = [
    "DynamicsProcess",
    "EdgeMarkovProcess",
    "RandomWaypointProcess",
    "ChurnProcess",
    "DegreeBoundedRewiringProcess",
    "PrecomputedSchedule",
    "ConnectivityPatcher",
    "TIntervalEnforcer",
    "ScheduleAdversary",
    "batch_component_labels",
    "spanning_structure",
]


# ----------------------------------------------------------------------
# packed-matrix helpers (shared with the fault strategies)
# ----------------------------------------------------------------------


def batch_component_labels(
    first: np.ndarray, second: np.ndarray, rounds: int, n: int
) -> np.ndarray:
    """Connected-component labels of every round of a batch, in one pass.

    Nodes are numbered globally as ``r * n + u``.  ``first`` and ``second``
    hold every undirected edge of the batch once, as the global ids
    ``(r * n + u, r * n + v)`` of its endpoints with ``u < v``
    (:func:`_pairs_from_positions` derives them from a batch's set-bit
    positions).  Returns a ``(rounds, n)`` ``int64`` array holding, for
    each node, the lowest member of its component in that round — so the
    component representatives are exactly the nodes labelled with
    themselves, in ascending order.

    The whole batch is labelled at once by hooking and pointer jumping:
    each pass hooks the larger of two roots joined by an edge under the
    smaller one (``np.minimum.at``), then jumps ``parent = parent[parent]``
    until every node points at its root.  Parents only ever decrease, so a
    root is the minimum of its tree, and the passes stop once no edge joins
    two roots.  In the first pass every node is still a root and
    ``first < second``, so it hooks ``second`` under ``first`` with no root
    lookup.
    """
    src, dst = first, second
    parent = np.arange(rounds * n, dtype=np.int64)
    np.minimum.at(parent, dst, src)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        root_src, root_dst = parent[src], parent[dst]
        split = np.flatnonzero(root_src != root_dst)
        if not split.size:
            break
        src, dst = src[split], dst[split]
        root_src, root_dst = root_src[split], root_dst[split]
        np.minimum.at(
            parent, np.maximum(root_src, root_dst), np.minimum(root_src, root_dst)
        )
    return parent.reshape(rounds, n) - (np.arange(rounds, dtype=np.int64) * n)[:, None]


def _pairs_from_positions(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(first, second)`` edge pairs of :func:`batch_component_labels`
    from a symmetric batch's ascending set-bit positions ``(r * n + u) * n + v``.

    Keeps the upper bit (``u < v``) of every edge.
    """
    rows, cols = np.divmod(edges, n)  # rows: global node r * n + u
    offset = rows % n
    upper = cols > offset
    first = rows[upper]
    return first, first + (cols[upper] - offset[upper])


def spanning_structure(packed: np.ndarray, n: int) -> np.ndarray:
    """A connected spanning structure extending a packed adjacency matrix.

    Returns an ``(n, words)`` packed matrix holding a BFS spanning tree of
    each connected component of the input *plus* a path over the component
    representatives (lowest member of each component, ascending) — at most
    ``n - 1`` tree edges and ``components - 1`` repair edges.  Only the
    repair edges are new; every tree edge already exists in the input.  This
    is the cheap structure the :class:`TIntervalEnforcer` unions over a
    window: repairing via the *intersection's own* BFS forest keeps the
    enforced schedule as close to the raw process as connectivity allows.
    """
    masks = packed_to_masks(packed)
    full = (1 << n) - 1
    seen = 0
    tree_u: list[int] = []
    tree_v: list[int] = []
    representatives: list[int] = []
    while seen != full:
        remaining = ~seen & full
        root = (remaining & -remaining).bit_length() - 1
        representatives.append(root)
        reached = 1 << root
        frontier = [root]
        while frontier:
            next_frontier: list[int] = []
            for u in frontier:
                new = masks[u] & ~reached
                reached |= new
                for v in iter_bits(new):
                    tree_u.append(u)
                    tree_v.append(v)
                    next_frontier.append(v)
            frontier = next_frontier
        seen |= reached
    first = tree_u + representatives[:-1]
    second = tree_v + representatives[1:]
    out = np.zeros((n, word_count(n)), dtype=np.uint64)
    set_bits(out, (np.asarray(first + second, dtype=np.int64),), second + first)
    return out


# ----------------------------------------------------------------------
# the process contract
# ----------------------------------------------------------------------


class DynamicsProcess(abc.ABC):
    """A (possibly infinite) topology schedule generated in packed batches.

    Contract:

    * :meth:`next_batch` returns the next ``rounds`` round topologies as a
      *fresh, caller-owned* ``(rounds, n, words)`` ``uint64`` array —
      transformers mutate batches in place, so a process must never hand
      out views of internal state;
    * the schedule is a deterministic function of the constructor arguments:
      :meth:`reset` rewinds to round 0 and replays the identical schedule
      (this is what makes :class:`ScheduleAdversary.reset` cheap and sweep
      reuse sound);
    * rows are symmetric and self-loop free.  *Connectivity is not
      guaranteed* unless :attr:`guarantees_connected` is True — raw
      processes model disconnection (that is what churn and radio fading
      do), and the transformers repair them into model-compliant schedules.
    """

    #: True when every generated round is connected (and hence a legal
    #: paper-model topology) *by construction*; the transformers set it.
    guarantees_connected: bool = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        self.n = int(n)
        self.words = word_count(self.n)

    @abc.abstractmethod
    def reset(self) -> None:
        """Rewind to round 0; the replayed schedule must be identical."""

    @abc.abstractmethod
    def next_batch(self, rounds: int) -> np.ndarray:
        """The next ``rounds`` topologies, packed ``(rounds, n, words)``."""

    def next_batch_with_edges(self, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`next_batch` plus the ascending flat positions of its set bits.

        The positions are ``(r * n + u) * n + v``, exactly
        ``np.flatnonzero(unpack_bools(batch, n))``, which is what this
        default computes.  A process that produces the positions anyway
        overrides it to hand them over instead, and a transformer that needs
        them consumes its inner process through this method (or through
        :meth:`_next_batch_with_pairs`, which adds the edge pairs).
        Advances the schedule by ``rounds`` like :meth:`next_batch`.
        """
        batch = self.next_batch(rounds)
        return batch, np.flatnonzero(unpack_bools(batch, self.n))

    def _next_batch_with_pairs(
        self, rounds: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`next_batch_with_edges` plus every edge once, as the
        ``(first, second)`` pairs :func:`batch_component_labels` reads.

        This default derives the pairs from the positions; a process that
        computes them anyway overrides it.
        """
        batch, edges = self.next_batch_with_edges(rounds)
        return (batch, edges, *_pairs_from_positions(edges, self.n))

    def topologies(self, rounds: int) -> list[Topology]:
        """Materialise the next ``rounds`` rounds as :class:`Topology` objects.

        This is how :class:`ScheduleAdversary` pulls the schedule it serves
        to the engines.  The batch and its set-bit positions come from
        :meth:`next_batch_with_edges`, and the topologies are built the way
        :meth:`Topology.from_packed_batch` builds them, but over the fresh
        batch itself (it is caller-owned, so it needs no second copy).
        Every round's CSR arrays and receiver ids are pre-filled.
        Topologies are marked ``pre_validated`` exactly when the process
        guarantees legality.
        """
        batch, edges = self.next_batch_with_edges(rounds)
        return Topology._adopt_batch(self.n, batch, edges, self.guarantees_connected)

    def _empty_batch(self, rounds: int) -> np.ndarray:
        return np.zeros((rounds, self.n, self.words), dtype=np.uint64)


# ----------------------------------------------------------------------
# raw processes
# ----------------------------------------------------------------------


class EdgeMarkovProcess(DynamicsProcess):
    """Independent per-edge birth/death chains (the evolving-graph model).

    Every unordered pair ``{u, v}`` runs its own two-state Markov chain:
    an absent edge appears with probability ``p_birth`` per round, a present
    edge disappears with probability ``p_death``.  The stationary edge
    density is ``p_birth / (p_birth + p_death)``; the initial state is drawn
    iid at that density (override with ``initial_density``), so the schedule
    starts in stationarity.

    A batch is built in two steps, both vectorised over the
    ``n (n - 1) / 2`` pair slots (ordered like ``np.triu_indices(n, 1)``).
    Per round, one ``rng.random`` draw over every slot advances all chains
    at once, and the round's present slots are kept as an index array.
    Then two lookup tables map the set slots of the whole batch to their
    ``(u, v)`` pairs, which give the global edge pairs
    ``(r * n + u, r * n + v)`` and the flat positions of both bits of each
    pair, sorted once.  Those positions are scattered into a
    ``(rounds, n, n)`` bool array, which is packed, and
    :meth:`next_batch_with_edges` returns them with the packed batch, so no
    consumer unpacks the batch to find them again;
    :meth:`_next_batch_with_pairs` hands over the edge pairs as well.
    Between batches the process holds only the present slots and the two
    tables.
    """

    def __init__(
        self,
        n: int,
        p_birth: float = 0.05,
        p_death: float = 0.25,
        seed: int = 0,
        initial_density: float | None = None,
    ):
        super().__init__(n)
        for name, p in (("p_birth", p_birth), ("p_death", p_death)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.p_birth = float(p_birth)
        self.p_death = float(p_death)
        if initial_density is None:
            total = self.p_birth + self.p_death
            # repro: allow[REP402] scalar ratio of two Python floats, no uint64 operands
            initial_density = float(self.p_birth / total) if total > 0 else 0.0
        if not 0.0 <= initial_density <= 1.0:
            raise ValueError(f"initial_density must be in [0, 1], got {initial_density}")
        self.initial_density = float(initial_density)
        self.seed = seed
        #: Endpoints ``u < v`` of every pair slot, in the narrowest unsigned dtype.
        node = np.min_scalar_type(max(self.n - 1, 0))
        self._slot_u, self._slot_v = (
            ends.astype(node) for ends in np.triu_indices(self.n, 1)
        )
        self._slots = self._slot_u.size
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._present = np.flatnonzero(self._rng.random(self._slots) < self.initial_density)

    def next_batch(self, rounds: int) -> np.ndarray:
        return self._next_batch_with_pairs(rounds)[0]

    def next_batch_with_edges(self, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        return self._next_batch_with_pairs(rounds)[:2]

    def _next_batch_with_pairs(self, rounds):
        n = self.n
        edges, first, second = self._advance(rounds)
        # Dense on purpose: freeing it lifts glibc's mmap threshold (see ROADMAP item 1).
        dense = np.zeros(rounds * n * n, dtype=bool)
        dense[edges] = True
        return pack_bools(dense.reshape(rounds, n, n)), edges, first, second

    def _advance(self, rounds: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step every chain ``rounds`` times.

        Returns the ascending flat positions, in a ``(rounds, n, n)`` array,
        of both bits of every set pair, and the pairs themselves as global
        node ids ``(r * n + u, r * n + v)``.  A separate method so that its
        temporaries are freed before the caller allocates the dense batch.
        """
        n, slots = self.n, self._slots
        draw = np.empty(slots)
        alive = np.empty(slots, dtype=bool)
        present = self._present
        per_round = []
        for _ in range(rounds):
            self._rng.random(out=draw)
            # repro: allow[REP401] one chain step per round; the draw order is the schedule
            np.less(draw, self.p_birth, out=alive)
            alive[present] = draw[present] >= self.p_death
            # repro: allow[REP401] one chain step per round; the draw order is the schedule
            present = np.flatnonzero(alive)
            per_round.append(present)
        self._present = present
        slot = np.concatenate(per_round) if rounds else np.empty(0, dtype=np.intp)
        offset = np.repeat(
            np.arange(rounds, dtype=np.intp) * n, [each.size for each in per_round]
        )
        u, v = self._slot_u[slot], self._slot_v[slot]
        first, second = offset + u, offset + v
        # Both bits of every pair written into one array: no separate upper
        # and lower arrays alive beside it, which lowers the peak RSS.
        pairs = slot.size
        edges = np.empty(2 * pairs, dtype=np.intp)
        upper, lower = edges[:pairs], edges[pairs:]
        np.multiply(first, n, out=upper)
        upper += v
        np.multiply(second, n, out=lower)
        lower += u
        edges.sort()
        return edges, first, second


class RandomWaypointProcess(DynamicsProcess):
    """Geometric radio connectivity under random-waypoint mobility.

    Nodes live in an ``area x area`` square; each picks a uniform waypoint,
    moves toward it at ``speed`` per round, and draws a fresh waypoint on
    arrival.  The round topology is the unit-disk graph of the current
    positions: an edge wherever two nodes are within ``radius``.  Positions,
    motion and the pairwise-distance adjacency are all whole-array numpy
    operations.
    """

    def __init__(
        self,
        n: int,
        radius: float,
        speed: float = 0.05,
        seed: int = 0,
        area: float = 1.0,
    ):
        super().__init__(n)
        if radius <= 0 or speed <= 0 or area <= 0:
            raise ValueError("radius, speed and area must all be positive")
        self.radius = float(radius)
        self.speed = float(speed)
        self.area = float(area)
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._pos = self._rng.random((self.n, 2)) * self.area
        self._way = self._rng.random((self.n, 2)) * self.area

    def next_batch(self, rounds: int) -> np.ndarray:
        n = self.n
        r2 = self.radius * self.radius
        dense = np.zeros((rounds, n, n), dtype=bool)
        pos, way = self._pos, self._way
        # Motion is sequential (arrivals draw fresh waypoints), so this is a
        # per-round loop of whole-network array operations.
        for r in range(rounds):
            delta = way - pos
            # repro: allow[REP401] one motion step per round over all nodes
            dist = np.hypot(delta[:, 0], delta[:, 1])
            arrived = dist <= self.speed
            # repro: allow[REP401] one motion step per round over all nodes
            step = np.divide(self.speed, dist, out=np.zeros_like(dist), where=dist > 0)
            # repro: allow[REP401] one motion step per round over all nodes
            pos = np.where(arrived[:, None], way, pos + delta * step[:, None])
            count = int(arrived.sum())
            if count:
                way = way.copy()
                way[arrived] = self._rng.random((count, 2)) * self.area
            diff = pos[:, None, :] - pos[None, :, :]
            dense[r] = (diff * diff).sum(axis=-1) <= r2
        self._pos, self._way = pos, way
        diagonal = np.arange(n)
        dense[:, diagonal, diagonal] = False
        return pack_bools(dense)


class ChurnProcess(DynamicsProcess):
    """Per-round bounded node churn layered over any inner process.

    An activity mask tracks which nodes are currently up; every round at
    most ``max_churn`` nodes toggle (a uniform count of candidates is drawn,
    each joining if down and leaving if up), and departures are refused
    whenever they would drop the live population below ``min_active``.
    Inactive nodes are *isolated*: their adjacency rows are zeroed and one
    packed AND clears their columns, so the inner process's edges among live
    nodes pass through untouched.

    Raw churn schedules are intentionally disconnected (down nodes have no
    edges); compose with :class:`ConnectivityPatcher` or
    :class:`TIntervalEnforcer` before feeding an engine.  Note what
    composition means for the model: the paper requires every round graph to
    be connected over the *fixed* node set, so a repaired schedule cannot
    keep a down node literally absent — the transformer re-attaches it
    through a repair edge, degrading it from its full process neighbourhood
    to a single lifeline.  The ``max_churn`` bound is therefore a property
    of the underlying activity process, not of the repaired graphs.  With
    ``record_activity`` the per-round activity masks are kept in
    :attr:`activity_history` for analysis and the churn-bound property
    tests.

    With ``lifeline=False`` a departure is *permanent*: a down node is
    never toggled back up, modelling a true crash rather than churn.  This
    deliberately deviates from the paper's model (a fixed node set with
    every round graph connected over all ``n`` nodes — permanently absent
    nodes make that unsatisfiable), so lifeline-free schedules are not fed
    to the engines as topologies; they exist to *derive* crash schedules
    for the fault axis (:func:`~repro.network.faults.crash_schedule_from_churn`),
    where the topology keeps its repair edges and the crash semantics live
    in the delivery layer instead.
    """

    def __init__(
        self,
        inner: DynamicsProcess,
        max_churn: int = 1,
        min_active: int = 2,
        seed: int = 0,
        record_activity: bool = False,
        lifeline: bool = True,
    ):
        super().__init__(inner.n)
        if max_churn < 0:
            raise ValueError(f"max_churn must be >= 0, got {max_churn}")
        if not 1 <= min_active <= inner.n:
            raise ValueError(f"min_active must be in 1..{inner.n}, got {min_active}")
        self.inner = inner
        self.max_churn = int(max_churn)
        self.min_active = int(min_active)
        self.seed = seed
        self.record_activity = bool(record_activity)
        self.lifeline = bool(lifeline)
        self.activity_history: list[np.ndarray] = []
        self.reset()

    def reset(self) -> None:
        self.inner.reset()
        self._rng = np.random.default_rng(self.seed)
        self._active = np.ones(self.n, dtype=bool)
        self.activity_history = []

    def next_batch(self, rounds: int) -> np.ndarray:
        batch = self.inner.next_batch(rounds)
        active = self._active
        for r in range(rounds):
            # A bound above n is legal (it just never binds): the candidate
            # draw keeps its distribution, the sample is clamped to the
            # population.
            toggles = min(int(self._rng.integers(0, self.max_churn + 1)), self.n)
            if toggles:
                for uid in self._rng.choice(self.n, size=toggles, replace=False):
                    uid = int(uid)
                    if active[uid]:
                        if int(active.sum()) > self.min_active:
                            active[uid] = False
                    elif self.lifeline:
                        active[uid] = True
            if self.record_activity:
                self.activity_history.append(active.copy())
            batch[r, ~active] = 0
            batch[r] &= pack_bools(active)
        return batch


class DegreeBoundedRewiringProcess(DynamicsProcess):
    """Adversarial-flavoured edge rewiring under a hard degree cap.

    Starts from a ring and, each round, rewires up to ``rewires_per_round``
    edges: a uniformly random present edge is removed and a uniformly random
    absent pair whose endpoints both have degree below ``degree_bound`` is
    inserted (the removal is rolled back if no legal insertion is found, so
    the edge count is invariant).  The result is a slowly-drifting sparse
    graph that can disconnect at any time — the degree-bounded worst-case
    regime the token-forwarding lower bounds live in.  Compose with a
    transformer for model legality.
    """

    def __init__(
        self,
        n: int,
        degree_bound: int = 4,
        rewires_per_round: int = 2,
        seed: int = 0,
    ):
        super().__init__(n)
        if n < 3:
            raise ValueError(f"rewiring needs n >= 3, got {n}")
        if degree_bound < 2:
            raise ValueError(f"degree_bound must be >= 2 (the ring start), got {degree_bound}")
        if rewires_per_round < 0:
            raise ValueError(f"rewires_per_round must be >= 0, got {rewires_per_round}")
        self.degree_bound = int(degree_bound)
        self.rewires_per_round = int(rewires_per_round)
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        n = self.n
        self._edges = [(u, (u + 1) % n) if u + 1 < n else (0, n - 1) for u in range(n)]
        self._edge_set = {frozenset(e) for e in self._edges}
        self._degrees = np.full(n, 2, dtype=np.int64)

    def _rewire_once(self) -> None:
        rng = self._rng
        edges = self._edges
        index = int(rng.integers(len(edges)))
        u, v = edges[index]
        edges[index] = edges[-1]
        edges.pop()
        self._edge_set.remove(frozenset((u, v)))
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        for _ in range(16):
            x, y = int(rng.integers(self.n)), int(rng.integers(self.n))
            if (
                x != y
                and self._degrees[x] < self.degree_bound
                and self._degrees[y] < self.degree_bound
                and frozenset((x, y)) not in self._edge_set
            ):
                break
        else:
            x, y = u, v  # no legal insertion found: roll the removal back
        edges.append((x, y))
        self._edge_set.add(frozenset((x, y)))
        self._degrees[x] += 1
        self._degrees[y] += 1

    def next_batch(self, rounds: int) -> np.ndarray:
        # The rewiring itself is sequential Python; each round only snapshots
        # its edge list (always n edges), and one scatter writes the batch.
        snapshots = []
        for _ in range(rounds):
            for _ in range(self.rewires_per_round):
                self._rewire_once()
            snapshots.append(list(self._edges))
        pairs = np.asarray(snapshots, dtype=np.int64).reshape(rounds, self.n, 2)
        round_index = np.repeat(np.arange(rounds, dtype=np.int64), 2 * self.n)
        rows = np.concatenate([pairs[..., 0], pairs[..., 1]], axis=1).ravel()
        cols = np.concatenate([pairs[..., 1], pairs[..., 0]], axis=1).ravel()
        batch = self._empty_batch(rounds)
        set_bits(batch, (round_index, rows), cols)
        return batch


class PrecomputedSchedule(DynamicsProcess):
    """Replay a recorded packed schedule, cycling once it is exhausted.

    ``connected`` certifies every recorded round is a legal connected
    topology — set it only for schedules that came out of a transformer or
    validated :class:`Topology` objects.
    """

    def __init__(self, packed: np.ndarray, *, connected: bool = False):
        if packed.ndim != 3 or packed.dtype != np.uint64 or packed.shape[0] == 0:
            raise ValueError(
                "need a non-empty (rounds, n, words) uint64 schedule, got "
                f"{packed.shape} {packed.dtype}"
            )
        n = packed.shape[1]
        super().__init__(n)
        if packed.shape[2] != self.words:
            raise ValueError(
                f"packed schedule rows must be {self.words} words wide, got {packed.shape[2]}"
            )
        self._schedule = np.ascontiguousarray(packed).copy()
        self.guarantees_connected = bool(connected)
        self.reset()

    @classmethod
    def from_topologies(cls, topologies: Sequence[Topology]) -> "PrecomputedSchedule":
        """Build a replayable schedule from :class:`Topology` objects,
        validating each round."""
        if not topologies:
            raise ValueError("need at least one topology")
        n = topologies[0].n
        for topology in topologies:
            topology.validate(n)
        packed = np.stack([t.packed_adjacency() for t in topologies])
        return cls(packed, connected=True)

    def reset(self) -> None:
        self._position = 0

    def next_batch(self, rounds: int) -> np.ndarray:
        total = self._schedule.shape[0]
        indices = (self._position + np.arange(rounds)) % total
        self._position += rounds
        return self._schedule[indices].copy()


# ----------------------------------------------------------------------
# transformers: raw process -> model-compliant adversary schedule
# ----------------------------------------------------------------------


class ConnectivityPatcher(DynamicsProcess):
    """Per-round connectivity repair (the paper's standing model assumption).

    Every round that comes out disconnected gets a path over its component
    representatives (lowest member of each component, ascending) — the
    minimum number of edges that restores connectivity, deterministic in
    the round graph.  Rounds that are already connected pass through
    bit-identical.

    A batch is repaired as a whole.  The inner batch comes with its set-bit
    positions and its edge pairs (:meth:`DynamicsProcess._next_batch_with_pairs`),
    one :func:`batch_component_labels` pass over the pairs labels every
    round's components, and the repair edges of all rounds are written into the
    packed batch with two fancy-indexed ORs (one per edge direction).  The
    patched batch's positions are the inner ones plus the repair edges, so
    :meth:`topologies` builds the engines' CSR arrays without unpacking the
    batch, and an :class:`EdgeMarkovProcess` batch is never unpacked at all.
    """

    guarantees_connected = True

    def __init__(self, inner: DynamicsProcess):
        super().__init__(inner.n)
        self.inner = inner

    def reset(self) -> None:
        self.inner.reset()

    def next_batch(self, rounds: int) -> np.ndarray:
        return self.next_batch_with_edges(rounds)[0]

    def next_batch_with_edges(self, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        batch, edges, first, second = self.inner._next_batch_with_pairs(rounds)
        labels = batch_component_labels(first, second, batch.shape[0], n)
        # Representatives as global ids r * n + u, ascending; consecutive
        # representatives of the same round are joined by a repair edge.
        representatives = np.flatnonzero(labels == np.arange(n))
        first, second = representatives[:-1], representatives[1:]
        same_round = first // n == second // n
        first, second = first[same_round], second[same_round]
        round_index, a = np.divmod(first, n)
        b = second - round_index * n
        set_bits(batch, (round_index, a), b)
        set_bits(batch, (round_index, b), a)
        # Repair edges join different components, so none is already set.
        repair = np.sort(np.concatenate([first * n + b, (round_index * n + b) * n + a]))
        return batch, np.insert(edges, np.searchsorted(edges, repair), repair)


class TIntervalEnforcer(DynamicsProcess):
    """Enforce sliding-window T-interval connectivity on any raw process.

    The inner schedule is consumed in aligned blocks of ``interval`` rounds.
    For block ``b`` the enforcer intersects the block's rounds, derives a
    cheap connected spanning structure ``S_b`` from that intersection
    (:func:`spanning_structure`: the intersection's own BFS forest plus a
    path over component representatives), and unions ``S_b`` into every
    round of blocks ``b`` *and* ``b + 1``.

    Guarantee: any window of ``interval`` consecutive rounds starts in some
    block ``b`` and ends no later than block ``b + 1``, so the connected
    spanning graph ``S_b`` is present in *every* round of the window — the
    Kuhn–Lynch–Oshman T-interval-connectivity property for all sliding
    windows, not just aligned ones.  Each emitted round contains the
    current block's ``S_b``, so per-round connectivity (and hence engine
    legality) comes for free.
    """

    guarantees_connected = True

    def __init__(self, inner: DynamicsProcess, interval: int):
        super().__init__(inner.n)
        if interval < 1:
            raise ValueError(f"interval T must be >= 1, got {interval}")
        self.inner = inner
        self.interval = int(interval)
        self.reset()

    def reset(self) -> None:
        self.inner.reset()
        self._previous_structure: np.ndarray | None = None
        self._block: np.ndarray | None = None
        self._offset = 0

    def _next_block(self) -> np.ndarray:
        block = self.inner.next_batch(self.interval)
        intersection = np.bitwise_and.reduce(block, axis=0)
        structure = spanning_structure(intersection, self.n)
        block |= structure
        if self._previous_structure is not None:
            block |= self._previous_structure
        self._previous_structure = structure
        return block

    def next_batch(self, rounds: int) -> np.ndarray:
        out = self._empty_batch(rounds)
        filled = 0
        while filled < rounds:
            if self._block is None or self._offset == self._block.shape[0]:
                self._block = self._next_block()
                self._offset = 0
            take = min(rounds - filled, self._block.shape[0] - self._offset)
            out[filled : filled + take] = self._block[self._offset : self._offset + take]
            self._offset += take
            filled += take
        return out


# ----------------------------------------------------------------------
# the bridge into the engines
# ----------------------------------------------------------------------

#: Rounds a :class:`ScheduleAdversary` pulls from its process at a time.
SCHEDULE_BATCH_ROUNDS = 64


class ScheduleAdversary(Adversary):
    """Serve a :class:`DynamicsProcess` schedule to ``run_dissemination``.

    Topologies are pulled from the process in batches of
    :data:`SCHEDULE_BATCH_ROUNDS` rounds through
    :meth:`DynamicsProcess.topologies`, amortising the vectorised
    generation.  Each batch is frozen once, and its :class:`Topology`
    objects are views into it with every round's CSR arrays and receiver
    ids filled in at once, so neither engine rebuilds them per round.
    The topologies are ``pre_validated`` whenever the process guarantees
    connectivity, so a transformed schedule pays zero per-round
    validation, while a raw process's rounds are validated (and rejected
    if disconnected) exactly like any hand-written adversary's.

    ``reset()`` rewinds the process and the buffer, so one adversary object
    is cheaply reusable across sweep repetitions.  The round index must not
    go backwards between resets; skipping forward is allowed (that is how a
    :class:`~repro.network.adversary.TStableAdversary` wrapper, which only
    asks at block starts, consumes a schedule).

    Accepts a process, a recorded ``(rounds, n, words)`` packed array, or a
    sequence of :class:`Topology` objects (the latter two wrapped in a
    cycling :class:`PrecomputedSchedule`).
    """

    def __init__(self, schedule: DynamicsProcess | np.ndarray | Sequence[Topology]):
        if isinstance(schedule, DynamicsProcess):
            process = schedule
        elif isinstance(schedule, np.ndarray):
            process = PrecomputedSchedule(schedule)
        else:
            process = PrecomputedSchedule.from_topologies(list(schedule))
        self.process = process
        self._batch: list[Topology] = []
        self._offset = 0
        self._served = 0
        self._last: Topology | None = None

    def reset(self) -> None:
        self.process.reset()
        self._batch = []
        self._offset = 0
        self._served = 0
        self._last = None

    def _next_topology(self) -> Topology:
        if self._offset == len(self._batch):
            self._batch = self.process.topologies(SCHEDULE_BATCH_ROUNDS)
            self._offset = 0
        topology = self._batch[self._offset]
        self._offset += 1
        return topology

    def choose_topology(self, round_index, n, state, messages=None) -> Topology:
        if n != self.process.n:
            raise ValueError(
                f"schedule generates n={self.process.n} topologies, run has n={n}"
            )
        if round_index < self._served - 1:
            raise ValueError(
                f"schedule already served round {self._served - 1}; rewinding to "
                f"round {round_index} requires reset()"
            )
        while self._served <= round_index:
            self._last = self._next_topology()
            self._served += 1
        if self._last is None:
            raise RuntimeError(
                f"schedule yielded no topology for round {round_index}"
            )
        return self._last
