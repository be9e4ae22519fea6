"""Mask-native round topologies: per-node neighbour bitmasks.

Most of a round engine's non-protocol time is topology work: building
each round's graph, checking its connectivity, and iterating adjacency
during delivery.  Just as the GF(2) coding layer became fast by
representing coded vectors as single Python ints (see
:mod:`repro.coding.subspace`), the topology layer becomes fast by
representing a round graph as ``n`` integer bitmasks: bit ``v`` of
``masks[u]`` is set iff ``{u, v}`` is an edge.  On that representation

* the two cliques of a bottleneck/split topology are two mask fills
  (O(n) big-int ops) instead of O(n^2) ``add_edges_from`` calls,
* connectivity is a mask BFS whose inner step is one word-parallel OR over
  the frontier (O(E/64) machine words total), and
* delivery iterates the set bits of one int instead of an adjacency dict.

:class:`Topology` is immutable and hashable (structural hash over the mask
rows), which is what lets the runner validate each *distinct* topology once
instead of once per round (:meth:`Topology.validate` remembers its
success on the object).  It is the only type an adversary may return for
a round (:func:`as_topology` enforces that).  It
offers the small read surface the rest of the code base needs (``nodes``,
``edges``, ``neighbors_tuple``, ``number_of_edges``), and
every graph algorithm in the package runs on it directly, the Section 8.1
power graph, MIS and patch decomposition included
(:mod:`repro.network.patches`).

Three derived adjacency representations are cached per object for the
round engines:

* :meth:`Topology.neighbors_tuple` — the per-node neighbour tuple the mask
  engine's delivery loop reads (filled lazily node by node, so a static or
  T-stable topology pays the bit iteration once, not once per round);
* :meth:`Topology.packed_adjacency` — the ``(n, ceil(n/64))`` ``uint64``
  matrix (bit ``v`` of row ``u`` ⇔ edge ``{u, v}``, 64 neighbours per
  machine word) that the vectorised kernel engine consumes;
* :meth:`Topology.csr_adjacency` — the flattened neighbour-index /
  offset (CSR) arrays that turn whole-network delivery into one numpy
  gather plus one ``reduceat``, with :meth:`Topology.csr_receivers`, the
  receiving node of every CSR entry, for counting deliveries per node.

The mask rows and the packed matrix are the one bit-row layout of
:mod:`repro.bits`, which holds every conversion between them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..bits import (
    iter_bits,
    masks_to_packed,
    packed_to_masks,
    set_bits,
    unpack_bools,
    word_count,
)

__all__ = [
    "Topology",
    "as_topology",
    "path_topology",
    "ring_topology",
    "star_topology",
    "complete_topology",
    "split_topology",
    "clique_pair_topology",
    "random_tree_topology",
    "random_connected_topology",
    "shifted_ring_topology",
]


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _batch_csr(
    edges: np.ndarray, rounds: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays of every round of a batch, from its set-bit positions.

    ``edges`` are the ascending flat positions ``(r * n + u) * n + v`` of
    the batch's adjacency bits.  Returns ``(indices, indptr, bounds,
    receivers)``: round ``r``'s neighbour indices are
    ``indices[bounds[r]:bounds[r + 1]]``, indexed by its row offsets
    ``indptr[r]`` (each row of ``indptr`` starts at 0), and ``receivers``
    holds the row ``u`` of every entry, in the narrowest unsigned dtype
    that holds ``n - 1`` (``np.bincount`` casts it safely to ``intp``).
    The CSR arrays and the receivers are read-only.
    """
    rows, indices = np.divmod(edges, n)  # rows: global row id r * n + u
    indptr = np.zeros((rounds, n + 1), dtype=np.int64)
    counts = np.bincount(rows, minlength=rounds * n).reshape(rounds, n)
    np.cumsum(counts, axis=1, out=indptr[:, 1:])
    bounds = np.zeros(rounds + 1, dtype=np.int64)
    np.cumsum(indptr[:, -1], out=bounds[1:])
    receivers = np.remainder(rows, n, out=rows).astype(np.min_scalar_type(max(n - 1, 0)))
    indices.flags.writeable = False
    indptr.flags.writeable = False
    receivers.flags.writeable = False
    return indices, indptr, bounds, receivers


class Topology:
    """An immutable round topology stored as per-node neighbour bitmasks.

    Attributes
    ----------
    n:
        Number of nodes; the node set is always ``0..n-1``.
    masks:
        Tuple of ``n`` ints; bit ``v`` of ``masks[u]`` is set iff ``{u, v}``
        is an edge.  Rows must be symmetric and self-loop free (checked by
        :meth:`validate`, which the runner calls once per distinct object).

    Every other slot is a cache filled on first use: the mask rows or the
    packed matrix (whichever the constructor was not given), the structural
    hash, the neighbour tuples, the CSR arrays with their per-entry receiver
    ids, and the validity flag.  :meth:`from_packed_batch` builds a batch's
    topologies as views into one frozen copy of the batch, with the packed
    matrix, the CSR slice and the receiver slice already filled in.
    """

    __slots__ = (
        "n",
        "_masks",
        "_hash",
        "_neighbor_tuples",
        "_packed",
        "_csr",
        "_receivers",
        "_valid",
    )

    def __init__(
        self,
        n: int,
        masks: Sequence[int] | None = None,
        *,
        packed: np.ndarray | None = None,
        pre_validated: bool = False,
    ):
        self.n = n
        if (masks is None) == (packed is None):
            raise ValueError("give exactly one of masks / packed")
        if masks is not None:
            # Coerce rows to Python ints: numpy integers (e.g. rows shifted
            # from node labels drawn from a Generator) would silently wrap at
            # 64 bits and lack arbitrary-precision bit ops.
            self._masks: tuple[int, ...] | None = tuple(int(mask) for mask in masks)
            if len(self._masks) != n:
                raise ValueError(f"need {n} mask rows, got {len(self._masks)}")
            self._packed: np.ndarray | None = None
        else:
            words = word_count(n)
            if packed.shape != (n, words) or packed.dtype != np.uint64:
                raise ValueError(
                    f"packed adjacency must be a ({n}, {words}) uint64 matrix, "
                    f"got {packed.shape} {packed.dtype}"
                )
            # Take a private frozen copy: freezing the caller's array in
            # place (or adopting a view over a writable base) would let
            # external code mutate this "immutable" object after the hash,
            # validity flag or mask rows were derived.
            packed = np.ascontiguousarray(packed)
            if packed.base is not None or packed.flags.writeable:
                packed = packed.copy()
            packed.flags.writeable = False
            self._masks = None
            self._packed = packed
        self._hash: int | None = None
        self._neighbor_tuples: list[tuple[int, ...] | None] | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._receivers: np.ndarray | None = None
        #: True once legality is certain — set by builders whose output is
        #: valid by construction, or after the first successful validate().
        self._valid = bool(pre_validated)

    @property
    def masks(self) -> tuple[int, ...]:
        """The per-node neighbour bitmask rows (lazily derived when the
        topology was constructed from a packed matrix)."""
        if self._masks is None:
            self._masks = tuple(packed_to_masks(self._packed))
        return self._masks

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Topology":
        """Build a topology on ``0..n-1`` from an edge list."""
        masks = [0] * n
        for u, v in edges:
            u, v = int(u), int(v)  # numpy ints would wrap the shift at 64 bits
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, masks)

    @classmethod
    def from_packed(
        cls, n: int, packed: np.ndarray, *, pre_validated: bool = False
    ) -> "Topology":
        """Build a topology directly from a packed ``uint64`` adjacency matrix.

        The integer mask rows are derived lazily, so fully vectorised
        builders (and the kernel engine consuming :meth:`packed_adjacency` /
        :meth:`csr_adjacency`) never materialise per-node Python ints.
        ``pre_validated`` certifies the matrix is a legal round topology by
        construction — reserve it for builders that guarantee symmetry,
        no self-loops and connectedness.
        """
        return cls(n, packed=packed, pre_validated=pre_validated)

    @classmethod
    def from_packed_batch(
        cls, n: int, batch: np.ndarray, *, pre_validated: bool = False
    ) -> list["Topology"]:
        """One topology per round of a packed ``(rounds, n, words)`` batch.

        The batch is copied once into a private read-only array, and each
        round's topology is a view of its slice of that copy: no caller
        holds a writable reference to what the topologies read.  The CSR
        arrays of every round are built together, with one unpack, one
        ``flatnonzero`` and one ``(rounds, n + 1)`` offset cumsum for the
        whole batch, and each topology gets its read-only CSR and receiver
        slices pre-filled, so :meth:`csr_adjacency` and
        :meth:`csr_receivers` cost the engines nothing.  ``pre_validated``
        has the meaning of :meth:`from_packed`, for every round.
        """
        words = word_count(n)
        if batch.ndim != 3 or batch.shape[1:] != (n, words) or batch.dtype != np.uint64:
            raise ValueError(
                f"packed batch must be a (rounds, {n}, {words}) uint64 array, "
                f"got {batch.shape} {batch.dtype}"
            )
        batch = np.array(batch, order="C")
        edges = np.flatnonzero(unpack_bools(batch, n))
        return cls._adopt_batch(n, batch, edges, pre_validated)

    @classmethod
    def _adopt_batch(
        cls, n: int, batch: np.ndarray, edges: np.ndarray, pre_validated: bool
    ) -> list["Topology"]:
        """:meth:`from_packed_batch` over a batch the caller hands over.

        ``batch`` is a C-contiguous ``(rounds, n, words)`` ``uint64`` array
        that no other code will write again (it is frozen here, not
        copied), and ``edges`` its ascending set-bit positions
        ``(r * n + u) * n + v``.  The per-round objects skip ``__init__``:
        its copy and shape checks have already been done for the batch.
        """
        batch.flags.writeable = False
        indices, indptr, bounds, receivers = _batch_csr(edges, batch.shape[0], n)
        bounds = bounds.tolist()
        topologies = []
        for index in range(batch.shape[0]):
            start, stop = bounds[index], bounds[index + 1]
            topology = cls.__new__(cls)
            topology.n = n
            topology._masks = None
            topology._hash = None
            topology._neighbor_tuples = None
            topology._packed = batch[index]
            topology._csr = (indices[start:stop], indptr[index])
            topology._receivers = receivers[start:stop]
            topology._valid = bool(pre_validated)
            topologies.append(topology)
        return topologies

    # ------------------------------------------------------------------
    # the read surface
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> range:
        return range(self.n)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` tuples with ``u < v`` (plus any self-loops)."""
        out = []
        for u, mask in enumerate(self.masks):
            for v in iter_bits(mask >> u):
                out.append((u, u + v))
        return out

    def neighbors_tuple(self, u: int) -> tuple[int, ...]:
        """The neighbours of ``u`` in ascending order, as a cached tuple.

        Filled lazily one node at a time, so the first delivery loop over a
        static or T-stable topology pays the per-bit iteration once and
        every later round reads the tuple directly.
        """
        cache = self._neighbor_tuples
        if cache is None:
            cache = self._neighbor_tuples = [None] * self.n
        cached = cache[u]
        if cached is None:
            cached = cache[u] = tuple(iter_bits(self.masks[u]))
        return cached

    def packed_adjacency(self) -> np.ndarray:
        """The adjacency as an ``(n, ceil(n/64))`` ``uint64`` matrix.

        Bit ``v`` of row ``u`` (word ``v // 64``, bit ``v % 64``,
        little-endian words) is set iff ``{u, v}`` is an edge — the same
        LSB-first convention as the integer ``masks``.  Built once per
        object and cached; the returned array is marked read-only.
        """
        if self._packed is None:
            packed = masks_to_packed(self.masks, word_count(self.n))
            packed.flags.writeable = False
            self._packed = packed
        return self._packed

    def csr_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened neighbour indices plus row offsets (CSR form).

        Returns ``(indices, indptr)`` where ``indices[indptr[u]:indptr[u+1]]``
        are the neighbours of ``u`` in ascending order.  This is what lets
        the kernel engine deliver a whole round with one fancy-index gather
        and one ``np.bitwise_or.reduceat`` instead of per-node Python loops.
        Cached per object, like :meth:`packed_adjacency`, and read-only:
        topologies built by :meth:`from_packed_batch` share one batch-wide
        ``indices`` array, so an in-place write would corrupt other rounds.
        """
        if self._csr is None:
            edges = np.flatnonzero(unpack_bools(self.packed_adjacency(), self.n))
            indices, indptr, _, receivers = _batch_csr(edges, 1, self.n)
            self._csr = (indices, indptr[0])
            self._receivers = receivers
        return self._csr

    def csr_receivers(self) -> np.ndarray:
        """The receiving node of every :meth:`csr_adjacency` entry.

        Entry ``i`` lies in row ``u`` (``indptr[u] <= i < indptr[u + 1]``)
        and this array holds that ``u``: the receiver of the delivery from
        neighbour ``indices[i]``.  It lets the round loop tell each entry's
        delivery useful or useless with one gather of the receivers' change
        flags.  The ids are stored in the narrowest unsigned dtype that
        holds ``n - 1``; the array is cached with the CSR and read-only.
        """
        if self._receivers is None:
            self.csr_adjacency()
        return self._receivers

    def number_of_edges(self) -> int:
        total = sum(mask.bit_count() for mask in self.masks)
        loops = sum((mask >> u) & 1 for u, mask in enumerate(self.masks))
        return (total - loops) // 2 + loops

    # ------------------------------------------------------------------
    # structural identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.masks))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology(n={self.n}, edges={self.number_of_edges()})"

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Mask BFS: expand the frontier by OR-ing neighbour rows.

        Each node joins the frontier at most once, so the total work is one
        word-parallel OR per node — O(E/64) machine words.
        """
        n = self.n
        if n <= 1:
            return True
        masks = self.masks
        reached = 1
        frontier = 1
        while frontier:
            grown = 0
            for u in iter_bits(frontier):
                grown |= masks[u]
            frontier = grown & ~reached
            reached |= frontier
        return reached == _full_mask(n)

    def validate(self, n: int | None = None) -> None:
        """Check the legality of this object as a round topology.

        A legal round topology (Section 4.1) spans exactly the nodes
        ``0..n-1``, is symmetric and self-loop free, and is connected.
        Raises ``ValueError`` on a wrong node count, self-loops, asymmetric
        rows (only reachable by hand-built masks), out-of-range neighbour
        bits, or disconnectedness.

        Topologies that are valid by construction — built by the mask-native
        builders below, or already validated once (the object is immutable)
        — short-circuit, so the per-round validation cost of trusted
        adversaries is a flag test.
        """
        if n is not None and n != self.n:
            raise ValueError(f"topology must have node set 0..{n - 1}, got 0..{self.n - 1}")
        if self._valid:
            return
        full = _full_mask(self.n)
        for u, mask in enumerate(self.masks):
            if mask & ~full:
                raise ValueError(f"mask row {u} has neighbour bits outside 0..{self.n - 1}")
            if (mask >> u) & 1:
                raise ValueError(f"self-loop on node {u} is not allowed")
        for u, mask in enumerate(self.masks):
            for v in iter_bits(mask >> u):
                if not (self.masks[u + v] >> u) & 1:
                    raise ValueError(f"asymmetric edge ({u}, {u + v})")
        if not self.is_connected():
            raise ValueError("round topology must be connected")
        self._valid = True


def as_topology(graph: object, n: int | None = None) -> Topology:
    """Check that a round graph is a :class:`Topology` (the adversary gate).

    Adversaries return ``Topology`` objects; anything else raises
    ``TypeError``.  The input is returned unchanged.  ``n``, when given, is
    checked against the node count.
    """
    if not isinstance(graph, Topology):
        raise TypeError(
            f"adversary returned {type(graph).__name__}; expected Topology "
            "(build one with the topology builders or Topology.from_edges)"
        )
    if n is not None and graph.n != n:
        raise ValueError(f"topology must have node set 0..{n - 1}, got 0..{graph.n - 1}")
    return graph


# ----------------------------------------------------------------------
# mask-native builders
# ----------------------------------------------------------------------
#
# Every builder below produces a legal round topology by construction
# (symmetric, self-loop free, connected), so it passes ``pre_validated``
# and the engines' per-round validation collapses to a flag test.


def path_topology(n: int, order: Sequence[int] | None = None) -> Topology:
    """A path over the nodes, optionally in a caller-provided order."""
    nodes = [int(v) for v in order] if order is not None else list(range(n))
    if sorted(nodes) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    masks = [0] * n
    for u, v in zip(nodes, nodes[1:]):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Topology(n, masks, pre_validated=True)


def ring_topology(n: int) -> Topology:
    """A cycle over the nodes (falls back to a path for n < 3)."""
    if n < 3:
        return path_topology(n)
    masks = [0] * n
    for u in range(n):
        v = (u + 1) % n
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Topology(n, masks, pre_validated=True)


def star_topology(n: int, center: int = 0) -> Topology:
    """A star with the given center node: two mask fills."""
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for n={n}")
    center_bit = 1 << center
    others = _full_mask(n) ^ center_bit
    masks = [center_bit] * n
    masks[center] = others
    return Topology(n, masks, pre_validated=True)


def complete_topology(n: int) -> Topology:
    """The complete graph K_n."""
    full = _full_mask(n)
    return Topology(n, [full ^ (1 << u) for u in range(n)], pre_validated=True)


def clique_pair_topology(
    n: int,
    group_a: Sequence[int],
    group_b: Sequence[int],
    bridges: Iterable[tuple[int, int]],
) -> Topology:
    """Two cliques joined by explicit bridge edges — the adaptive-cut shape.

    Each clique is two passes of O(|group|) big-int operations: one to build
    the group mask, one to write every member's row.
    """
    masks = [0] * n
    group_masks = []
    for group in (group_a, group_b):
        group_mask = 0
        for u in group:
            group_mask |= 1 << u
        group_masks.append(group_mask)
        for u in group:
            masks[u] |= group_mask ^ (1 << u)
    bridges = list(bridges)
    for u, v in bridges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    # Valid by construction when the groups cover every node, no bridge is
    # degenerate (a (u, u) bridge would write a self-loop bit), and a bridge
    # joins the two (possibly overlapping) cliques: each clique is
    # internally connected and the cross edge connects them.
    mask_a, mask_b = group_masks
    valid = (
        (mask_a | mask_b) == _full_mask(n)
        and all(u != v for u, v in bridges)
        and (
            bool(mask_a & mask_b)
            or any(
                ((mask_a >> u) & 1 and (mask_b >> v) & 1)
                or ((mask_b >> u) & 1 and (mask_a >> v) & 1)
                for u, v in bridges
            )
        )
    )
    return Topology(n, masks, pre_validated=valid and n > 0)


def split_topology(n: int, informed: Iterable[int], bridge_pairs: int = 1) -> Topology:
    """Connect an informed group and an uninformed group with few bridges.

    Each side is a clique (information mixes freely within a side) and
    ``bridge_pairs`` edges cross the cut, pairing the ``i``-th informed and
    uninformed nodes cyclically (at least one bridge when both sides are
    non-empty).  Adaptive adversaries use this to slow the spread of a token
    or coded direction to the minimum connectivity allows.
    """
    informed_list = sorted({v for v in informed if 0 <= v < n})
    informed_set = set(informed_list)
    uninformed = [v for v in range(n) if v not in informed_set]
    bridges = []
    if informed_list and uninformed:
        for i in range(max(1, bridge_pairs)):
            bridges.append(
                (informed_list[i % len(informed_list)], uninformed[i % len(uninformed)])
            )
    return clique_pair_topology(n, informed_list, uninformed, bridges)


def random_tree_topology(n: int, rng: np.random.Generator) -> Topology:
    """A random labelled tree by random attachment.

    Draws one permutation of the nodes, then attaches its ``i``-th node to a
    uniformly chosen earlier one (one ``rng.integers`` per edge, in order).
    """
    masks = [0] * n
    if n <= 1:
        return Topology(n, masks, pre_validated=True)
    order = list(rng.permutation(n))
    for i in range(1, n):
        parent = int(order[int(rng.integers(0, i))])
        child = int(order[i])
        masks[child] |= 1 << parent
        masks[parent] |= 1 << child
    return Topology(n, masks, pre_validated=True)


def random_connected_topology(
    n: int, rng: np.random.Generator, extra_edge_prob: float = 0.1
) -> Topology:
    """A random spanning tree plus random extra edges.

    After :func:`random_tree_topology`, draws a Poisson number of extra
    edges with mean ``extra_edge_prob * n(n-1)/2`` and adds each as a
    uniformly random node pair (self-pairs and repeats add nothing), so
    sparse graphs never materialise all ``O(n^2)`` pairs.
    """
    if not 0 <= extra_edge_prob <= 1:
        raise ValueError(f"extra_edge_prob must be in [0,1], got {extra_edge_prob}")
    tree = random_tree_topology(n, rng)
    if n < 3 or extra_edge_prob == 0:
        return tree
    masks = list(tree.masks)
    expected = extra_edge_prob * n * (n - 1) / 2  # repro: allow[REP402] scalar float expectation, no uint64 operands
    count = int(rng.poisson(expected))
    for _ in range(count):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return Topology(n, masks, pre_validated=True)


def shifted_ring_topology(n: int, round_index: int) -> Topology:
    """A ring re-labelled by a round-dependent rotation and stride.

    Nodes change neighbours every round while the graph stays one cycle: a
    simple fully dynamic adversary that defeats naive pipelining.  Falls
    back to a path for ``n < 3``.

    Built fully vectorised in packed form — a fresh per-round ring is the
    kernel engine's hottest topology workload, and a Python per-node edge
    loop would dominate its round cost.  The stride is coprime to ``n``, so
    the walk is one ``n``-cycle: connected by construction.
    """
    if n < 3:
        return path_topology(n)
    shift = round_index % n
    stride = 1 + (round_index % max(1, n - 2))
    while np.gcd(stride, n) != 1:
        stride += 1
    walk = (shift + np.arange(n + 1, dtype=np.int64) * stride) % n
    u, v = walk[:-1], walk[1:]
    packed = np.zeros((n, word_count(n)), dtype=np.uint64)
    set_bits(packed, (np.concatenate([u, v]),), np.concatenate([v, u]))
    return Topology.from_packed(n, packed, pre_validated=True)
