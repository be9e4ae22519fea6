"""Coded-protocol round kernels riding the batched GF(2) elimination core.

PR 3's kernel engine removed the per-node Python dispatch for the forwarding
family; this module does the same for the network-coding family.  All nodes'
received subspaces live in one :class:`~repro.gf.packed.GF2BasisBatch` — a
stacked ``(n, rank, words)`` uint64 echelon array — and one coded round is
three numpy passes: batched random-combination compose, slot-lockstep XOR
elimination of the delivered vectors, and vectorised decode-readiness.  No
live :class:`~repro.coding.subspace.Subspace` objects exist on the hot path;
:meth:`RoundKernel.to_nodes` materialises them (and the decoded tokens) back
into the protocol nodes at the end of the run.

Three kernels ship here:

* :class:`IndexedBroadcastKernel` — pure RLNC indexed broadcast (Lemma 5.3),
  covering both the randomized protocol and the deterministic pre-committed
  coefficient schedule of Corollary 6.2 over GF(2) (a deterministic row is
  *easier* to batch than an rng draw: parities come straight from the
  schedule, with no zero-resampling).
* :class:`NaiveCodedKernel` — the two-phase naive coded algorithm
  (Corollary 7.1): the smallest-ids flood runs as packed window selections
  over the knowledge matrix, the coded broadcast rides the batch.
* :class:`GreedyForwardKernel` — the gather / elect / broadcast loop of
  Theorem 7.3: random forwarding keeps per-node rng draws (bit-exact stream
  compatibility) over integer-mask knowledge, leader election is a
  vectorised max-flood, and the leader's block broadcast rides the batch.

Equivalence contract: for identical seeds these kernels produce
byte-identical :class:`~repro.simulation.metrics.RunMetrics` with the mask
engine — every rng draw happens against the same per-node
generator in the same order, composed masks are XORs of bit-identical basis
rows in the same order, and innovative/decode flags replicate the per-node
``Subspace`` semantics exactly (``tests/test_coded_kernels.py``).

The multi-phase kernels do *not* assume the phases stay globally
consistent.  Under crash–recovery, partition or adaptive-strategy faults a
node can miss part of the id flood (naive) or of the leader election
(greedy) and start a *different* generation from its peers — differing
selected windows, several self-elected leaders, possibly of different
sizes.  Both kernels mirror the object engines' per-node lazy generations
exactly: concurrent generations are grouped by their size ``k`` into one
:class:`GF2BasisBatch` per distinct ``k``, a node with no generation adopts
the one of the first coded message in its inbox
(``_generation_from_message``), and messages whose ``k`` differs from the
receiver's generation are rejected (the ``num_coefficients`` check).
Mixed-span decodes can therefore yield *foreign* tokens — wrong payloads
for placement ids, or ids outside the placement entirely — which are
learned and marked delivered just like the object ``_learn_token`` path, so
faulted runs stay byte-identical across both engines.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.blocks import block_bits, decode_block, encode_block
from ..algorithms.greedy_forward import GreedyForwardNode, resolved_phase_windows
from ..algorithms.indexed_broadcast import IndexedBroadcastNode
from ..algorithms.naive_coded import NaiveCodedNode
from ..algorithms.token_forwarding import tokens_per_message
from ..coding.rlnc import Generation
from ..gf import GF2Basis, GF2BasisBatch, masks_to_packed, packed_to_masks
from ..network.adversary import NodeStateView
from ..network.topology import _iter_bits
from ..tokens.message import ControlMessage, TokenForwardMessage
from .kernels import (
    KernelUnsupported,
    RoundKernel,
    _full_row,
    _neighbor_or,
    _packed_width,
    _popcount_rows,
    _row_bits,
    _select_lowest_bits,
    register_kernel,
)

__all__ = [
    "IndexedBroadcastKernel",
    "NaiveCodedKernel",
    "GreedyForwardKernel",
]


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorised ``max(1, int(v).bit_length())`` for small non-negative ints."""
    return np.maximum(1, np.frexp(values.astype(np.float64))[1]).astype(np.int64)


def _delivery_pairs(
    indices: np.ndarray, indptr: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (receiver, active sender) pairs of one round, slot-major.

    Slot ``j`` pairs every node of degree ``> j`` with its ``j``-th CSR
    neighbour; concatenating the slots in ascending order lists each node's
    inbox in exactly the ascending-neighbour order the object engines use,
    which is the per-basis insert order
    :meth:`~repro.gf.packed.GF2BasisBatch.insert_batch` honours for repeated
    node ids — so one round's whole delivery is a single fused call.
    """
    empty = np.zeros(0, dtype=np.int64)
    if indices.size == 0:
        return empty, empty
    degrees = np.diff(indptr)
    receiver_parts: list[np.ndarray] = []
    sender_parts: list[np.ndarray] = []
    for slot in range(int(degrees.max())):
        # repro: allow[REP401] loop is per neighbour slot (<= max degree), batched over all receivers
        receivers = np.flatnonzero(degrees > slot)
        senders = indices[indptr[receivers] + slot]
        keep = active[senders]
        if keep.any():
            receiver_parts.append(receivers[keep])
            sender_parts.append(senders[keep])
    if not receiver_parts:
        return empty, empty
    return np.concatenate(receiver_parts), np.concatenate(sender_parts)


def _group_ranks(
    groups: dict[int, GF2BasisBatch], gen_of: np.ndarray, n: int
) -> np.ndarray:
    """Per-node coded rank across the concurrent generation groups."""
    ranks = np.zeros(n, dtype=np.int64)
    for k, core in groups.items():
        # repro: allow[REP401] loop is over distinct generation sizes (one except under faults)
        members = gen_of == k
        ranks[members] = core.ranks[members]
    return ranks


def _deliver_grouped(
    groups: dict[int, GF2BasisBatch],
    gen_of: np.ndarray,
    coded_send: dict[int, np.ndarray],
    receivers: np.ndarray,
    senders: np.ndarray,
    changed: np.ndarray,
) -> None:
    """Adopt orphan receivers, then insert same-generation pairs per group.

    A receiver with no generation joins the group of the *first* message in
    its inbox — the pair arrays are in the object engines' inbox order, so
    ``np.unique``'s first-occurrence index is exactly the message
    ``_generation_from_message`` would have been built from.  Pairs whose
    sender and receiver generations differ are then rejected, mirroring the
    object ``num_coefficients == state.generation.k`` check.
    """
    orphan = gen_of[receivers] == -1
    if orphan.any():
        first_receivers, first_index = np.unique(receivers, return_index=True)
        adopt = gen_of[first_receivers] == -1
        gen_of[first_receivers[adopt]] = gen_of[senders[first_index[adopt]]]
    keep = gen_of[receivers] == gen_of[senders]
    receivers, senders = receivers[keep], senders[keep]
    if not receivers.size:
        return
    pair_k = gen_of[senders]
    for k in np.unique(pair_k).tolist():
        # repro: allow[REP401] loop is over distinct generation sizes (one except under faults)
        sel = pair_k == k
        flags = groups[k].insert_batch(receivers[sel], coded_send[k][senders[sel]])
        changed[receivers[sel][flags]] = True


# ----------------------------------------------------------------------
# RLNC indexed broadcast
# ----------------------------------------------------------------------


@register_kernel(IndexedBroadcastNode)
class IndexedBroadcastKernel(RoundKernel):
    """RLNC indexed broadcast as batched GF(2) matrix ops (Lemma 5.3 / Cor 6.2).

    All per-node subspaces live in one :class:`GF2BasisBatch` with
    ``span_cap = k``: in the canonical instance every transmitted vector is a
    combination of the ``k`` consistent source vectors ``e_i || t_i``, so a
    rank-``k`` basis is saturated and late-round deliveries skip elimination
    entirely.  For the same reason the coefficient block's rank always equals
    the full rank (a combination with zero coefficient part is the zero
    vector), so decode readiness is one ``rank == k`` compare per node and
    the actual Gauss-Jordan payload extraction happens once, vectorised, in
    :meth:`to_nodes`.

    The deterministic-schedule variant (``config.extra['deterministic_schedule']``
    over GF(2)) is supported: coefficient parities come from the committed
    schedule instead of rng draws and the zero combination is *not* resampled
    (a scheduled node broadcasts whatever row it was committed to).
    """

    message_name = "CodedMessage"
    supports_message_views = True

    @classmethod
    def supports(cls, config) -> bool:
        # The batch requires GF(2).  The deterministic variant is fine — over
        # GF(2) only coefficient parities matter (the large-field pipeline of
        # Theorem 6.1 sets field_order accordingly and lands on mask).
        return config.field_order == 2

    def __init__(self, config, placement, token_index, nodes):
        super().__init__(config, placement, token_index, nodes)
        self.nodes = list(nodes)
        if not all(node.state._mask_native for node in self.nodes):
            raise KernelUnsupported(
                "IndexedBroadcastKernel requires every node's GenerationState "
                "to be on the mask-native GF(2) pipeline"
            )
        generation = self.nodes[0].generation
        self.gen_k = generation.k
        self.length = generation.vector_length
        self.message_bits = (
            generation.k
            + generation.payload_symbols
            + max(1, int(generation.generation_id).bit_length())
        )
        # Canonical-instance check: the placement tokens must occupy the
        # dimensions 0..k-1 bijectively.  That is what makes "decoded" mean
        # "knows every placement token" (and what caps every basis at rank k);
        # exotic index_of mappings fall back to the mask engine.
        index_of = config.extra.get("index_of")
        indexes = [
            int(index_of[t.token_id]) if index_of is not None else t.token_id.origin % self.gen_k
            for t in self.tokens
        ]
        if self.k != self.gen_k or sorted(indexes) != list(range(self.gen_k)):
            raise KernelUnsupported(
                "IndexedBroadcastKernel requires the canonical instance: "
                "placement tokens bijectively indexed 0..k-1"
            )
        self.schedule = config.extra.get("deterministic_schedule")
        self.rngs = [node.rng for node in self.nodes]
        self.core = GF2BasisBatch(self.n, self.length, span_cap=self.gen_k)
        self.core.lift_masks(
            [node.state.subspace._gf2.rows_in_insertion_order() for node in self.nodes]
        )
        self.decoded = np.zeros(self.n, dtype=bool)
        self.initial_counts = np.array(
            [len(node.known) for node in self.nodes], dtype=np.int64
        )
        full_mask = (1 << self.k) - 1
        self.initially_full = np.array(
            [node.knowledge_mask() == full_mask for node in self.nodes], dtype=bool
        )
        self._picks: np.ndarray | None = None
        self._send_active: np.ndarray | None = None
        self._wire: np.ndarray | None = None
        self._overrides: dict[int, int] = {}

    # ------------------------------------------------------------------
    def compose_all(self, round_index):
        # Only the rng draws / schedule reads happen here (they are what the
        # per-node streams see); the XOR-combine itself runs lazily in
        # deliver_all, restricted to senders whose message some unsaturated
        # receiver still needs.
        if self.schedule is None:
            active, picks = self.core.draw_random_picks(self.rngs)
        else:
            ranks = self.core.ranks
            active = ranks > 0
            max_rank = int(ranks.max())
            picks = np.zeros((self.n, max(1, max_rank)), dtype=np.uint8)
            for uid in np.flatnonzero(active).tolist():
                rank = int(ranks[uid])
                coefficients = self.schedule.coefficients(uid, round_index, rank)
                picks[uid, :rank] = np.fromiter(
                    (c & 1 for c in coefficients), dtype=np.uint8, count=rank
                )
        self._picks = picks
        self._send_active = active
        self._wire = None
        self._overrides = {}
        sizes = np.where(active, self.message_bits, 0)
        return active, sizes

    def set_wire_overrides(self, overrides):
        # Byzantine replay: listed senders' wire vectors are substituted for
        # this round; both deliver_all and the message views read them.
        self._overrides = dict(overrides)
        self._wire = None

    def _wire_rows(self) -> np.ndarray:
        """The full combined wire matrix for this round (cached, overridden)."""
        if self._wire is None:
            combined = self.core.combine_sorted(self._picks)
            for uid, mask in self._overrides.items():
                combined[uid] = masks_to_packed([mask], self.core.words)[0]
            self._wire = combined
        return self._wire

    def wire_message(self, uid, round_index):
        mask = packed_to_masks(self._wire_rows()[uid : uid + 1])[0]
        return self.nodes[uid].generation.message_from_mask(uid, mask)

    def deliver_all(self, round_index, indices, indptr, active, counts):
        innovative = np.zeros(self.n, dtype=bool)
        receivers, senders = _delivery_pairs(indices, indptr, self._send_active)
        if receivers.size:
            # Saturated receivers short-circuit inside the core anyway; the
            # early filter means the combine below only materialises the
            # messages someone still needs.
            open_receiver = self.core.ranks[receivers] < self.gen_k
            receivers, senders = receivers[open_receiver], senders[open_receiver]
        if receivers.size:
            if self._wire is not None:
                # Message views (or an override pass) already materialised
                # the full wire matrix; a subset combine of the same picks
                # would be bit-identical, so reuse it.
                combined = self._wire
            else:
                needed = np.unique(senders)
                # Subset combining pays a row gather; it only wins once most
                # of the network is saturated and few senders still matter.
                subset = needed if needed.size * 4 <= self.n else None
                combined = self.core.combine_sorted(self._picks, subset)
                for uid, mask in self._overrides.items():
                    combined[uid] = masks_to_packed([mask], self.core.words)[0]
            with self.profiler.span("insert"):
                flags = self.core.insert_batch(receivers, combined[senders])
            innovative[receivers[flags]] = True
        # In-span traffic: the coefficient block's rank equals the full rank,
        # so decode readiness is saturation of the span cap.
        decoded_now = (self.core.ranks >= self.gen_k) & ~self.decoded
        self.decoded |= decoded_now
        self._counts_cache = None
        return innovative | decoded_now

    # ------------------------------------------------------------------
    def _known_counts_now(self) -> np.ndarray:
        return np.where(self.decoded, self.k, self.initial_counts)

    def coded_ranks(self) -> np.ndarray:
        return np.asarray(self.core.ranks, dtype=np.int64)

    def all_complete(self) -> bool:
        return bool((self.decoded | self.initially_full).all())

    def finished_all(self) -> bool:
        return bool(self.decoded.all())

    def state_view(self, uid: int) -> NodeStateView:
        node = self.nodes[uid]
        rank = int(self.core.ranks[uid])
        if self.decoded[uid]:
            all_ids = sorted(self.token_index)
            return NodeStateView(
                uid=uid,
                rank=rank,
                known_supplier=lambda: all_ids,
                known_count=self.k,
                membership=self.token_index.__contains__,
            )
        return NodeStateView(
            uid=uid,
            rank=rank,
            known_supplier=lambda: list(node.known),
            known_count=len(node.known),
            membership=node.known.__contains__,
        )

    def to_nodes(self, nodes):
        decoded_tokens: list | None = None
        decoded_uids = np.flatnonzero(self.decoded)
        if decoded_uids.size:
            # Canonical instance: every decoded span is the same k-dimensional
            # source span, so one vectorised Gauss-Jordan serves all nodes.
            with self.profiler.span("decode"):
                ok, payloads = self.core.decode_payload_masks_batch(
                    self.gen_k, decoded_uids[:1]
                )
            if not ok[0]:
                raise RuntimeError(
                    "canonical decode failed for a node whose span reached "
                    "full rank"
                )
            decoded_tokens = []
            for payload in packed_to_masks(payloads[0]):
                decoded_tokens.extend(
                    decode_block(self.config, payload, tokens_per_block=1)
                )
        for uid, node in enumerate(nodes):
            subspace = node.state.subspace
            subspace._gf2 = GF2Basis.from_rows(self.length, self.core.row_masks(uid))
            subspace._pick_buffer = self.core._pick_buffer[uid]
            subspace._pick_bits = self.core._pick_bits[uid]
            if self.decoded[uid] and not node._decoded:
                known = node.known
                for token in decoded_tokens:
                    if token.token_id not in known:
                        known[token.token_id] = token
                node._decoded = True
            node._span_dirty = False


# ----------------------------------------------------------------------
# naive coded dissemination (Corollary 7.1)
# ----------------------------------------------------------------------


@register_kernel(NaiveCodedNode)
class NaiveCodedKernel(RoundKernel):
    """Flood-the-smallest-ids indexing + coded broadcast, batched.

    The id flood is pure packed-matrix work: a node's candidate window is the
    ``ids_per_message`` lowest set bits of ``(known | candidates) & ~delivered``
    (token bit order *is* ascending-id order), one
    :func:`~repro.simulation.kernels._select_lowest_bits` pass for the whole
    network, and delivery is one neighbour-OR.  The broadcast window groups
    nodes by their selected window: every distinct generation size ``k``
    gets one :class:`GF2BasisBatch` (``span_cap = k`` only when all its
    creators selected the *same* window — distinct same-size windows mix
    spans, where capping would drop innovative rows), nodes without a
    window adopt the generation of the first coded message they receive,
    and decode at the boundary is per node (a mixed-span decode can yield
    foreign tokens, recorded like the object ``_learn_token``).  Benign
    runs collapse to a single group — the pre-fault fast path unchanged.

    Knowledge, delivered and candidate state are materialised back into the
    nodes by :meth:`to_nodes`; the transient within-window coding state is
    not (it is dropped at the window boundary anyway).
    """

    message_name = "CodedMessage"
    supports_message_views = True

    @classmethod
    def supports(cls, config) -> bool:
        return config.field_order == 2

    def __init__(self, config, placement, token_index, nodes):
        super().__init__(config, placement, token_index, nodes)
        node0 = nodes[0]
        self.ids_per_message = node0.ids_per_message
        self.flood_rounds = node0.flood_rounds
        self.broadcast_rounds = node0.broadcast_rounds
        self.iteration_length = node0.iteration_length
        if self.flood_rounds < 1 or self.broadcast_rounds < 1:
            raise KernelUnsupported("NaiveCodedKernel requires positive phase windows")
        self.rngs = [node.rng for node in nodes]
        self.width = _packed_width(self.k)
        self.full = _full_row(self.k, self.width)
        self.known = np.zeros((self.n, self.width), dtype=np.uint64)
        self._initial_order: list[list[int]] = []
        for uid, node in enumerate(nodes):
            order = [token_index[tid] for tid in node.known]
            self._initial_order.append(order)
            for bit in order:
                self.known[uid, bit >> 6] |= np.uint64(1 << (bit & 63))
        self.delivered = np.zeros_like(self.known)
        self.cand = np.zeros_like(self.known)
        self.id_costs = np.array([t.token_id.bits for t in self.tokens], dtype=np.int64)
        self.payload_bits_per_dim = block_bits(config, tokens_per_block=1)
        self.payload_ints = [
            encode_block(config, [t], tokens_per_block=1) for t in self.tokens
        ]
        #: Tokens learned at decode boundaries, as Token objects in learn
        #: order: a mixed-span decode can produce a placement id with a
        #: wrong payload, or an id outside the placement entirely.
        self._learn_log: list[list] = [[] for _ in range(self.n)]
        self._foreign_ids: list[set] = [set() for _ in range(self.n)]
        self._any_foreign = False
        self._incomplete = {
            uid for uid in range(self.n) if not bool((self.known[uid] == self.full).all())
        }
        # Broadcast-window state (rebuilt per iteration): one batched basis
        # per distinct generation size, nodes tagged by their group's k.
        self.groups: dict[int, GF2BasisBatch] = {}
        self.group_bits: dict[int, int] = {}
        self.gen_of = np.full(self.n, -1, dtype=np.int64)
        self.window = np.zeros(self.n, dtype=bool)  # had a non-empty _selected
        self.sel_rows = np.zeros_like(self.known)
        self._flood_send: np.ndarray | None = None
        self._coded_send: dict[int, np.ndarray] = {}
        self._send_active: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _phase(self, round_index: int) -> tuple[str, int, int]:
        iteration = round_index // self.iteration_length
        offset = round_index % self.iteration_length
        if offset < self.flood_rounds:
            return "flood", offset, iteration
        return "broadcast", offset - self.flood_rounds, iteration

    def _drop_generation(self) -> None:
        self.groups = {}
        self.group_bits = {}
        self.gen_of[:] = -1
        self.window[:] = False
        self.sel_rows[:] = 0
        self._coded_send = {}

    # ------------------------------------------------------------------
    def compose_all(self, round_index):
        phase, offset, iteration = self._phase(round_index)
        if phase == "flood":
            if offset == 0:
                undelivered = self.known & ~self.delivered
                self.cand, _ = _select_lowest_bits(
                    undelivered, self.ids_per_message, None
                )
                self._drop_generation()
            window, id_bits = _select_lowest_bits(
                (self.known | self.cand) & ~self.delivered,
                self.ids_per_message,
                self.id_costs,
            )
            active = window.any(axis=1)
            window[~active] = 0
            self._flood_send = window
            self._coded_send = {}
            self._send_active = active
            return active, np.where(active, 4 + id_bits, 0)
        if offset == 0:
            self._start_broadcast(iteration)
        self._flood_send = None
        active = np.zeros(self.n, dtype=bool)
        sizes = np.zeros(self.n, dtype=np.int64)
        self._coded_send = {}
        for k in sorted(self.groups):
            # repro: allow[REP401] loop is over distinct generation sizes (one except under faults)
            members = np.flatnonzero(self.gen_of == k)
            act, combined = self.groups[k].compose_random(self.rngs, members)
            self._coded_send[k] = combined
            active |= act
            sizes[act] = self.group_bits[k]
        self._send_active = active
        return active, sizes

    def _start_broadcast(self, iteration: int) -> None:
        nonempty = self.cand.any(axis=1)
        self._drop_generation()
        if not nonempty.any():
            return
        self.window = nonempty.copy()
        self.sel_rows = np.zeros_like(self.known)
        self.sel_rows[nonempty] = self.cand[nonempty]
        uids = np.flatnonzero(nonempty)
        distinct, inverse = np.unique(
            self.cand[nonempty], axis=0, return_inverse=True
        )
        sizes_k = _popcount_rows(distinct).tolist()
        variants_per_k: dict[int, int] = {}
        for k in sizes_k:
            variants_per_k[k] = variants_per_k.get(k, 0) + 1
        generation_id = iteration + 1
        genid_bits = max(1, int(generation_id).bit_length())
        one = np.uint64(1)
        for variant, k in enumerate(sizes_k):
            # repro: allow[REP401] loop is over distinct selected windows (one except under faults)
            core = self.groups.get(k)
            if core is None:
                length = k + self.payload_bits_per_dim
                core = (
                    GF2BasisBatch(self.n, length, span_cap=k)
                    if variants_per_k[k] == 1
                    else GF2BasisBatch(self.n, length)
                )
                self.groups[k] = core
                self.group_bits[k] = k + self.payload_bits_per_dim + genid_bits
            creators = uids[inverse == variant]
            self.gen_of[creators] = k
            for i, index in enumerate(_row_bits(distinct[variant])):
                # repro: allow[REP401] once-per-iteration seeding over k selected dims, batched over holders
                shift = np.uint64(index & 63)
                holds = (self.known[creators, index >> 6] >> shift) & one
                holders = creators[holds.astype(bool)]
                if holders.size:
                    source = (1 << i) | (self.payload_ints[index] << k)
                    # repro: allow[REP401] once-per-iteration seeding over k selected dims, batched over holders
                    vectors = np.broadcast_to(
                        masks_to_packed([source], core.words),
                        (holders.size, core.words),
                    )
                    core.insert_batch(holders, vectors)

    def wire_message(self, uid, round_index):
        phase, _offset, iteration = self._phase(round_index)
        if phase == "flood":
            # Window bits ascend in token-id order — exactly the node's
            # sorted candidate prefix.
            return ControlMessage(
                sender=uid,
                fields={
                    "ids": tuple(
                        self.tokens[i].token_id
                        for i in _row_bits(self._flood_send[uid])
                    )
                },
            )
        # Broadcast phase: the batch already drew this round's combination
        # in compose_all, so the view re-wraps the cached combined row —
        # never a second rng draw.
        k = int(self.gen_of[uid])
        mask = packed_to_masks(self._coded_send[k][uid : uid + 1])[0]
        return Generation(
            k=k,
            payload_bits=self.payload_bits_per_dim,
            field_order=self.config.field_order,
            generation_id=iteration + 1,
        ).message_from_mask(uid, mask)

    # ------------------------------------------------------------------
    def deliver_all(self, round_index, indices, indptr, active, counts):
        phase, offset, _iteration = self._phase(round_index)
        if phase == "flood":
            inbox = _neighbor_or(self._flood_send, indices, indptr)
            self.cand |= inbox & ~self.delivered
            self.cand, _ = _select_lowest_bits(self.cand, self.ids_per_message, None)
            return np.zeros(self.n, dtype=bool)
        changed = np.zeros(self.n, dtype=bool)
        had_rank = _group_ranks(self.groups, self.gen_of, self.n) > 0
        receivers, senders = _delivery_pairs(indices, indptr, self._send_active)
        if receivers.size:
            with self.profiler.span("insert"):
                _deliver_grouped(
                    self.groups,
                    self.gen_of,
                    self._coded_send,
                    receivers,
                    senders,
                    changed,
                )
        if offset == self.broadcast_rounds - 1:
            known_changed = self._finish_broadcast()
            # The window boundary clears every node's coding state, so the
            # (len(known), coded_rank) fingerprint changes iff tokens were
            # learned or the pre-round rank was non-zero (it drops to 0).
            changed = known_changed | had_rank
        self._counts_cache = None
        return changed

    def _learn_decoded(self, uid: int, token) -> bool:
        """The object ``_learn_token`` + ``delivered.add``; True iff known grew."""
        bit = self.token_index.get(token.token_id)
        if bit is None:
            # Foreign id: enters known and delivered together, so it never
            # becomes a flood candidate (undelivered = known - delivered).
            if token.token_id in self._foreign_ids[uid]:
                return False
            self._foreign_ids[uid].add(token.token_id)
            self._learn_log[uid].append(token)
            self._any_foreign = True
            return True
        word, shift = bit >> 6, np.uint64(bit & 63)
        fresh = not bool((int(self.known[uid, word]) >> (bit & 63)) & 1)
        if fresh:
            self.known[uid, word] |= np.uint64(1) << shift
            self._learn_log[uid].append(token)
        self.delivered[uid, word] |= np.uint64(1) << shift
        return fresh

    def _finish_broadcast(self) -> np.ndarray:
        known_changed = np.zeros(self.n, dtype=bool)
        for k in sorted(self.groups):
            # repro: allow[REP401] loop is over distinct generation sizes (one except under faults)
            core = self.groups[k]
            members = np.flatnonzero(self.gen_of == k)
            # can_decode: full coefficient-block rank (equals the plain rank
            # for in-span traffic, so benign runs decode exactly as before).
            decodable = members[core.coefficient_ranks(k)[members] >= k]
            if not decodable.size:
                continue
            with self.profiler.span("decode"):
                ok, payloads = core.decode_payload_masks_batch(k, decodable)
            for pos, uid in enumerate(decodable.tolist()):
                # repro: allow[REP401] decode loop over boundary-decodable nodes, once per window
                if not ok[pos]:
                    continue
                for payload in packed_to_masks(payloads[pos]):
                    for token in decode_block(self.config, payload, tokens_per_block=1):
                        if self._learn_decoded(uid, token):
                            known_changed[uid] = True
        # Every window node marks the selected tokens it now holds
        # delivered (a failed or garbage decode leaves the rest flooding).
        self.delivered |= self.sel_rows & self.known
        self.cand[:] = 0
        self._drop_generation()
        return known_changed

    # ------------------------------------------------------------------
    def _known_counts_now(self) -> np.ndarray:
        counts = _popcount_rows(self.known)
        if self._any_foreign:
            counts += np.fromiter(
                (len(ids) for ids in self._foreign_ids), dtype=np.int64, count=self.n
            )
        return counts

    def coded_ranks(self) -> np.ndarray:
        return _group_ranks(self.groups, self.gen_of, self.n)

    def completed_flags(self) -> np.ndarray:
        # Placement-bit coverage: foreign tokens inflate known_counts but
        # never complete a node.
        return (self.known == self.full).all(axis=1)

    def all_complete(self) -> bool:
        full = self.full
        known = self.known
        self._incomplete = {
            uid for uid in self._incomplete if not bool((known[uid] == full).all())
        }
        return not self._incomplete

    def _knows(self, uid: int, token_id) -> bool:
        bit = self.token_index.get(token_id)
        if bit is None:
            return token_id in self._foreign_ids[uid]
        return bool((int(self.known[uid, bit >> 6]) >> (bit & 63)) & 1)

    def _known_ids(self, uid: int) -> list:
        ids = [self.tokens[i].token_id for i in _row_bits(self.known[uid])]
        ids.extend(self._foreign_ids[uid])
        return ids

    def state_view(self, uid: int) -> NodeStateView:
        counts = self.known_counts()
        k = int(self.gen_of[uid])
        rank = int(self.groups[k].ranks[uid]) if k >= 0 else 0
        return NodeStateView(
            uid=uid,
            rank=rank,
            known_supplier=lambda: self._known_ids(uid),
            known_count=int(counts[uid]),
            membership=lambda token_id: self._knows(uid, token_id),
        )

    def to_nodes(self, nodes):
        for uid, node in enumerate(nodes):
            node.known.clear()
            for i in self._initial_order[uid]:
                token = self.tokens[i]
                node.known[token.token_id] = token
            for token in self._learn_log[uid]:
                node.known[token.token_id] = token
            node.delivered = {
                self.tokens[i].token_id for i in _row_bits(self.delivered[uid])
            } | self._foreign_ids[uid]
            node._candidate_ids = {
                self.tokens[i].token_id for i in _row_bits(self.cand[uid])
            }
            node._selected = (
                [self.tokens[i].token_id for i in _row_bits(self.sel_rows[uid])]
                if self.window[uid]
                else []
            )
            node._generation_state = None


# ----------------------------------------------------------------------
# greedy-forward (Theorem 7.3)
# ----------------------------------------------------------------------


@register_kernel(GreedyForwardNode)
class GreedyForwardKernel(RoundKernel):
    """Gather / elect / broadcast greedy-forward as a phase-switched kernel.

    * **gather** — the random-forward primitive keeps one small
      ``rng.choice`` per informed node (exact per-node stream compatibility,
      like :class:`~repro.simulation.kernels.RandomForwardKernel`); knowledge
      and eligibility are integer bit masks plus insertion-order index lists.
    * **elect** — the max-``(count, uid)`` flood is one vectorised
      ``maximum.reduceat`` per round over encoded comparison keys.
    * **broadcast** — each self-elected leader's block generation is seeded
      into a :class:`GF2BasisBatch`, one per distinct generation size
      (``span_cap = #blocks`` when a size has a single leader; several
      leaders of the same size mix spans, where capping would drop
      innovative rows).  Benign runs elect exactly one leader and collapse
      to the old single-generation fast path; crash/recovery faults can
      leave stale nodes believing they won, which the object engines model
      as concurrent generations — non-leaders adopt the generation of the
      first coded message they receive and reject mismatched sizes, and a
      mixed-span decode can surface foreign or garbled tokens, recorded
      exactly like the object ``_learn_token``.

    :meth:`to_nodes` materialises knowledge, delivered sets and termination
    flags; transient mid-phase scratch (gather election state, the coding
    generation) is not materialised — it is protocol-internal and dropped at
    the next phase boundary anyway.
    """

    message_name = "CodedMessage"
    supports_message_views = True

    @classmethod
    def supports(cls, config) -> bool:
        if config.field_order != 2:
            return False
        # The phase windows must be positive for the node's own phase
        # arithmetic to be consistent (GatherState clamps independently).
        return all(window >= 1 for window in resolved_phase_windows(config))

    def __init__(self, config, placement, token_index, nodes):
        super().__init__(config, placement, token_index, nodes)
        node0 = nodes[0]
        self.gather_rounds = node0.gather_rounds
        self.elect_rounds = node0.elect_rounds
        self.broadcast_rounds = node0.broadcast_rounds
        self.iteration_length = node0.iteration_length
        self.tokens_per_block = node0.tokens_per_block
        self.block_payload_bits = node0.block_payload_bits
        self.max_blocks = node0.max_blocks
        self.batch = tokens_per_message(config)
        self.rngs = [node.rng for node in nodes]
        self.costs = [t.token_id.bits + t.size_bits for t in self.tokens]
        self.full = (1 << self.k) - 1
        self.order: list[list[int]] = []
        self.known_int: list[int] = []
        for node in nodes:
            indexes = [token_index[tid] for tid in node.known]
            mask = 0
            for i in indexes:
                mask |= 1 << i
            self.order.append(indexes)
            self.known_int.append(mask)
        self.delivered_int = [0] * self.n
        self.eligible: list[list[int]] = [list(o) for o in self.order]
        self.exhausted = np.zeros(self.n, dtype=bool)
        self.lead_count = np.full(self.n, -1, dtype=np.int64)
        self.lead_uid = np.full(self.n, -1, dtype=np.int64)
        self._incomplete = {
            uid for uid in range(self.n) if self.known_int[uid] != self.full
        }
        #: Placement bits learned with a *wrong* payload (mixed-span decode
        #: garbage) and tokens outside the placement entirely; both rare,
        #: both faithful to the object ``_learn_token``.
        self._overrides: list[dict[int, object]] = [dict() for _ in range(self.n)]
        self._foreign: list[list] = [[] for _ in range(self.n)]
        self._foreign_ids: list[set] = [set() for _ in range(self.n)]
        self._any_foreign = False
        # Broadcast-window state (rebuilt per iteration): one batched basis
        # per distinct generation size, nodes tagged by their group's k.
        self.groups: dict[int, GF2BasisBatch] = {}
        self.group_bits: dict[int, int] = {}
        self.gen_of = np.full(self.n, -1, dtype=np.int64)
        self._leader_chosen: dict[int, list[int]] = {}
        self._chosen: list[list[int] | None] = [None] * self.n
        self._coded_send: dict[int, np.ndarray] = {}
        self._send_active: np.ndarray | None = None
        self._elect_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _phase(self, round_index: int) -> tuple[str, int, int]:
        iteration = round_index // self.iteration_length
        offset = round_index % self.iteration_length
        if offset < self.gather_rounds + self.elect_rounds:
            return "gather", offset, iteration
        return "broadcast", offset - self.gather_rounds - self.elect_rounds, iteration

    def _reset_gather(self) -> None:
        for uid in np.flatnonzero(~self.exhausted).tolist():
            delivered = self.delivered_int[uid]
            self.eligible[uid] = [
                i for i in self.order[uid] if not (delivered >> i) & 1
            ]
        self.lead_count[:] = -1
        self.lead_uid[:] = -1

    def _ensure_local_counts(self) -> None:
        """Seed every live node's flood state with its own (count, uid) pair."""
        live = np.flatnonzero(~self.exhausted)
        fresh = live[self.lead_count[live] < 0]
        self.lead_count[fresh] = [len(self.eligible[u]) for u in fresh.tolist()]
        self.lead_uid[fresh] = fresh

    # ------------------------------------------------------------------
    def compose_all(self, round_index):
        phase, offset, iteration = self._phase(round_index)
        n = self.n
        active = np.zeros(n, dtype=bool)
        sizes = np.zeros(n, dtype=np.int64)
        self._coded_send = {}
        self._elect_keys = None
        if phase == "gather":
            if offset == 0:
                self._reset_gather()
            if offset < self.gather_rounds:
                chosen_lists: list[list[int] | None] = [None] * n
                costs = self.costs
                batch = self.batch
                for uid in range(n):
                    if self.exhausted[uid]:
                        continue
                    eligible = self.eligible[uid]
                    count = len(eligible)
                    if count == 0:
                        continue
                    if count <= batch:
                        chosen = eligible[:]
                    else:
                        picks = self.rngs[uid].choice(count, size=batch, replace=False)
                        chosen = [eligible[int(i)] for i in picks]
                    chosen_lists[uid] = chosen
                    active[uid] = True
                    sizes[uid] = sum(costs[i] for i in chosen)
                self._chosen = chosen_lists
            else:
                # Elect flood: every live node broadcasts its current best
                # (count, leader) pair; 4 tag bits per field.
                self._ensure_local_counts()
                live = ~self.exhausted
                counts = np.maximum(self.lead_count, 0)
                leaders = np.maximum(self.lead_uid, 0)
                active = live.copy()
                sizes = np.where(
                    live, 8 + _bit_lengths(counts) + _bit_lengths(leaders), 0
                )
                self._elect_keys = np.where(
                    live, counts * n + (n - 1 - leaders), -1
                )
            self._send_active = active
            return active, sizes
        if offset == 0:
            self._start_broadcast(iteration)
        if not self.groups:
            self._send_active = active
            return active, sizes
        for k in sorted(self.groups):
            # repro: allow[REP401] loop is over distinct generation sizes (one except under faults)
            members = np.flatnonzero(self.gen_of == k)
            act, combined = self.groups[k].compose_random(self.rngs, members)
            self._coded_send[k] = combined
            active |= act
            sizes[act] = self.group_bits[k]
        self._send_active = active
        return active, sizes

    def _drop_groups(self) -> None:
        self.groups = {}
        self.group_bits = {}
        self.gen_of[:] = -1
        self._leader_chosen = {}
        self._coded_send = {}

    def _start_broadcast(self, iteration: int) -> None:
        self._drop_groups()
        live = ~self.exhausted
        self.exhausted |= live & (self.lead_count <= 0)
        live = ~self.exhausted
        self_leaders = np.flatnonzero(live & (self.lead_uid == np.arange(self.n)))
        if self_leaders.size == 0:
            return
        capacity = self.max_blocks * self.tokens_per_block
        generation_id = iteration + 1
        genid_bits = max(1, int(generation_id).bit_length())
        plans: dict[int, list[tuple[int, list[list[int]]]]] = {}
        for leader in self_leaders.tolist():
            # repro: allow[REP401] loop over self-elected leaders (one except under faults)
            pending = self.known_int[leader] & ~self.delivered_int[leader]
            chosen = []
            for i in _iter_bits(pending):
                chosen.append(i)
                if len(chosen) == capacity:
                    break
            if not chosen:
                # A leader with nothing pending starts no generation; like
                # the object node it may still adopt a neighbour's.
                continue
            blocks = [
                chosen[i : i + self.tokens_per_block]
                for i in range(0, len(chosen), self.tokens_per_block)
            ]
            plans.setdefault(len(blocks), []).append((leader, blocks))
            self._leader_chosen[leader] = chosen
        for k, leaders in plans.items():
            # repro: allow[REP401] loop is over distinct generation sizes (one except under faults)
            length = k + self.block_payload_bits
            core = (
                GF2BasisBatch(self.n, length, span_cap=k)
                if len(leaders) == 1
                else GF2BasisBatch(self.n, length)
            )
            self.groups[k] = core
            self.group_bits[k] = k + self.block_payload_bits + genid_bits
            for leader, blocks in leaders:
                self.gen_of[leader] = k
                leader_array = np.array([leader], dtype=np.int64)
                for i, block in enumerate(blocks):
                    # repro: allow[REP401] once-per-iteration seeding over the leader's blocks
                    payload = encode_block(
                        self.config,
                        [self.tokens[j] for j in block],
                        self.tokens_per_block,
                    )
                    source = (1 << i) | (payload << k)
                    core.insert_batch(
                        leader_array, masks_to_packed([source], core.words)
                    )

    def wire_message(self, uid, round_index):
        phase, offset, iteration = self._phase(round_index)
        if phase == "gather":
            if offset < self.gather_rounds:
                # ``_chosen`` preserves the node's pick order (insertion-order
                # indexing plus the same rng.choice draw).
                return TokenForwardMessage(
                    sender=uid,
                    tokens=tuple(self.tokens[i] for i in self._chosen[uid]),
                )
            return ControlMessage(
                sender=uid,
                fields={
                    "count": max(0, int(self.lead_count[uid])),
                    "leader": max(0, int(self.lead_uid[uid])),
                },
            )
        # Broadcast phase: re-wrap the combination compose_all already drew.
        k = int(self.gen_of[uid])
        mask = packed_to_masks(self._coded_send[k][uid : uid + 1])[0]
        return Generation(
            k=k,
            payload_bits=self.block_payload_bits,
            field_order=self.config.field_order,
            generation_id=iteration + 1,
        ).message_from_mask(uid, mask)

    # ------------------------------------------------------------------
    def deliver_all(self, round_index, indices, indptr, active, counts):
        phase, offset, _iteration = self._phase(round_index)
        n = self.n
        changed = np.zeros(n, dtype=bool)
        if phase == "gather":
            if offset < self.gather_rounds:
                chosen = self._chosen
                for uid in range(n):
                    if self.exhausted[uid]:
                        continue
                    start, stop = int(indptr[uid]), int(indptr[uid + 1])
                    if start == stop:
                        continue
                    mask = self.known_int[uid]
                    before = mask
                    order = self.order[uid]
                    eligible = self.eligible[uid]
                    delivered = self.delivered_int[uid]
                    for v in indices[start:stop]:
                        tokens = chosen[v]
                        if tokens is None:
                            continue
                        for i in tokens:
                            if not (mask >> i) & 1:
                                mask |= 1 << i
                                order.append(i)
                                if not (delivered >> i) & 1:
                                    eligible.append(i)
                    if mask != before:
                        self.known_int[uid] = mask
                        changed[uid] = True
                if offset == self.gather_rounds - 1:
                    # Forwarding just ended: seed the flood with own counts
                    # (after this round's learns, as the object code does).
                    self._ensure_local_counts()
            else:
                keys = self._elect_keys
                if indices.size:
                    # A -1 sentinel pad keeps reduceat in-bounds on the
                    # trailing empty segments a fault-edited CSR can contain
                    # without truncating the last non-empty segment (clamping
                    # the starts would drop its final key); interior empty
                    # segments yield a real single element, discarded by the
                    # degree > 0 filter below.
                    padded = np.concatenate(
                        (keys[indices], np.full(1, -1, dtype=keys.dtype))
                    )
                    inbox = np.maximum.reduceat(padded, indptr[:-1])
                    merge = np.flatnonzero(
                        ~self.exhausted & (np.diff(indptr) > 0) & (inbox >= 0)
                    )
                    merged = np.maximum(
                        self.lead_count[merge] * n + (n - 1 - self.lead_uid[merge]),
                        inbox[merge],
                    )
                    self.lead_count[merge] = merged // n
                    self.lead_uid[merge] = n - 1 - (merged % n)
            self._counts_cache = None
            return changed
        had_rank = (
            _group_ranks(self.groups, self.gen_of, n) > 0
        ) & ~self.exhausted
        receivers, senders = _delivery_pairs(indices, indptr, self._send_active)
        keep = ~self.exhausted[receivers]
        receivers, senders = receivers[keep], senders[keep]
        if receivers.size:
            with self.profiler.span("insert"):
                _deliver_grouped(
                    self.groups,
                    self.gen_of,
                    self._coded_send,
                    receivers,
                    senders,
                    changed,
                )
        if offset == self.broadcast_rounds - 1:
            known_changed = self._finish_broadcast()
            changed = known_changed | had_rank
        self._counts_cache = None
        return changed

    def _learn_decoded(self, uid: int, token) -> bool:
        """The object ``_learn_token`` + ``delivered.add``; True iff known grew."""
        bit = self.token_index.get(token.token_id)
        if bit is None:
            # Foreign id: enters known and delivered together, so it is
            # never eligible for gather forwarding.
            if token.token_id in self._foreign_ids[uid]:
                return False
            self._foreign_ids[uid].add(token.token_id)
            self._foreign[uid].append(token)
            self._any_foreign = True
            return True
        fresh = not ((self.known_int[uid] >> bit) & 1)
        if fresh:
            self.known_int[uid] |= 1 << bit
            self.order[uid].append(bit)
            if token.payload != self.tokens[bit].payload:
                self._overrides[uid][bit] = token
        self.delivered_int[uid] |= 1 << bit
        return fresh

    def _finish_broadcast(self) -> np.ndarray:
        known_changed = np.zeros(self.n, dtype=bool)
        for k in sorted(self.groups):
            # repro: allow[REP401] loop is over distinct generation sizes (one except under faults)
            core = self.groups[k]
            members = np.flatnonzero((self.gen_of == k) & ~self.exhausted)
            # can_decode: full coefficient-block rank (equals the plain rank
            # for in-span traffic, so benign runs decode exactly as before).
            decodable = members[core.coefficient_ranks(k)[members] >= k]
            if not decodable.size:
                continue
            with self.profiler.span("decode"):
                ok, payloads = core.decode_payload_masks_batch(k, decodable)
            for pos, uid in enumerate(decodable.tolist()):
                # repro: allow[REP401] decode loop over boundary-decodable nodes, once per window
                if not ok[pos]:
                    continue
                for payload in packed_to_masks(payloads[pos]):
                    # A garbled mixed-span payload can make decode_block
                    # raise; the object engines fail identically, so the
                    # parity contract is preserved either way.
                    for token in decode_block(
                        self.config, payload, self.tokens_per_block
                    ):
                        if self._learn_decoded(uid, token):
                            known_changed[uid] = True
        for leader, chosen in self._leader_chosen.items():
            # repro: allow[REP401] loop over self-elected leaders (one except under faults)
            delivered = self.delivered_int[leader]
            for i in chosen:
                delivered |= 1 << i
            self.delivered_int[leader] = delivered
        self._drop_groups()
        return known_changed

    # ------------------------------------------------------------------
    def _known_counts_now(self) -> np.ndarray:
        counts = np.fromiter(
            (len(order) for order in self.order), dtype=np.int64, count=self.n
        )
        if self._any_foreign:
            counts += np.fromiter(
                (len(ids) for ids in self._foreign_ids), dtype=np.int64, count=self.n
            )
        return counts

    def coded_ranks(self) -> np.ndarray:
        # Exhausted nodes carry no coding state on the object engines (the
        # same masking ``had_rank`` applies in deliver_all).
        ranks = _group_ranks(self.groups, self.gen_of, self.n)
        ranks[self.exhausted] = 0
        return ranks

    def completed_flags(self) -> np.ndarray:
        # Placement-bit coverage: foreign tokens inflate known_counts but
        # never complete a node.
        full = self.full
        return np.fromiter(
            (mask == full for mask in self.known_int), dtype=bool, count=self.n
        )

    def all_complete(self) -> bool:
        full = self.full
        known = self.known_int
        self._incomplete = {uid for uid in self._incomplete if known[uid] != full}
        return not self._incomplete

    def finished_all(self) -> bool:
        return bool(self.exhausted.all())

    def _knows(self, uid: int, token_id) -> bool:
        bit = self.token_index.get(token_id)
        if bit is None:
            return token_id in self._foreign_ids[uid]
        return bool((self.known_int[uid] >> bit) & 1)

    def _known_ids(self, uid: int) -> list:
        ids = [self.tokens[i].token_id for i in self.order[uid]]
        ids.extend(self._foreign_ids[uid])
        return ids

    def state_view(self, uid: int) -> NodeStateView:
        counts = self.known_counts()
        k = int(self.gen_of[uid])
        rank = int(self.groups[k].ranks[uid]) if k >= 0 else 0
        return NodeStateView(
            uid=uid,
            rank=rank,
            known_supplier=lambda: self._known_ids(uid),
            known_count=int(counts[uid]),
            membership=lambda token_id: self._knows(uid, token_id),
        )

    def to_nodes(self, nodes):
        for uid, node in enumerate(nodes):
            node.known.clear()
            overrides = self._overrides[uid]
            for i in self.order[uid]:
                token = overrides.get(i, self.tokens[i])
                node.known[token.token_id] = token
            for token in self._foreign[uid]:
                node.known[token.token_id] = token
            node.delivered = {
                self.tokens[i].token_id for i in _iter_bits(self.delivered_int[uid])
            } | self._foreign_ids[uid]
            node._exhausted = bool(self.exhausted[uid])
            node._gather = None
            node._generation_state = None
            node._broadcast_token_ids = [
                self.tokens[i].token_id for i in self._leader_chosen.get(uid, [])
            ]
