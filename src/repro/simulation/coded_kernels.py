"""The indexed-broadcast round kernel on the batched GF(2) elimination core.

All nodes' received subspaces live in one
:class:`~repro.gf.packed.GF2BasisBatch` — a stacked ``(n, rank, words)``
uint64 echelon array — and one coded round is three numpy passes: batched
random-combination compose, slot-lockstep XOR elimination of the delivered
vectors, and vectorised decode-readiness.  No live
:class:`~repro.coding.subspace.Subspace` objects exist on the hot path;
:meth:`RoundKernel.to_nodes` materialises them (and the decoded tokens) back
into the protocol nodes at the end of the run.  Every decoded node then
holds the one ``k``-dimensional source span, whose mutually-reduced rows are
unique, so that span is decoded once and converted to row ints once, and
every decoded node's basis shares those ints in its own insertion order.
Each decoded node's packed rows are still compared with the shared rows, and
a mismatch raises rather than handing the node a span it does not hold.

:class:`IndexedBroadcastKernel` covers pure RLNC indexed broadcast (Lemma
5.3), both the randomized protocol and the deterministic pre-committed
coefficient schedule of Corollary 6.2 over GF(2) (a deterministic row is
*easier* to batch than an rng draw: parities come straight from the
schedule, with no zero-resampling).  The other coded protocols — naive
coded (Corollary 7.1) and greedy-forward (Theorem 7.3) — run on the object
kernel only; see the keep rule in :mod:`repro.simulation.kernels`.

Equivalence contract: for identical seeds the kernel produces
byte-identical :class:`~repro.simulation.metrics.RunMetrics` with the mask
engine — every rng draw happens against the same per-node generator in the
same order, composed masks are XORs of bit-identical basis rows in the same
order, and innovative/decode flags replicate the per-node ``Subspace``
semantics exactly (``tests/test_coded_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from ..algorithms.blocks import decode_block, token_dimension
from ..algorithms.indexed_broadcast import IndexedBroadcastNode
from ..gf import GF2Basis, GF2BasisBatch, masks_to_packed, packed_to_masks
from .kernels import KernelUnsupported, RoundKernel, register_kernel

__all__ = ["IndexedBroadcastKernel"]


#: Decoded nodes whose core rows one pass of the shared-span check compares
#: (bounds its ``(chunk, words, k)`` temporaries).
_CHECK_CHUNK = 64


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

    @classmethod
    def supports(cls, config) -> bool:
        # The batch requires GF(2).  The deterministic variant is fine — over
        # GF(2) only coefficient parities matter (the large-field pipeline of
        # Theorem 6.1 sets field_order accordingly and lands on mask).
        return config.field_order == 2

    def __init__(self, config, placement, token_index, nodes):
        super().__init__(config, placement, token_index, nodes)
        self.nodes = list(nodes)
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
        indexes = [token_dimension(config, t, self.gen_k) for t in self.tokens]
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

    def deliver_all(self, round_index, indices, indptr, active):
        innovative = np.zeros(self.n, dtype=bool)
        # The CSR is receiver-major with each inbox in ascending sender
        # order: the per-basis insert order insert_batch honours, so the
        # round's whole delivery is one fused call.  Saturated receivers
        # short-circuit inside the core anyway; filtering them out early
        # means the combine below only materialises the messages someone
        # still needs.
        receivers = np.repeat(np.arange(self.n), np.diff(indptr))
        keep = self._send_active[indices] & (self.core.ranks[receivers] < self.gen_k)
        receivers, senders = receivers[keep], indices[keep]
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

    def knows(self, token_id):
        # A decoded node knows every placement token; until then, exactly
        # its initial tokens (the node objects are written back only at the
        # end of the run).
        initial = (token_id in node.known for node in self.nodes)
        column = np.fromiter(initial, dtype=bool, count=self.n)
        if token_id in self.token_index:
            column |= self.decoded
        return column

    def to_nodes(self, nodes):
        """Write the core's bases, pick buffers and decoded tokens back.

        Every decoded node's span is the one ``k``-dimensional source span,
        whose mutually-reduced rows are unique: they are decoded once and
        converted to ints once, and each decoded node's basis holds those
        same row ints keyed in its own insertion order
        (:meth:`~repro.gf.gf2.GF2Basis.reordered`).  Each node's packed rows
        are still compared with the shared rows (:meth:`_check_shared_span`),
        so a node whose rows differ raises instead of inheriting the span.
        Undecoded nodes get their own rows.
        """
        decoded_uids = np.flatnonzero(self.decoded)
        shared: GF2Basis | None = None
        leads_of: dict[int, list[int]] = {}
        decoded_known: dict = {}
        if decoded_uids.size:
            with self.profiler.span("decode"):
                ok, payloads = self.core.decode_payload_masks_batch(
                    self.gen_k, decoded_uids[:1]
                )
            if not ok[0]:
                raise RuntimeError(
                    "canonical decode failed for a node whose span reached "
                    "full rank"
                )
            decoded_known = self._decoded_known(payloads[0])
            self._check_shared_span(decoded_uids)
            shared = GF2Basis.from_rows(
                self.length, self.core.row_masks(int(decoded_uids[0]))
            )
            leads = self.core._lead[decoded_uids, : self.gen_k].tolist()
            leads_of = dict(zip(decoded_uids.tolist(), leads))
        for uid, node in enumerate(nodes):
            subspace = node.state.subspace
            leads = leads_of.get(uid)
            if leads is None:
                subspace._gf2 = GF2Basis.from_rows(self.length, self.core.row_masks(uid))
            else:
                subspace._gf2 = shared.reordered(leads)
            subspace._pick_buffer = self.core._pick_buffer[uid]
            subspace._pick_bits = self.core._pick_bits[uid]
            if leads is not None and not node._decoded:
                # Own tokens keep their place and value; the rest follow in
                # decode order.
                known = node.known
                own = known.copy()
                known.update(decoded_known)
                known.update(own)
                node._decoded = True
            node._span_dirty = False

    def _decoded_known(self, payloads: np.ndarray) -> dict:
        """The decoded tokens in decode order, keyed by the run's own token ids."""
        run_ids = {tid: tid for tid in self.token_index}
        decoded: dict = {}
        for payload in packed_to_masks(payloads):
            for token in decode_block(self.config, payload, tokens_per_block=1):
                decoded.setdefault(run_ids.get(token.token_id, token.token_id), token)
        return decoded

    def _check_shared_span(self, uids: np.ndarray) -> None:
        """Raise unless every listed node holds the first one's rows.

        Each node's rows, gathered by lead, must equal the first node's row
        with the same lead; nodes are compared :data:`_CHECK_CHUNK` at a time.
        """
        k = self.gen_k
        rows, lead = self.core.rows, self.core._lead
        first = int(uids[0])
        shared = rows[first, :, :k]
        position = np.full(self.length, -1, dtype=np.int64)
        position[lead[first, :k]] = np.arange(k)
        for start in range(0, uids.size, _CHECK_CHUNK):
            chunk = uids[start : start + _CHECK_CHUNK]
            at = position[lead[chunk, :k]]
            # repro: allow[REP401] one pass per chunk of decoded nodes, batched within it
            same = (at >= 0).all() and np.array_equal(
                rows[chunk, :, :k], shared[:, at].transpose(1, 0, 2)
            )
            if not same:
                raise RuntimeError(
                    "decoded nodes hold different spans; the canonical "
                    "instance gives every decoded node the same source span"
                )
