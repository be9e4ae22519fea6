"""Batched GF(2) elimination: all nodes' echelon bases as stacked uint64 arrays.

:class:`~repro.gf.gf2.GF2Basis` maintains one node's received span as Python
integer bit masks — perfect for a single node, but a whole-network coded
round then costs ``n`` Python-level ``insert`` / ``random_combination`` calls.
This module stores *every* node's basis in one stacked ``uint64`` array with
per-node rank / pivot-table / sorted-order vectors, so the three steps of a
network-coded round become a handful of numpy passes:

1. **compose** — one random (or pre-committed) pick matrix combined against
   all bases at once (:meth:`GF2BasisBatch.draw_random_picks` /
   :meth:`GF2BasisBatch.combine_sorted`);
2. **insert** — a round's whole inbox in one call
   (:meth:`GF2BasisBatch.insert_batch`): word-parallel XOR elimination over
   a local block of the receiving bases, one lockstep step per inbox depth
   for every node still holding a vector at that depth;
3. **decode** — a final vectorised Gauss-Jordan
   :meth:`GF2BasisBatch.decode_payload_masks_batch` producing every node's
   payload masks at once (a basis can decode once its rank reaches the
   generation size ``k``: all traffic lives in the source span).

The batch is *bit-exact* with the per-node implementation: feeding the same
insert sequence to a :class:`GF2Basis` and to one row of the batch yields the
same basis rows, the same innovative flags, the same ranks and the same
decoded payloads (hypothesis-tested in ``tests/test_gf_packed.py``).
That is what lets the coded kernel replay the object engines' rng streams
verbatim — a composed combination is the XOR of the *same* basis rows in the
same sorted order the per-node code uses.

Saturation short-circuit: when a basis' rank reaches ``span_cap`` (by default
the ambient ``length``, i.e. genuine saturation; kernels that know all
traffic lives in a ``k``-dimensional source span pass ``span_cap=k``),
further inserts skip elimination entirely — every incoming vector must
already be in the span.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bits import masks_to_packed, packed_to_masks, word_count

__all__ = [
    "GF2BasisBatch",
    "PICK_REFILL_BYTES",
]

#: Bytes drawn per rng refill of a compose pick-bit buffer.  One generator
#: call is amortised over many composes; the refill size and consumption
#: order are part of the cross-engine determinism contract (the scalar
#: :class:`~repro.coding.subspace.Subspace` replays the same schedule).
PICK_REFILL_BYTES = 512


_U32 = np.uint64(0xFFFFFFFF)


def _word_bit_length(words: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for a uint64 array (0 for zero words).

    ``frexp`` of an exactly-representable positive integer returns its bit
    length as the exponent; both 32-bit halves are < 2^53, so the conversion
    to float64 is exact.
    """
    hi = (words >> np.uint64(32)).astype(np.float64)
    lo = (words & _U32).astype(np.float64)
    return np.where(hi > 0, np.frexp(hi)[1] + 32, np.frexp(lo)[1])


def _leading_bits(vectors: np.ndarray) -> np.ndarray:
    """Highest set bit index of each packed row (-1 for all-zero rows)."""
    m, words = vectors.shape
    nonzero = vectors != 0
    any_nonzero = nonzero.any(axis=1)
    # argmax over the reversed word axis finds the highest non-zero word.
    top_word = words - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    top = vectors[np.arange(m), top_word]
    lead = top_word * 64 + _word_bit_length(top) - 1
    return np.where(any_nonzero, lead, -1)


def _lowest_bits(vectors: np.ndarray) -> np.ndarray:
    """Lowest set bit index of each packed row (-1 for all-zero rows)."""
    m, words = vectors.shape
    nonzero = vectors != 0
    any_nonzero = nonzero.any(axis=1)
    low_word = np.argmax(nonzero, axis=1)
    w = vectors[np.arange(m), low_word]
    isolated = w & (np.uint64(0) - w)  # two's-complement lowest-bit isolation
    low = low_word * 64 + _word_bit_length(isolated) - 1
    return np.where(any_nonzero, low, -1)


def _sorted_positions(leads: np.ndarray, ranks: np.ndarray, words: int) -> np.ndarray:
    """Row index -> descending-leading-bit position, per basis (0 if unused).

    A row's position is the number of its basis' pivots above its lead: the
    rank minus a cumsum over a pivot bitmap.
    """
    m, width = leads.shape
    held = np.arange(width)[None, :] < ranks[:, None]
    bits = words * 64
    flat = leads + (np.arange(m) * bits)[:, None]
    pivots = np.zeros(m * bits, dtype=np.int64)
    pivots[flat[held]] = 1
    at_or_below = np.cumsum(pivots.reshape(m, bits), axis=1).ravel()
    return np.where(held, ranks[:, None] - at_or_below.take(flat), 0)


class GF2BasisBatch:
    """``n`` independent :class:`~repro.gf.gf2.GF2Basis` instances, stacked.

    Parameters
    ----------
    n:
        Number of bases (one per network node).
    length:
        Ambient dimension shared by all bases.
    span_cap:
        Upper bound on any basis' reachable rank.  Defaults to ``length``
        (always sound).  A caller that *knows* all inserted vectors lie in a
        ``c``-dimensional subspace (e.g. RLNC traffic generated from ``c``
        source vectors) may pass ``c`` so saturated bases skip elimination.

    The storage layout:

    * ``rows`` — ``(n, words, capacity)`` uint64 (word-major, so the
      select-and-XOR passes reduce over the contiguous trailing axis);
      column ``j`` of basis ``u`` is the ``j``-th *inserted*
      (post-reduction) basis row, bit-identical to the ``j``-th value added
      to ``GF2Basis._rows``.  Columns at or above the rank are zero.
    * ``ranks`` — per-basis rank.
    * leads — per basis, row index -> the row's leading (pivot) bit.
    * sorted order — per basis, row index -> descending-leading-bit position,
      recomputed for the touched bases after each insert call so composing
      against ``basis_masks()`` order (what the per-node code does) is a
      gather, not a sort.
    """

    def __init__(self, n: int, length: int, *, span_cap: int | None = None):
        if n < 0:
            raise ValueError(f"batch size must be non-negative, got {n}")
        if length < 0:
            raise ValueError(f"vector length must be non-negative, got {length}")
        self.n = n
        self.length = length
        self.words = word_count(length)
        self.span_cap = length if span_cap is None else min(int(span_cap), length)
        self._capacity = max(1, min(self.span_cap, 16))
        # Transposed storage: reducing over the trailing (contiguous) row
        # axis is what lets numpy SIMD-vectorise the select-and-XOR passes.
        self.rows = np.zeros((n, self.words, self._capacity), dtype=np.uint64)
        self._rank = np.zeros(n, dtype=np.int64)
        #: Leading bit of each stored row: the pivot positions the reduction
        #: step tests incoming vectors against.  Unused slots hold 0; their
        #: row columns are zero, so testing them selects nothing.
        self._lead = np.zeros((n, self._capacity), dtype=np.int64)
        #: row index -> position in descending-leading-bit order (valid for
        #: row indices < rank; other entries are garbage and masked on use).
        self._pos = np.zeros((n, self._capacity), dtype=np.int64)
        #: Per-basis buffered compose pick bits (value, bit count).
        self._pick_buffer = [0] * n
        self._pick_bits = [0] * n

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def ranks(self) -> np.ndarray:
        """Per-basis rank (a live read-only view; do not mutate)."""
        return self._rank

    def _grow(self, needed: int) -> None:
        capacity = self._capacity
        while capacity < needed:
            capacity = min(max(capacity * 2, needed), self.span_cap)
        if capacity == self._capacity:
            return
        extra = capacity - self._capacity
        self.rows = np.concatenate(
            [self.rows, np.zeros((self.n, self.words, extra), dtype=np.uint64)], axis=2
        )
        self._lead = np.concatenate(
            [self._lead, np.zeros((self.n, extra), dtype=np.int64)], axis=1
        )
        self._pos = np.concatenate(
            [self._pos, np.zeros((self.n, extra), dtype=np.int64)], axis=1
        )
        self._capacity = capacity

    def _truncated(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """The low-``k``-bit projection of packed rows, in ``ceil(k/64)`` words."""
        words_k = word_count(k)
        out = vectors[:, :words_k].copy()
        # repro: allow[REP404] GF(2)-core pass: masks the last word of a k-bit projection; the non-pivot row layout will rewrite it
        rem = k & 63
        if rem:
            out[:, words_k - 1] &= np.uint64((1 << rem) - 1)
        elif k == 0:
            out[:] = 0
        return out

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert_batch(self, node_ids: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Insert vectors into the listed bases in order; return innovative flags.

        ``vectors`` is ``(len(node_ids), words)`` uint64.  ``node_ids`` may
        repeat: a basis' entries insert in listed order, each exactly as
        ``GF2Basis.insert`` would (how a round's whole inbox is delivered in
        one call).

        Every receiving basis is gathered once into a local
        ``(U, words, width)`` block, ordered by descending inbox size so the
        bases still holding a ``d``-th vector form a prefix ``[:K_d]``.  The
        loop then runs once per inbox depth ``d``: the prefix's ``d``-th
        vectors take one elimination step each (:meth:`_eliminate_step`),
        all bases at once.  Afterwards the block is written back with one
        scatter and the sorted-order table is recomputed.  That is the
        scalar insert order vectorised across bases at equal depth, so each
        basis ends as the unique mutually-reduced basis of its span, rows in
        insertion order.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        innovative = np.zeros(node_ids.size, dtype=bool)
        # Saturation short-circuit: a full-rank basis cannot grow, so the
        # incoming vector necessarily reduces to zero.
        open_sel = np.flatnonzero(self._rank[node_ids] < self.span_cap)
        if open_sel.size == 0:
            return innovative
        nodes, slot, counts = np.unique(
            node_ids[open_sel], return_inverse=True, return_counts=True
        )
        # Each pair's depth is its occurrence index within its basis' inbox.
        grouped = np.argsort(slot, kind="stable")
        depth = np.empty_like(slot)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        depth[grouped] = np.arange(slot.size) - starts
        # Pairs depth-major, and within a depth bases by descending inbox
        # size: the bases holding a d-th vector are the block prefix [:K_d].
        pair = open_sel[np.lexsort((slot, -counts[slot], depth))]
        v_all = np.ascontiguousarray(vectors[pair], dtype=np.uint64)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(depth)))).tolist()
        by_size = np.argsort(-counts, kind="stable")
        nodes, counts = nodes[by_size], counts[by_size]
        rank = self._rank[nodes]
        start_width = int(rank.max())
        width = min(int((rank + counts).max()), self.span_cap)
        block = np.zeros((nodes.size, self.words, width), dtype=np.uint64)
        leads = np.zeros((nodes.size, width), dtype=np.int64)
        block[:, :, :start_width] = self.rows[nodes, :, :start_width]
        leads[:, :start_width] = self._lead[nodes, :start_width]
        appended = []
        for d in range(len(bounds) - 1):
            start, stop = bounds[d], bounds[d + 1]
            size = stop - start
            # Each depth adds at most one row per basis, so rows sit below
            # start_width + d.
            grown = self._eliminate_step(
                block[:size], leads[:size], rank[:size], v_all[start:stop],
                min(width, start_width + d),
            )
            # repro: allow[REP401] one step per inbox depth (<= max in-degree), batched over bases
            appended.append(start + np.flatnonzero(grown))
        added = np.concatenate(appended)
        if added.size == 0:
            return innovative
        innovative[pair[added]] = True
        if int(rank.max()) > self._capacity:
            self._grow(int(rank.max()))
        width = min(width, self._capacity)
        self.rows[nodes, :, :width] = block[:, :, :width]
        self._lead[nodes, :width] = leads[:, :width]
        self._rank[nodes] = rank
        self._pos[nodes, :width] = _sorted_positions(leads[:, :width], rank, self.words)
        return innovative

    def _eliminate_step(
        self,
        block: np.ndarray,
        leads: np.ndarray,
        rank: np.ndarray,
        v: np.ndarray,
        width: int,
    ) -> np.ndarray:
        """One ``GF2Basis.insert`` per basis of a block, all bases at once.

        ``block`` / ``leads`` / ``rank`` hold ``K`` bases' rows, row leading
        bits and ranks (rows in columns below ``width``), ``v`` one incoming
        vector per basis.  All are updated in place: ``v`` is fully reduced,
        an innovative one is back-eliminated from its basis and appended as
        a new row.  Returns which bases grew.
        """
        rows = block[:, :, :width]
        # Reduce: the rows to XOR in are selected by the vector's bits at the
        # basis' pivot positions (mutually-reduced rows carry no foreign
        # pivot bit, so there is no reduction chain).  Unused columns hold
        # zero rows, so their lead entries select nothing.
        # repro: allow[REP404] GF(2)-core in-loop pass: reads the pivot bits of each step's vectors; the non-pivot row layout will rewrite it
        bits = np.unpackbits(v.view(np.uint8), axis=1, bitorder="little")
        # A flat take: cheaper than take_along_axis's two-array index.
        row_start = np.arange(v.shape[0])[:, None] * bits.shape[1]
        picked = bits.ravel().take(leads[:, :width] + row_start)
        v ^= np.bitwise_xor.reduce(rows * picked[:, None, :], axis=2)
        lead = _leading_bits(v)
        grown = (lead >= 0) & (rank < self.span_cap)
        if not grown.any():
            return grown
        # Back-eliminate: clear each new pivot bit from the rows of its basis
        # that carry it, one masked XOR over the whole slice.
        safe = np.maximum(lead, 0)
        # repro: allow[REP404] GF(2)-core in-loop pass: the word of each new pivot bit, vectorised over the batch; the non-pivot row layout will rewrite it
        carrier_word = rows[np.arange(lead.size), safe >> 6]
        # repro: allow[REP404] GF(2)-core in-loop pass: the offset of each new pivot bit, vectorised over the batch; the non-pivot row layout will rewrite it
        shift = (safe & 63).astype(np.uint64)
        # ``& grown`` isolates the pivot bit for grown bases, 0 elsewhere.
        carrier = (carrier_word >> shift[:, None]) & grown[:, None]
        rows ^= v[:, :, None] * carrier[:, None, :]
        g = np.flatnonzero(grown)
        r = rank[g]
        block[g, :, r] = v[g]
        leads[g, r] = lead[g]
        rank[g] = r + 1
        return grown

    def lift_masks(self, per_node_masks: Sequence[Sequence[int]]) -> None:
        """Replay per-node mask sequences (e.g. existing ``GF2Basis`` rows).

        Entry ``u`` of ``per_node_masks`` is inserted into basis ``u`` in
        order; used to lift already-built per-node bases into the batch.
        """
        if len(per_node_masks) != self.n:
            raise ValueError(f"need {self.n} mask sequences, got {len(per_node_masks)}")
        nodes = np.repeat(np.arange(self.n), [len(masks) for masks in per_node_masks])
        vectors = masks_to_packed(
            [mask for masks in per_node_masks for mask in masks], self.words
        )
        self.insert_batch(nodes, vectors)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def combine_sorted(
        self, picks_sorted: np.ndarray, node_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """XOR-combine each basis' rows selected by a sorted-order pick matrix.

        ``picks_sorted[u, s]`` selects the basis row at descending-leading-bit
        position ``s`` — the order ``GF2Basis.basis_masks()`` returns, i.e.
        the order both ``random_combination_mask`` and
        ``combination_mask_with`` apply coefficients in.  Entries at
        positions >= rank are ignored.  The result is always ``(n, words)``;
        when ``node_ids`` is given only those rows are computed (rows of
        unlisted bases stay zero) — what lets a kernel combine lazily for
        just the senders whose message anyone still needs.
        """
        combined = np.zeros((self.n, self.words), dtype=np.uint64)
        if node_ids is None:
            ranks = self._rank
            pos_all = self._pos
            rows_all = self.rows
            out = combined
        else:
            node_ids = np.asarray(node_ids, dtype=np.int64)
            ranks = self._rank[node_ids]
            pos_all = self._pos[node_ids]
            rows_all = self.rows[node_ids]
            picks_sorted = picks_sorted[node_ids]
            out = np.zeros((node_ids.size, self.words), dtype=np.uint64)
        max_rank = int(ranks.max()) if ranks.size else 0
        if max_rank == 0:
            return combined
        width = picks_sorted.shape[1]
        if width < max_rank:
            raise ValueError(f"pick matrix width {width} < max rank {max_rank}")
        # Map picks from sorted positions onto insertion-order rows.
        pos = np.minimum(pos_all[:, :max_rank], width - 1)
        picked = np.take_along_axis(
            np.ascontiguousarray(picks_sorted) != 0, pos, axis=1
        )
        picked &= np.arange(max_rank)[None, :] < ranks[:, None]
        out[:] = np.bitwise_xor.reduce(
            rows_all[:, :, :max_rank] * picked.astype(np.uint64)[:, None, :], axis=2
        )
        if node_ids is not None:
            combined[node_ids] = out
        return combined

    def draw_random_picks(
        self, rngs: Sequence[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw every non-empty basis' random non-zero pick vector at once.

        Replays ``Subspace.draw_pick_mask`` bit-for-bit: pick bits come from
        a per-basis buffer refilled with ``rng.bytes(PICK_REFILL_BYTES)``
        (one generator call amortised over many composes), with the all-zero
        draw resampled — basis rows are independent, so the combination is
        zero iff no row is picked.  Returns ``(active, picks)``; feed the
        picks to :meth:`combine_sorted` — possibly lazily and for a subset,
        the XOR work is independent of the rng stream.
        """
        ranks = self._rank
        active = np.zeros(self.n, dtype=bool)
        max_rank = int(ranks.max()) if self.n else 0
        picks = np.zeros((self.n, max(1, max_rank)), dtype=np.uint8)
        if max_rank == 0:
            return active, picks
        uids = np.flatnonzero(ranks > 0)
        ranks_list = ranks.tolist()
        buffers = self._pick_buffer
        counts = self._pick_bits
        refill_bits = 8 * PICK_REFILL_BYTES
        width_bytes = (max_rank + 7) // 8
        drawn_uids: list[int] = []
        drawn: list[bytes] = []
        for uid in uids.tolist():
            r = ranks_list[uid]
            buffer = buffers[uid]
            bits = counts[uid]
            low = (1 << r) - 1
            while True:
                while bits < r:
                    # repro: allow[REP404] an rng byte draw (the pick-bit refill), not the layout
                    refill = int.from_bytes(rngs[uid].bytes(PICK_REFILL_BYTES), "little")
                    buffer |= refill << bits
                    bits += refill_bits
                pick = buffer & low
                buffer >>= r
                bits -= r
                if pick:
                    break
            buffers[uid] = buffer
            counts[uid] = bits
            drawn_uids.append(uid)
            # repro: allow[REP404] GF(2)-core pass: the pick bits replay the per-node rng stream byte for byte
            drawn.append(pick.to_bytes(width_bytes, "little"))
            active[uid] = True
        if drawn_uids:
            # repro: allow[REP404] GF(2)-core pass: the pick bits replay the per-node rng stream byte for byte
            rows = np.unpackbits(
                np.frombuffer(b"".join(drawn), dtype=np.uint8).reshape(
                    len(drawn), width_bytes
                ),
                axis=1,
                count=max_rank,
                bitorder="little",
            )
            picks[drawn_uids] = rows
        return active, picks

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def row_masks(self, uid: int) -> list[int]:
        """Basis ``uid``'s rows as Python integer masks, in insertion order."""
        r = int(self._rank[uid])
        return packed_to_masks(self.rows[uid, :, :r].T)

    def basis_masks(self, uid: int) -> list[int]:
        """Basis ``uid``'s rows in descending-leading-bit order (as ints)."""
        r = int(self._rank[uid])
        order = np.argsort(self._pos[uid, :r], kind="stable")
        return packed_to_masks(self.rows[uid][:, order].T)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode_payload_masks_batch(
        self, k: int, node_ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised Gauss-Jordan decode of the listed bases at once.

        Returns ``(ok, payloads)``: ``ok[i]`` is True iff basis
        ``node_ids[i]``'s coefficient block (its first ``k`` coordinates)
        reached full rank, and ``payloads[i, d]`` is then the packed payload
        (coordinates ``k..length-1``) of the span's combination whose
        coefficient part is ``e_d`` — bit-identical to
        ``GF2Basis.decode_payload_masks``, including its insertion-order row
        scan and its early stop at ``k`` pivots.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        node_ids = (
            np.arange(self.n, dtype=np.int64)
            if node_ids is None
            else np.asarray(node_ids, dtype=np.int64)
        )
        m = node_ids.size
        payload_words = word_count(max(0, self.length - k))
        if k == 0:
            return np.ones(m, dtype=bool), np.zeros((m, 0, payload_words), np.uint64)
        # Pivot rows are stored by their pivot bit, which is exactly the
        # dimension order the decoded payloads come out in.
        pivot_rows = np.zeros((m, k, self.words), dtype=np.uint64)
        pivot_exists = np.zeros((m, k), dtype=bool)
        counts = np.zeros(m, dtype=np.int64)
        ranks = self._rank[node_ids]
        max_rank = int(ranks.max()) if m else 0
        # The loop is over rank levels (at most k), and each pass is one
        # masked XOR-reduce over every queried node at once: the sequential
        # elimination order is the algorithm.
        for j in range(max_rank):
            # repro: allow[REP401] one whole-batch pass per rank level
            act = np.flatnonzero((ranks > j) & (counts < k))
            if act.size == 0:
                continue
            # repro: allow[REP401] one whole-batch pass per rank level
            vec = np.ascontiguousarray(self.rows[node_ids[act], :, j])
            # Reduce by the existing pivot rows.  Pivot rows are mutually
            # reduced (no pivot row carries another pivot's bit), so the
            # per-node sequential loop of the scalar code collapses to one
            # masked XOR-reduce.
            selectors = self._coefficient_bits(vec, k) & pivot_exists[act]
            if selectors.any():
                # repro: allow[REP401] one whole-batch pass per rank level
                vec ^= np.bitwise_xor.reduce(
                    pivot_rows[act] * selectors.astype(np.uint64)[:, :, None],
                    axis=1,
                )
            coeff = self._truncated(vec, k)
            pivot = _lowest_bits(coeff)
            good = pivot >= 0
            if not good.any():
                continue
            act, vec, pivot = act[good], vec[good], pivot[good]
            # Back-eliminate: clear the new pivot bit from existing pivot rows.
            # repro: allow[REP404] GF(2)-core pass of the decode sweep: the word of each new pivot bit, one per rank level
            word = (pivot >> 6)[:, None, None]
            # repro: allow[REP404] GF(2)-core pass of the decode sweep: the offset of each new pivot bit, one per rank level
            shift = (pivot & 63).astype(np.uint64)[:, None]
            carrier = (
                np.take_along_axis(pivot_rows[act], word, axis=2)[:, :, 0] >> shift  # repro: allow[REP401] one whole-batch pass per rank level
            ) & np.uint64(1)  # repro: allow[REP401] one whole-batch pass per rank level
            # repro: allow[REP401] one whole-batch pass per rank level
            hit_rows, hit_cols = np.nonzero(carrier.astype(bool) & pivot_exists[act])
            if hit_rows.size:
                pivot_rows[act[hit_rows], hit_cols] ^= vec[hit_rows]
            pivot_rows[act, pivot] = vec
            pivot_exists[act, pivot] = True
            counts[act] += 1
        ok = counts >= k
        payloads = self._shift_right(pivot_rows.reshape(m * k, self.words), k)
        return ok, payloads[:, :payload_words].reshape(m, k, payload_words)

    def _coefficient_bits(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """The low ``k`` bits of each packed row as a boolean ``(m, k)`` matrix."""
        m = vectors.shape[0]
        words_k = word_count(k)
        # repro: allow[REP404] GF(2)-core in-loop pass of the decode sweep, one call per rank level
        bits = np.unpackbits(
            np.ascontiguousarray(vectors[:, :words_k]).view(np.uint8).reshape(m, -1),
            axis=1,
            count=k,
            bitorder="little",
        )
        return bits.astype(bool)

    def _shift_right(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """Right-shift packed rows by ``k`` bits (dropping the low block)."""
        word_shift, bit_shift = divmod(k, 64)
        m, words = vectors.shape
        tail = vectors[:, word_shift:]
        if tail.shape[1] == 0:
            return np.zeros((m, 1), dtype=np.uint64)
        if bit_shift == 0:
            return tail.copy()
        carry = np.zeros_like(tail)
        carry[:, :-1] = tail[:, 1:] << np.uint64(64 - bit_shift)
        return (tail >> np.uint64(bit_shift)) | carry
