"""Bit-packed GF(2) linear algebra fast path.

For ``q = 2`` (the common case in the paper — "replace linear combinations
by XORs", Section 5.1) Gaussian elimination over generic field arrays is
much slower than necessary.  This module stores each GF(2) vector as a
Python integer bit mask and implements an incremental XOR-echelon basis,
which is what the coding layer's subspace maintenance actually needs: every
received coded vector is either reduced to zero (no new information) or
inserted as a new basis row.

The representation is deliberately simple: a vector of length ``n`` is an
``int`` whose bit ``i`` is the ``i``-th coordinate.  All operations are
O(n/64) thanks to Python's big-int XOR.

This module is the bottom layer of the *mask-native fast path*: the coding
layer (:mod:`repro.coding.subspace`, :mod:`repro.coding.rlnc`) keeps a coded
vector as a single integer mask all the way from ``compose`` to ``deliver``,
so :func:`~repro.bits.pack_bits` / :func:`~repro.bits.unpack_bits` only
run at genuine array boundaries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..bits import pack_bits, unpack_bits

__all__ = [
    "GF2Basis",
]


@dataclass
class GF2Basis:
    """An incrementally-maintained echelon basis of a GF(2) subspace.

    Rows are stored as integer bit masks keyed by their leading (highest
    set) bit and kept *mutually reduced* (Gauss-Jordan maintained: no row
    carries another row's leading bit).  That invariant turns reduction into
    a single fixed pass — the pivot rows to XOR are exactly the incoming
    mask's pivot bits, with no data-dependent reduction chain — at the cost
    of back-eliminating each new pivot from the existing rows once per
    innovative insert.  It is also what makes the whole-network batched twin
    (:class:`repro.gf.packed.GF2BasisBatch`) two vectorised passes per
    insert.

    This mirrors exactly what a network-coding node does with its received
    messages: keep a basis of the span, detect whether a new message is
    innovative, and decode by back-substitution once the span is full.

    Coefficient-block queries (the rank of the span projected onto the first
    ``k`` coordinates, which drives ``can_decode``) are maintained
    *incrementally*: the first query for a given ``k`` materialises a
    projection basis, and every subsequent insertion feeds it one masked row,
    so repeated ``coefficient_rank`` calls cost O(rank) instead of rebuilding
    a throwaway basis each time.
    """

    length: int
    _rows: dict[int, int] = field(default_factory=dict)
    _projections: dict[int, "GF2Basis"] = field(default_factory=dict, repr=False)
    #: Union of the leading bits of all rows (one bit per pivot).
    _pivot_mask: int = 0
    #: Row leads in descending order, negated for ascending bisect — keeps
    #: ``basis_masks`` (the per-compose hot call) sort-free.
    _sorted_leads_neg: list[int] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    # insertion / reduction
    # ------------------------------------------------------------------
    def _reduce(self, mask: int) -> int:
        """Fully reduce ``mask`` against the (mutually reduced) basis rows.

        Rows carry no pivot bit other than their own, so the set of pivot
        rows to XOR is fixed by the *incoming* mask's pivot bits — one pass,
        no data-dependent reduction chain.
        """
        hits = mask & self._pivot_mask
        rows = self._rows
        while hits:
            low = hits & -hits
            mask ^= rows[low.bit_length() - 1]
            hits ^= low
        return mask

    def insert(self, vector: int | Sequence[int] | np.ndarray) -> bool:
        """Insert a vector; return True iff it was innovative (increased rank)."""
        if len(self._rows) >= self.length:
            # Saturation short-circuit: a full-rank basis spans the whole
            # ambient space, so every vector reduces to zero — skip the
            # elimination entirely.
            return False
        mask = int(vector) if isinstance(vector, (int, np.integer)) else pack_bits(vector)
        reduced = self._reduce(mask)
        if reduced == 0:
            return False
        lead = reduced.bit_length() - 1
        # Back-eliminate the new pivot from existing rows, preserving the
        # invariant that every pivot bit appears in exactly one row.
        bit = 1 << lead
        for other_lead, row in self._rows.items():
            if row & bit:
                self._rows[other_lead] = row ^ reduced
        self._rows[lead] = reduced
        self._pivot_mask |= bit
        bisect.insort(self._sorted_leads_neg, -lead)
        # Keep cached coefficient-block projections in sync: the span grows by
        # exactly this row, so each projection grows by its masked image.
        for k, projection in self._projections.items():
            projection.insert(reduced & ((1 << k) - 1))
        return True

    def contains(self, vector: int | Sequence[int] | np.ndarray) -> bool:
        """True iff the vector lies in the span of the basis."""
        mask = int(vector) if isinstance(vector, (int, np.integer)) else pack_bits(vector)
        return self._reduce(mask) == 0

    def extend(self, vectors: Iterable[int | Sequence[int] | np.ndarray]) -> int:
        """Insert many vectors; return how many were innovative."""
        added = 0
        for v in vectors:
            if self.insert(v):
                added += 1
        return added

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Dimension of the spanned subspace."""
        return len(self._rows)

    def basis_masks(self) -> list[int]:
        """The basis rows as integer masks, highest leading bit first."""
        rows = self._rows
        return [rows[-neg] for neg in self._sorted_leads_neg]

    def rows_in_insertion_order(self) -> list[int]:
        """The basis rows as integer masks, in the order they were inserted.

        This is the replay order that reconstructs this exact basis (each row
        has a distinct leading bit, so re-inserting them in order stores each
        unchanged) — what :meth:`repro.gf.packed.GF2BasisBatch.lift_masks`
        consumes when lifting per-node bases into a batch.
        """
        return list(self._rows.values())

    @classmethod
    def from_rows(cls, length: int, rows_in_insertion_order: Iterable[int]) -> "GF2Basis":
        """Rebuild a basis from previously-extracted reduced rows.

        The rows must be valid mutually-reduced rows (distinct leading bits,
        no row carrying another row's lead), e.g. the output of
        :meth:`rows_in_insertion_order` or one basis of a
        :class:`~repro.gf.packed.GF2BasisBatch`; they are stored verbatim.
        """
        basis = cls(length)
        rows = basis._rows
        pivot_mask = 0
        for mask in rows_in_insertion_order:
            mask = int(mask)
            if mask == 0:
                raise ValueError("basis rows must be non-zero")
            lead = mask.bit_length() - 1
            if lead >= length or lead in rows:
                raise ValueError("rows are not valid echelon rows")
            rows[lead] = mask
            pivot_mask |= 1 << lead
        # Mutual reduction: a row's pivot bits are its own lead alone.
        for lead, mask in rows.items():
            if mask & pivot_mask != 1 << lead:
                raise ValueError("rows are not mutually reduced echelon rows")
        basis._pivot_mask = pivot_mask
        basis._sorted_leads_neg = sorted(-lead for lead in rows)
        return basis

    def reordered(self, leads: Sequence[int]) -> "GF2Basis":
        """This basis' span, its rows inserted in the order of their ``leads``.

        The new basis holds this basis' very row ints (a span shared by many
        nodes is then stored once), keyed in the given order, which must list
        every row's lead exactly once.  Its row dict and lead list are its
        own, so inserting into either basis leaves the other unchanged.
        """
        source = self._rows
        try:
            rows = {lead: source[lead] for lead in leads}
        except KeyError:
            raise ValueError("leads must be this basis' row leads") from None
        if len(leads) != len(source) or len(rows) != len(source):
            raise ValueError("leads must list each row lead once")
        basis = GF2Basis(self.length, rows)
        basis._pivot_mask = self._pivot_mask
        basis._sorted_leads_neg = list(self._sorted_leads_neg)
        return basis

    def basis_matrix(self) -> np.ndarray:
        """The basis as a 0/1 numpy matrix with one row per basis vector."""
        masks = self.basis_masks()
        out = np.zeros((len(masks), self.length), dtype=np.int64)
        for i, mask in enumerate(masks):
            out[i] = unpack_bits(mask, self.length)
        return out

    def senses(self, direction: int | Sequence[int] | np.ndarray) -> bool:
        """True iff some basis vector is *not* orthogonal to ``direction``.

        This is the "sensing" relation of Definition 5.1 specialised to
        GF(2): orthogonality is parity of the AND of the two masks.
        """
        mask = int(direction) if isinstance(direction, (int, np.integer)) else pack_bits(direction)
        for row in self._rows.values():
            if (row & mask).bit_count() & 1:
                return True
        return False

    def coefficient_rank(self, k: int) -> int:
        """Rank of the span projected onto the first ``k`` coordinates.

        Maintained incrementally: the projection basis for each queried ``k``
        is cached and updated on every subsequent :meth:`insert`.
        """
        if k <= 0 or self.rank == 0:
            return 0
        if k >= self.length:
            return self.rank
        projection = self._projections.get(k)
        if projection is None:
            projection = GF2Basis(k)
            low = (1 << k) - 1
            for row in self._rows.values():
                projection.insert(row & low)
            self._projections[k] = projection
        return projection.rank

    def decode_payload_masks(self, k: int) -> list[int] | None:
        """Gauss-Jordan on the coefficient block, returning the payload masks.

        The rows are augmented ``[coefficients | payload]`` vectors with the
        first ``k`` bits being the coefficient block.  When that block has
        full rank ``k``, returns, for each dimension ``i``, the payload bits
        (mask shifted down by ``k``) of the combination whose coefficient
        part is exactly ``e_i``; otherwise None.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if k == 0:
            return []
        low = (1 << k) - 1
        pivots: dict[int, int] = {}
        for mask in self._rows.values():
            for bit, pivot_row in pivots.items():
                if (mask >> bit) & 1:
                    mask ^= pivot_row
            coeff = mask & low
            if coeff == 0:
                continue
            bit = (coeff & -coeff).bit_length() - 1
            for other_bit in pivots:
                if (pivots[other_bit] >> bit) & 1:
                    pivots[other_bit] ^= mask
            pivots[bit] = mask
            if len(pivots) == k:
                break
        if len(pivots) < k:
            return None
        return [pivots[i] >> k for i in range(k)]

    def copy(self) -> "GF2Basis":
        """An independent copy of this basis."""
        clone = GF2Basis(self.length)
        clone._rows = dict(self._rows)
        clone._projections = {k: p.copy() for k, p in self._projections.items()}
        clone._pivot_mask = self._pivot_mask
        clone._sorted_leads_neg = list(self._sorted_leads_neg)
        return clone
