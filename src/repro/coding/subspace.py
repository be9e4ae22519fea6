"""Incremental subspace (span) maintenance for network-coding nodes.

A network-coding node's entire knowledge is the subspace spanned by the
coded vectors it has received (Section 5.1).  This module provides the
:class:`Subspace` type that maintains that span incrementally:

* insert a received vector, learning whether it was *innovative*
  (increased the dimension),
* draw a uniformly random vector from the span (the message the node sends),
* test the *sensing* relation of Definition 5.1 (is some received vector
  non-orthogonal to a given direction?), and
* decode the original tokens by Gauss-Jordan elimination once the
  coefficient part of the span is full.

For ``q = 2`` the implementation transparently uses the bit-packed
:class:`~repro.gf.gf2.GF2Basis` fast path, and is *mask-native*: ``insert``,
``contains`` and ``senses`` accept plain integer bit masks (bit ``i`` =
coordinate ``i``) next to arrays, ``random_combination_mask`` /
``combination_mask_with`` / ``decode_payload_masks`` emit masks, and the
array-based API only packs/unpacks at its boundary (through
:mod:`repro.bits`).  For general prime ``q`` it keeps an
echelon basis of numpy vectors.

Coefficient-block ranks (``coefficient_rank`` / ``can_decode``) never
rebuild a throwaway projection basis: over GF(2)
:class:`~repro.gf.gf2.GF2Basis` keeps an incremental projection per queried
width, and for general ``q`` the rank is the number of pivot columns below
the width, since every echelon row's first non-zero column is its pivot.

Two further hot-path shortcuts: once a span *saturates* (``rank == length``)
``insert`` returns False without running any elimination (every vector is
already in the span), and over GF(2) the descending-leading-bit basis order
that ``random_combination_mask`` / ``combination_mask_with`` combine against
is maintained incrementally instead of re-sorted per compose.

For whole-network batched elimination (all nodes' bases as one stacked
uint64 array) see :class:`repro.gf.packed.GF2BasisBatch`, which is
bit-exact with this class and what the coded round kernels run on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..bits import pack_bits, unpack_bits
from ..gf import GF, GF2Basis
from ..gf.packed import PICK_REFILL_BYTES

__all__ = ["Subspace"]


class Subspace:
    """The span of a set of vectors over ``F_q``, maintained incrementally.

    Parameters
    ----------
    field:
        The prime field the vectors live over.
    length:
        Dimension of the ambient space (for augmented coding vectors this is
        ``k + d'``: coefficient header plus payload symbols).
    """

    #: Bytes drawn per rng refill of the pick-bit buffer (see
    #: :meth:`draw_pick_mask`); shared with the batched core so the
    #: consumption schedule is engine-independent.
    PICK_REFILL_BYTES = PICK_REFILL_BYTES

    def __init__(self, field: GF, length: int):
        if length < 0:
            raise ValueError(f"vector length must be non-negative, got {length}")
        self.field = field
        self.length = length
        self._gf2: GF2Basis | None = GF2Basis(length) if field.q == 2 else None
        # For general q: echelon rows keyed by pivot (first non-zero) column.
        self._rows: dict[int, np.ndarray] = {}
        # Buffered random pick bits (GF(2) compose fast path).
        self._pick_buffer = 0
        self._pick_bits = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "Subspace":
        """An independent copy of this subspace."""
        clone = Subspace(self.field, self.length)
        if self._gf2 is not None:
            clone._gf2 = self._gf2.copy()
        else:
            clone._rows = {col: row.copy() for col, row in self._rows.items()}
        clone._pick_buffer = self._pick_buffer
        clone._pick_bits = self._pick_bits
        return clone

    def _as_mask(self, vector: int | Sequence[int] | np.ndarray, *, pad: bool = False) -> int:
        """Canonicalise a GF(2) input (mask or array) into an integer mask."""
        if isinstance(vector, (int, np.integer)):
            mask = int(vector)
            if mask < 0 or mask.bit_length() > self.length:
                raise ValueError(
                    f"mask of {mask.bit_length()} bits does not fit ambient "
                    f"dimension {self.length}"
                )
            return mask
        arr = np.asarray(vector).ravel()
        if arr.shape[0] != self.length and not (pad and arr.shape[0] <= self.length):
            raise ValueError(
                f"vector length {arr.shape[0]} != ambient dimension {self.length}"
            )
        return pack_bits(arr)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def _reduce(self, vector: np.ndarray) -> np.ndarray:
        """Reduce a vector against the echelon rows (general-q path)."""
        v = vector
        for col in range(self.length):
            coeff = int(v[col])
            if coeff == 0:
                continue
            row = self._rows.get(col)
            if row is None:
                break
            v = self.field.sub_arrays(v, self.field.scale(row, coeff))
        return v

    def insert(self, vector: int | Sequence[int] | np.ndarray) -> bool:
        """Insert a vector into the span; return True iff it was innovative.

        On the GF(2) path the vector may be an integer bit mask.
        """
        if self._gf2 is not None:
            return self._gf2.insert(self._as_mask(vector))
        if isinstance(vector, (int, np.integer)):
            raise TypeError("integer-mask insertion requires a GF(2) subspace")
        v = self.field.asarray(vector).ravel()
        if v.shape[0] != self.length:
            raise ValueError(
                f"vector length {v.shape[0]} != ambient dimension {self.length}"
            )
        if len(self._rows) >= self.length:
            # Saturation short-circuit (mirrors GF2Basis): a full-rank span
            # contains every vector, so skip the elimination (malformed
            # inputs were already rejected above).
            return False
        v = self._reduce(v)
        pivot = next((i for i in range(self.length) if int(v[i]) != 0), None)
        if pivot is None:
            return False
        # Normalise so the pivot entry is 1, then eliminate it from existing rows.
        v = self.field.scale(v, self.field.inv(int(v[pivot])))
        for col, row in list(self._rows.items()):
            coeff = int(row[pivot])
            if coeff != 0:
                self._rows[col] = self.field.sub_arrays(row, self.field.scale(v, coeff))
        self._rows[pivot] = v
        return True

    def extend(self, vectors: Iterable[int | Sequence[int] | np.ndarray]) -> int:
        """Insert several vectors; return the number that were innovative."""
        return sum(1 for v in vectors if self.insert(v))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Dimension of the span."""
        if self._gf2 is not None:
            return self._gf2.rank
        return len(self._rows)

    @property
    def is_empty(self) -> bool:
        """True when no non-zero vector has been received yet."""
        return self.rank == 0

    def basis_matrix(self) -> np.ndarray:
        """The current basis as a matrix (one row per basis vector)."""
        if self._gf2 is not None:
            return self._gf2.basis_matrix()
        if not self._rows:
            return self.field.zeros((0, self.length))
        rows = [self._rows[col] for col in sorted(self._rows)]
        return np.stack(rows) if rows else self.field.zeros((0, self.length))

    def basis_masks(self) -> list[int]:
        """The basis as integer masks (GF(2) subspaces only)."""
        if self._gf2 is None:
            raise TypeError("basis_masks requires a GF(2) subspace")
        return self._gf2.basis_masks()

    def contains(self, vector: int | Sequence[int] | np.ndarray) -> bool:
        """True iff ``vector`` (mask or array) lies in the span."""
        if self._gf2 is not None:
            return self._gf2.contains(self._as_mask(vector))
        v = self.field.asarray(vector).ravel()
        v = self._reduce(v)
        return all(int(x) == 0 for x in v.tolist())

    def senses(self, direction: int | Sequence[int] | np.ndarray) -> bool:
        """Definition 5.1: some received vector is not orthogonal to ``direction``.

        The direction may be shorter than the ambient dimension (e.g. a
        ``k``-dimensional coefficient direction against ``k + d'``-dimensional
        augmented vectors); it is implicitly zero-padded on the right, which
        matches the paper's restriction to "the first ``k`` coordinates".
        On the GF(2) path an integer bit mask is accepted directly (masks
        carry their zero-padding implicitly).
        """
        if self._gf2 is not None:
            return self._gf2.senses(self._as_mask(direction, pad=True))
        if isinstance(direction, (int, np.integer)):
            raise TypeError("integer-mask directions require a GF(2) subspace")
        direction_arr = self.field.asarray(direction).ravel()
        if direction_arr.shape[0] > self.length:
            raise ValueError("direction longer than ambient dimension")
        padded = self.field.zeros(self.length)
        padded[: direction_arr.shape[0]] = direction_arr
        for row in self._rows.values():
            if self.field.dot(row, padded) != 0:
                return True
        return False

    # ------------------------------------------------------------------
    # message generation
    # ------------------------------------------------------------------
    def draw_pick_mask(self, rng: np.random.Generator, rank: int) -> int:
        """Draw a uniformly random non-zero ``rank``-bit pick mask.

        Pick bits come from a per-subspace buffer refilled with
        ``rng.bytes(PICK_REFILL_BYTES)`` — one generator call amortised over
        many composes instead of one per compose — and the all-zero draw
        (probability ``2^-rank``) is resampled: a zero combination carries no
        information yet would still burn message budget and count as a
        useless delivery.  The buffer consumption schedule is part of the
        cross-engine determinism contract (the batched core replays it
        bit-for-bit), so all engines see identical pick sequences.
        """
        low = (1 << rank) - 1
        while True:
            while self._pick_bits < rank:
                refill = int.from_bytes(rng.bytes(self.PICK_REFILL_BYTES), "little")
                self._pick_buffer |= refill << self._pick_bits
                self._pick_bits += 8 * self.PICK_REFILL_BYTES
            picks = self._pick_buffer & low
            self._pick_buffer >>= rank
            self._pick_bits -= rank
            if picks:
                return picks

    def random_combination_mask(self, rng: np.random.Generator) -> int | None:
        """A uniformly random *non-zero* combination of the basis, as a mask.

        GF(2) subspaces only.  Returns None when the subspace is empty.
        Pick bit ``i`` selects the ``i``-th mask of
        :meth:`GF2Basis.basis_masks` (descending leading bit).
        """
        if self._gf2 is None:
            raise TypeError("random_combination_mask requires a GF(2) subspace")
        masks = self._gf2.basis_masks()
        if not masks:
            return None
        picks = self.draw_pick_mask(rng, len(masks))
        combined = 0
        while picks:
            low_bit = picks & -picks
            combined ^= masks[low_bit.bit_length() - 1]
            picks ^= low_bit
        return combined

    def random_combination(self, rng: np.random.Generator) -> np.ndarray | None:
        """A uniformly random non-zero linear combination of the basis vectors.

        Returns None when the subspace is empty (the node has nothing to
        say yet).  The zero combination — the all-zero coefficient draw,
        probability ``q^-rank`` — is resampled so a node with information
        never broadcasts a useless zero vector.
        """
        if self.rank == 0:
            return None
        if self._gf2 is not None:
            # Fast path: XOR a uniformly random subset of the basis masks.
            mask = self.random_combination_mask(rng)
            return self.field.asarray(unpack_bits(mask, self.length))
        basis = self.basis_matrix()
        while True:
            coefficients = self.field.random_elements(rng, basis.shape[0])
            combination = self.field.zeros(self.length)
            nonzero = False
            for coeff, row in zip(np.asarray(coefficients).ravel().tolist(), basis):
                coeff = int(coeff)
                if coeff:
                    nonzero = True
                    combination = self.field.add_arrays(
                        combination, self.field.scale(self.field.asarray(row), coeff)
                    )
            # Basis rows are independent, so the combination is zero iff all
            # coefficients were; resample that information-free draw.
            if nonzero:
                return combination

    def combination_mask_with(self, coefficients: Sequence[int]) -> int:
        """A specific combination of the basis, as a mask (GF(2) only).

        Coefficient ``i`` applies to row ``i`` of :meth:`basis_matrix` (equally
        :meth:`basis_masks`); only its parity matters over GF(2).
        """
        if self._gf2 is None:
            raise TypeError("combination_mask_with requires a GF(2) subspace")
        masks = self._gf2.basis_masks()
        coeffs = list(coefficients)
        if len(coeffs) != len(masks):
            raise ValueError(f"need {len(masks)} coefficients, got {len(coeffs)}")
        combined = 0
        for coeff, mask in zip(coeffs, masks):
            if int(coeff) & 1:
                combined ^= mask
        return combined

    def combination_with(self, coefficients: Sequence[int]) -> np.ndarray:
        """A specific linear combination of the current basis vectors."""
        if self._gf2 is not None:
            combined = self.combination_mask_with(coefficients)
            return self.field.asarray(unpack_bits(combined, self.length))
        basis = self.basis_matrix()
        coeffs = list(coefficients)
        if len(coeffs) != basis.shape[0]:
            raise ValueError(
                f"need {basis.shape[0]} coefficients, got {len(coeffs)}"
            )
        combination = self.field.zeros(self.length)
        for coeff, row in zip(coeffs, basis):
            coeff = self.field.normalize(int(coeff))
            if coeff:
                combination = self.field.add_arrays(
                    combination, self.field.scale(self.field.asarray(row), coeff)
                )
        return combination

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def coefficient_rank(self, k: int) -> int:
        """Rank of the span projected onto the first ``k`` coordinates.

        For general ``q`` this is the number of pivot columns below ``k``:
        every echelon row is zero before its pivot and no two rows share
        one, so the rows pivoting below ``k`` project to independent
        vectors and the rest project to zero.
        """
        if self.rank == 0 or k <= 0:
            return 0
        if self._gf2 is not None:
            return self._gf2.coefficient_rank(k)
        return sum(1 for col in self._rows if col < k)

    def can_decode(self, k: int) -> bool:
        """True iff the first ``k`` coefficient dimensions are fully spanned."""
        if self.rank < k:
            return False
        return self.coefficient_rank(k) >= k

    def decode_payload_masks(self, k: int) -> list[int] | None:
        """GF(2) decode, mask-native: the ``k`` payload blocks as bit masks.

        Returns None while the coefficient block is not yet full rank.  The
        ``i``-th mask holds the payload (coordinates ``k ..`` of the reduced
        row whose coefficient part is ``e_i``) with bit ``j`` = payload
        coordinate ``j`` — which over GF(2) is exactly the payload integer.
        """
        if self._gf2 is None:
            raise TypeError("decode_payload_masks requires a GF(2) subspace")
        return self._gf2.decode_payload_masks(k)

    def decode(self, k: int) -> list[np.ndarray] | None:
        """Recover the ``k`` original payload vectors, or None if not yet possible.

        The stored vectors are augmented ``[coefficients | payload]``; decoding
        runs Gauss-Jordan on the coefficient block and reads the payloads off
        the rows whose coefficient part became a unit vector (Section 5.1).
        """
        if not self.can_decode(k):
            return None
        payload_len = self.length - k
        if self._gf2 is not None:
            masks = self._gf2.decode_payload_masks(k)
            if masks is None:
                return None
            return [self.field.asarray(unpack_bits(m, payload_len)) for m in masks]
        basis = self.basis_matrix()
        # Gauss-Jordan on the coefficient block using generic field arithmetic
        # (basis sizes here are small: at most k + d' rows).
        rows = [self.field.asarray(row).ravel() for row in basis]
        pivot_of_col: dict[int, int] = {}
        for row_index in range(len(rows)):
            row = rows[row_index]
            # Reduce by existing pivots.
            for col, pivot_row in pivot_of_col.items():
                coeff = int(row[col])
                if coeff:
                    row = self.field.sub_arrays(
                        row, self.field.scale(rows[pivot_row], coeff)
                    )
            pivot = next((c for c in range(k) if int(row[c]) != 0), None)
            rows[row_index] = row
            if pivot is None:
                continue
            row = self.field.scale(row, self.field.inv(int(row[pivot])))
            rows[row_index] = row
            for other in range(len(rows)):
                if other != row_index:
                    coeff = int(rows[other][pivot])
                    if coeff:
                        rows[other] = self.field.sub_arrays(
                            rows[other], self.field.scale(row, coeff)
                        )
            pivot_of_col[pivot] = row_index
        if len(pivot_of_col) < k:
            return None
        payloads = []
        for dimension in range(k):
            row = rows[pivot_of_col[dimension]]
            payloads.append(self.field.asarray(row[k : k + payload_len]))
        return payloads
