"""The packed bit-row layout: one module owns every conversion of it.

The simulator keeps both of its bit objects in one layout.  Those objects
are the augmented GF(2) coding vectors ``e_i || t_i`` of Section 5.1 and
the adjacency rows of each round's graph ``G(t)``.  A row of ``b`` bits is
stored two ways:

* as a Python ``int`` mask, bit ``i`` of the int being bit ``i`` of the
  row (the per-node form: :class:`~repro.gf.gf2.GF2Basis`, the rows of
  :attr:`~repro.network.topology.Topology.masks`);
* as :func:`word_count` little-endian ``uint64`` words, bit ``i`` in word
  ``i // 64`` at bit ``i % 64`` (the whole-network form: ``(m, words)``
  matrices, stacked along any leading axes).

Bits above ``b`` in the last word are zero.  Every conversion between the
two forms, and between the words and bool arrays, lives here; the other
modules call these functions instead of packing bytes themselves.  The
GF(2) core's in-loop bit passes (:mod:`repro.gf.packed`) are the one
exception: they are written against this layout for speed.

This module imports only numpy.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "iter_bits",
    "masks_to_packed",
    "pack_bits",
    "pack_bools",
    "packed_to_masks",
    "set_bits",
    "unpack_bits",
    "unpack_bools",
    "word_count",
]


def word_count(bits: int) -> int:
    """Words per packed row of ``bits`` bits (at least one, so shapes stay 2-D)."""
    return max(1, (bits + 63) // 64)


def masks_to_packed(masks: Sequence[int], words: int) -> np.ndarray:
    """Pack Python integer bit masks into an ``(m, words)`` uint64 array."""
    if not masks:
        return np.zeros((0, words), dtype=np.uint64)
    nbytes = words * 8
    buffer = b"".join(int(mask).to_bytes(nbytes, "little") for mask in masks)
    return (
        np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words).copy()
    )


def packed_to_masks(rows: np.ndarray) -> list[int]:
    """Each row of an ``(m, words)`` packed array as a Python integer mask."""
    data = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    stride = rows.shape[1] * 8
    return [
        int.from_bytes(data[i * stride : (i + 1) * stride], "little")
        for i in range(rows.shape[0])
    ]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def pack_bools(bools: np.ndarray) -> np.ndarray:
    """Pack a bool array along its last axis into uint64 words.

    ``(..., b)`` bool -> ``(..., word_count(b))`` uint64, a fresh C-contiguous
    array; the padding bits of the last word are zero.
    """
    packed = np.packbits(bools, axis=-1, bitorder="little")
    nbytes = 8 * word_count(bools.shape[-1])
    if packed.shape[-1] != nbytes:
        padded = np.zeros(packed.shape[:-1] + (nbytes,), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    return packed.view(np.uint64)


def unpack_bools(rows: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of packed rows: ``(..., words)`` -> ``(..., count)`` bool.

    The result is a bool view of the unpacked bytes, so ``np.flatnonzero``
    takes its bool fast path.
    """
    as_bytes = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=count, bitorder="little").view(bool)


def set_bits(rows: np.ndarray, index: tuple[np.ndarray, ...], bits: np.ndarray) -> None:
    """Set bit ``bits[i]`` of row ``rows[index][i]`` for every ``i``, in place.

    ``index`` holds one integer array per leading axis of ``rows`` (the row
    of an ``(m, words)`` matrix, or the round and the row of a
    ``(rounds, n, words)`` batch), each as long as ``bits``.  Repeated
    entries are allowed: the scatter is an unbuffered OR.  A ``(u, v)``
    edge list becomes adjacency rows with ``index=(u,)`` and ``bits=v``
    (plus the reverse pairs for a symmetric matrix).
    """
    bits = np.asarray(bits, dtype=np.int64)
    np.bitwise_or.at(
        rows,
        (*index, bits >> 6),
        np.uint64(1) << (bits & 63).astype(np.uint64),
    )


def pack_bits(bits: Sequence[int] | np.ndarray) -> int:
    """Pack a 0/1 sequence (coordinate 0 first) into an integer mask.

    Vectorised through ``np.packbits``; entries are reduced mod 2 so any
    integer sequence is a valid input.
    """
    arr = np.asarray(bits).ravel()
    if arr.size == 0:
        return 0
    if arr.dtype == np.dtype(object):
        # Arbitrary-precision entries (very large fields): reduce in Python.
        arr = np.array([int(b) & 1 for b in arr.tolist()], dtype=np.uint8)
    else:
        arr = (arr.astype(np.int64, copy=False) & 1).astype(np.uint8)
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def unpack_bits(mask: int, length: int) -> np.ndarray:
    """Unpack an integer mask into a length-``length`` 0/1 numpy vector.

    Vectorised through ``np.unpackbits``; bits beyond ``length`` are ignored.
    """
    if length <= 0:
        return np.zeros(max(0, length), dtype=np.int64)
    mask = int(mask) & ((1 << length) - 1)
    data = np.frombuffer(mask.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=length, bitorder="little").astype(np.int64)
