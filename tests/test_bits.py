"""The packed bit-row layout of :mod:`repro.bits`: every form agrees.

One property drives every conversion of the layout from one set of rows:
Python-int masks, ``(m, words)`` uint64 rows, bool arrays, bit positions,
0/1 vectors and the ``(u, v)`` pair scatter.  The expected bools are built
from the masks with Python shifts, so the check shares no code with the
module.  Square symmetric inputs are adjacency matrices and also go
through :class:`~repro.network.topology.Topology`, whose masks and packed
rows must be the same layout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bits import (
    iter_bits,
    masks_to_packed,
    pack_bits,
    pack_bools,
    packed_to_masks,
    set_bits,
    unpack_bits,
    unpack_bools,
    word_count,
)
from repro.network import Topology


@st.composite
def _rows(draw):
    width = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 128]), st.integers(1, 200)))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))


def _adjacency(n: int) -> tuple[int, list[int]]:
    """A random symmetric loop-free ``n``-node adjacency as mask rows."""
    rng = np.random.default_rng(0)
    dense = rng.random((n, n)) < 0.2
    dense |= dense.T
    np.fill_diagonal(dense, False)
    return n, [sum(1 << int(v) for v in np.flatnonzero(row)) for row in dense]


@given(case=_rows())
@example(case=(1, []))
@example(case=(64, []))
@example(case=(200, []))
@example(case=(100, [(1 << 100) - 1, 0, 1 << 99, 1]))
@example(case=_adjacency(5))
@example(case=_adjacency(64))
@example(case=_adjacency(100))
@settings(max_examples=150, deadline=None)
def test_rows_ints_and_bools_agree(case):
    width, masks = case
    m, words = len(masks), word_count(width)
    assert words == max(1, -(-width // 64))
    bools = np.array(
        [[(mask >> i) & 1 for i in range(width)] for mask in masks], dtype=bool
    ).reshape(m, width)

    rows = masks_to_packed(masks, words)
    assert rows.shape == (m, words) and rows.dtype == np.uint64
    assert packed_to_masks(rows) == masks
    assert np.array_equal(pack_bools(bools), rows)
    assert np.array_equal(unpack_bools(rows, width), bools)
    assert np.array_equal(unpack_bools(rows[None], width)[0], bools)

    scattered = np.zeros((m, words), dtype=np.uint64)
    u, v = np.nonzero(bools)
    set_bits(scattered, (u,), v)
    assert np.array_equal(scattered, rows)
    set_bits(scattered, (np.concatenate([u, u]),), np.concatenate([v, v]))
    assert np.array_equal(scattered, rows)  # repeated pairs are an OR

    for mask, row in zip(masks, bools):
        assert list(iter_bits(mask)) == np.flatnonzero(row).tolist()
        assert unpack_bits(mask, width).tolist() == row.astype(int).tolist()
        assert pack_bits(row) == mask

    if m == width and np.array_equal(bools, bools.T):
        topology = Topology.from_edges(width, np.argwhere(np.triu(bools)))
        assert topology.masks == tuple(masks)
        assert np.array_equal(topology.packed_adjacency(), rows)
        assert Topology.from_packed(width, rows).masks == tuple(masks)
