"""Connected components of one packed adjacency matrix, by scalar mask BFS.

The reference for :func:`repro.network.dynamics.batch_component_labels`
(hooking and pointer jumping over a whole batch) and for the repair edges
:class:`~repro.network.dynamics.ConnectivityPatcher` adds. It reads the
packed ``(n, words)`` uint64 rows as Python integers and grows one
component at a time from its lowest unvisited node; it imports nothing
from ``repro``.
"""

from __future__ import annotations

import numpy as np


def packed_components(packed: np.ndarray, n: int) -> list[int]:
    """The components as int bitmasks, ordered by their lowest member."""
    stride = packed.shape[1] * 8
    data = np.ascontiguousarray(packed).astype("<u8", copy=False).tobytes()
    # repro: allow[REP404] an oracle imports nothing from repro, so it reads the row layout itself
    masks = [int.from_bytes(data[u * stride : (u + 1) * stride], "little") for u in range(n)]
    full = (1 << n) - 1
    seen = 0
    components: list[int] = []
    while seen != full:
        remaining = ~seen & full
        reached = remaining & -remaining
        frontier = reached
        while frontier:
            grown = 0
            m = frontier
            while m:
                lsb = m & -m
                grown |= masks[lsb.bit_length() - 1]
                m ^= lsb
            frontier = grown & ~reached
            reached |= frontier
        components.append(reached)
        seen |= reached
    return components
