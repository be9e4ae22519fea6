"""E14 (Section 8.1): the patch decomposition guarantees.

For random connected graphs and several radii D, measures patch sizes,
diameters (via tree height) and the number of Luby phases, against the
paper's guarantees: size >= D/2, diameter <= 2D, O(log n) MIS phases.
"""

from __future__ import annotations

import numpy as np

from repro.network import compute_patches, random_connected_topology

from common import print_rows, sweep_map


def _decompose(n: int, radius: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    topology = random_connected_topology(n, np.random.default_rng(seed + 1), extra_edge_prob=0.02)
    return compute_patches(topology, radius=radius, rng=rng)


def _patch_row(n: int, radius: int) -> dict:
    """One decomposition's guarantee statistics (sweep_map point)."""
    decomposition = _decompose(n, radius)
    return {
        "D": radius,
        "num_patches": len(decomposition.patches),
        "min_patch_size": decomposition.min_patch_size,
        "size_guarantee D/2": radius / 2,
        "max_tree_height": max(p.height for p in decomposition.patches),
        "diameter_guarantee 2D": 2 * radius,
        "luby_phases": decomposition.mis_rounds,
    }


def test_e14_patch_guarantees(benchmark):
    n = 60
    rows = sweep_map(_patch_row, [{"n": n, "radius": radius} for radius in (2, 3, 5)])
    print_rows(f"E14 — patch decomposition guarantees (n={n}, random connected graphs)", rows)
    for row in rows:
        assert row["min_patch_size"] >= row["size_guarantee D/2"] - 1
        assert row["max_tree_height"] <= row["D"]
        assert row["luby_phases"] <= 4 * np.log2(n)
    benchmark.pedantic(lambda: _decompose(40, 3, seed=7), rounds=1, iterations=1)
