"""Pins of the Section 8.1 patch decomposition, E14's rows and the example.

Each case decomposes one seeded ``random_connected_topology`` and hashes
every field of the result (leaders, each patch's members, tree parents and
depths, the Luby phase count) together with the next draw of the rng the
decomposition consumed, so a change to the power graph, the MIS draw order
or the BFS tie-breaking moves a digest.  The cases span n = 2..40 and radii
1-4; ``n18-r1`` and ``n18-r4`` are inputs on which Luby's per-phase draws
do not visit the active nodes in ascending order.

E14's printed rows and ``examples/stable_network_patches.py``'s stdout are
pinned the same way.  The digests, kept in ``tests/golden/patch_pins.json``
(see :mod:`tests.golden`), were recorded from the networkx implementation
that ``tests/oracles/nx_patches.py`` keeps as the reference.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.network import compute_patches, random_connected_topology
from tests import golden

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"

#: name -> (n, radius, topology seed, extra_edge_prob)
_PATCH_CASES = {
    "n2-r1": (2, 1, 0, 0.0),
    "n5-r2": (5, 2, 1, 0.2),
    "n9-r1": (9, 1, 2, 0.03),
    "n12-r3": (12, 3, 3, 0.0),
    "n18-r1": (18, 1, 3, 0.0),
    "n18-r4": (18, 4, 0, 0.0),
    "n23-r2": (23, 2, 4, 0.2),
    "n33-r3": (33, 3, 5, 0.03),
    "n40-r2": (40, 2, 6, 0.03),
    "n7-r2": (7, 2, 7, 0.2),
    "n26-r3": (26, 3, 8, 0.03),
    "n40-r1": (40, 1, 9, 0.0),
}


def _patch_case(name: str) -> str:
    n, radius, seed, extra = _PATCH_CASES[name]
    topology = random_connected_topology(n, np.random.default_rng(seed), extra_edge_prob=extra)
    rng = np.random.default_rng(seed + 100)
    decomposition = compute_patches(topology, radius=radius, rng=rng)
    record = {
        "leaders": sorted(decomposition.leaders),
        "patches": [
            (
                patch.leader,
                sorted(patch.members),
                sorted(patch.parent.items()),
                sorted(patch.depth.items()),
            )
            for patch in decomposition.patches
        ],
        "radius": decomposition.radius,
        "mis_rounds": decomposition.mis_rounds,
        "next_draw": float(rng.random()),
    }
    return golden.digest(repr(record))


def _e14_rows_digest() -> str:
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    import bench_e14_patching

    rows = [bench_e14_patching._patch_row(60, radius) for radius in (2, 3, 5)]
    return golden.digest(repr(rows))


def _example_stdout_digest() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "stable_network_patches.py")],
        capture_output=True,
        check=True,
        env=env,
        timeout=120,
    )
    return golden.digest(completed.stdout)


#: The printed artefacts, by key.
_PRINTED = {"E14-rows": _e14_rows_digest, "example-stdout": _example_stdout_digest}


def golden_values() -> dict:
    printed = {name: digest() for name, digest in _PRINTED.items()}
    return {**{name: _patch_case(name) for name in _PATCH_CASES}, **printed}


class TestPatchPins:
    @pytest.mark.parametrize("case", sorted(_PATCH_CASES))
    def test_patch_digest(self, case):
        golden.check("patch_pins", case, _patch_case(case))

    def test_every_case_pinned(self):
        golden.check_keys("patch_pins", [*_PATCH_CASES, *_PRINTED])


class TestPrintedOutputPins:
    def test_e14_rows(self):
        golden.check("patch_pins", "E14-rows", _e14_rows_digest())

    def test_stable_network_patches_example_stdout(self):
        golden.check("patch_pins", "example-stdout", _example_stdout_digest())
