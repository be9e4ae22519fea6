"""Pins of the Section 8.1 patch decomposition, E14's rows and the example.

Each case decomposes one seeded ``random_connected_topology`` and hashes
every field of the result (leaders, each patch's members, tree parents and
depths, the MIS phase count) together with the next draw of the rng the
decomposition consumed, so a change to the power graph, the MIS draw order
or the BFS tie-breaking moves a digest.  The cases span n = 2..40, radii
1-4 and both MIS variants; ``n18-r1`` and ``n18-r4`` are inputs on which
Luby's per-phase draws do not visit the active nodes in ascending order.

E14's printed rows and ``examples/stable_network_patches.py``'s stdout are
pinned the same way.  The digests were recorded from the networkx
implementation that ``tests/oracles/nx_patches.py`` keeps as the reference.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.network import compute_patches, random_connected_topology

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"

#: name -> (n, radius, topology seed, extra_edge_prob, deterministic)
_PATCH_CASES = {
    "n2-r1": (2, 1, 0, 0.0, False),
    "n5-r2": (5, 2, 1, 0.2, False),
    "n9-r1": (9, 1, 2, 0.03, False),
    "n12-r3": (12, 3, 3, 0.0, False),
    "n18-r1": (18, 1, 3, 0.0, False),
    "n18-r4": (18, 4, 0, 0.0, False),
    "n23-r2": (23, 2, 4, 0.2, False),
    "n33-r3": (33, 3, 5, 0.03, False),
    "n40-r2": (40, 2, 6, 0.03, False),
    "det-n7-r2": (7, 2, 7, 0.2, True),
    "det-n26-r3": (26, 3, 8, 0.03, True),
    "det-n40-r1": (40, 1, 9, 0.0, True),
}

_PATCH_DIGESTS = {
    "det-n26-r3": "a51856687a1370a25e3d6fb37f696a1dbe0554185702261e45269621266c32d5",
    "det-n40-r1": "fd83ccee96d362fd0b48f055b3956d25ebc6edcb4160629c208374efb29409bf",
    "det-n7-r2": "744c221c3de98180340a619a224a5443affbbc6b07cea6af42ccff3056bde181",
    "n12-r3": "27e123ab0164e419400730fe1d5934658f6f7f2250f44087f14446b7889bd341",
    "n18-r1": "ed3492b5bafd695bfd703da4f5ac2318240ae75ea37adecde1d644437d86e02a",
    "n18-r4": "800d2ea3a9769dd34f930c9cfa3ac3a7a3acc0e151b7ddb361c6fe4fcb2e519e",
    "n2-r1": "1dfa67ff39c2ccd146737060c01be3c0a1ed3cdfe61514a7c961d37edd9b03ee",
    "n23-r2": "b449decb451feffe73b6e5c304d7469f1030f349a7e84f739239b069a02d4402",
    "n33-r3": "ca8e75fcb3173b295d12f6d67c1ba60cfbf13f6d30de24c25f759234401f2540",
    "n40-r2": "624cb4647a56029329c2f0b306e6d041a971ad60af1144294071ffacc0576027",
    "n5-r2": "d37cce3b562dd428cc2a0b6910b2ec2e02e1c0f8cdd21d744f2e2bc80fc5d385",
    "n9-r1": "1d9e761744a9c9bd86119aee16af953e842f09642a2485528bc8f5e743ad2c6a",
}


def _patch_case(name: str) -> str:
    n, radius, seed, extra, deterministic = _PATCH_CASES[name]
    topology = random_connected_topology(n, np.random.default_rng(seed), extra_edge_prob=extra)
    rng = np.random.default_rng(seed + 100)
    decomposition = compute_patches(topology, radius=radius, rng=rng, deterministic=deterministic)
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
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _e14_rows() -> list[dict]:
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    import bench_e14_patching

    return [bench_e14_patching._patch_row(60, radius) for radius in (2, 3, 5)]


def _example_stdout() -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "stable_network_patches.py")],
        capture_output=True,
        check=True,
        env=env,
        timeout=120,
    )
    return completed.stdout


_E14_DIGEST = "22a93892f0f177518c128ff881106ed4fea1e9512233a21eb40a9ddeab99d1df"
_EXAMPLE_DIGEST = "cb528e89966b10bc81188cd4c2c0973b72e9104580812405c54a31865493b86e"


class TestPatchPins:
    @pytest.mark.parametrize("case", sorted(_PATCH_CASES))
    def test_patch_digest(self, case):
        assert _patch_case(case) == _PATCH_DIGESTS[case]

    def test_every_case_pinned(self):
        assert set(_PATCH_CASES) == set(_PATCH_DIGESTS)


class TestPrintedOutputPins:
    def test_e14_rows(self):
        digest = hashlib.sha256(repr(_e14_rows()).encode()).hexdigest()
        assert digest == _E14_DIGEST

    def test_stable_network_patches_example_stdout(self):
        assert hashlib.sha256(_example_stdout()).hexdigest() == _EXAMPLE_DIGEST


if __name__ == "__main__":  # print the digests to paste above
    for name in sorted(_PATCH_CASES):
        print(f'    "{name}": "{_patch_case(name)}",')
    print("E14", hashlib.sha256(repr(_e14_rows()).encode()).hexdigest())
    print("example", hashlib.sha256(_example_stdout()).hexdigest())
