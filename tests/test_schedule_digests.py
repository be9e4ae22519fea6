"""Schedule pins: a digest of every catalog entry's first rounds.

For each catalog scenario at a few network sizes, the first ``ROUNDS``
topologies are pulled through ``choose_topology`` (so entries wrapped in a
:class:`~repro.network.adversary.TStableAdversary` are covered exactly as
the engines see them) and their ``packed_adjacency()`` bytes are hashed
with sha256.  n=65 exercises the multi-word layout whose row width is not
a multiple of 64.

The digests pin the schedule generators (processes, transformers and the
RNG draw order) byte for byte: a refactor of the schedule pipeline that
keeps them serves identical topologies.  The digests are kept in
``tests/golden/schedule_digests.json`` (see :mod:`tests.golden`).  The CSR
arrays each topology hands the engines are checked against its mask rows.
"""

from __future__ import annotations

import pytest

from repro.network import Topology
from repro.scenarios import list_scenarios, make_scenario
from tests import golden

SIZES = (24, 65, 128)
ROUNDS = 256
SEED = 0


def _cases() -> list[str]:
    return [f"{scenario}/n{n}" for scenario in list_scenarios() for n in SIZES]


def _topologies(key: str) -> list[Topology]:
    scenario, size = key.split("/")
    n = int(size[1:])
    adversary = make_scenario(scenario, n, seed=SEED)
    return [adversary.choose_topology(r, n, None) for r in range(ROUNDS)]


def _digest(topologies: list[Topology]) -> str:
    return golden.digest(*(topology.packed_adjacency().tobytes() for topology in topologies))


@pytest.mark.parametrize("key", _cases())
def test_schedule_matches_pin(key):
    topologies = _topologies(key)
    golden.check("schedule_digests", key, _digest(topologies))
    # The CSR each served topology hands the engines lists exactly the
    # neighbours its mask rows hold.
    for topology in topologies[:: ROUNDS // 8]:
        indices, indptr = topology.csr_adjacency()
        for u in range(topology.n):
            assert tuple(indices[indptr[u] : indptr[u + 1]]) == topology.neighbors_tuple(u)


def test_fixture_covers_exactly_the_pinned_cases():
    golden.check_keys("schedule_digests", _cases())


def golden_values() -> dict:
    return {key: _digest(_topologies(key)) for key in _cases()}
