"""The maximal-independent-set check that the Section 8.1 tests apply.

``tests/test_patches_oracle.py`` holds this check against networkx's
``is_dominating_set`` and an induced-subgraph edge count, and the MIS tests
apply it to every set that ``repro.network.luby_mis`` returns. It reads only a topology's node list and adjacency bit masks.
"""

from __future__ import annotations


def is_maximal_independent_set(topology, candidate: set | frozenset) -> bool:
    """Check independence and maximality of ``candidate`` in ``topology``."""
    candidate = set(candidate)
    if not candidate <= set(topology.nodes):
        return False
    chosen = sum(1 << int(u) for u in candidate)
    for u, mask in enumerate(topology.masks):
        # A chosen node must have no chosen neighbour; any other node needs one.
        if bool(mask & chosen) == (u in candidate):
            return False
    return True
