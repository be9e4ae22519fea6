"""Locate the first divergence between two traces.

Cross-engine parity debugging used to be bisection: rerun with smaller
``max_rounds`` until the end-of-run ``RunMetrics`` split.  With per-round
traces the question "which round, which node?" is a direct columnar
comparison: :func:`diff_traces` walks the content arrays round-major and
reports the earliest diverging round, the field, and (for per-node
columns) the lowest diverging node uid.  Context — engine name, phase
timings, source digest — never participates, so a kernel trace diffs
clean against a mask trace of the same seeded run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bits import unpack_bools
from .trace import CONTENT_ARRAYS, Trace

__all__ = ["Divergence", "TraceDiff", "diff_traces"]

#: Per-node columns, compared node-wise within the diverging round.
_NODE_ARRAYS = ("knowledge_counts", "coded_ranks", "down_nodes")


@dataclass(frozen=True)
class Divergence:
    """One earliest point of disagreement."""

    field: str
    round_index: int
    node: int | None
    a_value: object
    b_value: object

    def describe(self) -> str:
        where = f"round {self.round_index}"
        if self.node is not None:
            where += f", node {self.node}"
        return (
            f"first divergence: {self.field} at {where} "
            f"({self.a_value!r} != {self.b_value!r})"
        )


@dataclass(frozen=True)
class TraceDiff:
    """The full comparison verdict."""

    identical: bool
    #: Content-manifest keys whose values differ (n, k, seed, protocol, ...).
    manifest_mismatches: tuple[str, ...]
    #: Earliest divergences, one per differing field, sorted by round.
    divergences: tuple[Divergence, ...]
    #: (rounds_a, rounds_b) when the traces ran different round counts.
    length_mismatch: tuple[int, int] | None

    @property
    def first(self) -> Divergence | None:
        return self.divergences[0] if self.divergences else None

    def describe(self) -> str:
        if self.identical:
            return "identical"
        lines = []
        for key in self.manifest_mismatches:
            lines.append(f"content manifest differs: {key!r}")
        if self.first is not None:
            lines.append(self.first.describe())
        elif self.length_mismatch is not None:
            a_rounds, b_rounds = self.length_mismatch
            lines.append(
                "traces agree on the common prefix but ran different "
                f"lengths: {a_rounds} vs {b_rounds} rounds"
            )
        return "\n".join(lines)


def _node_divergence(name: str, a: np.ndarray, b: np.ndarray, r: int, n: int):
    """The lowest diverging node of one per-node array at round ``r``."""
    if name == "down_nodes":
        row_a, row_b = unpack_bools(a[r], n), unpack_bools(b[r], n)
    else:
        row_a, row_b = a[r], b[r]
    nodes = np.flatnonzero(row_a != row_b)
    node = int(nodes[0])
    return Divergence(
        field=name,
        round_index=r,
        node=node,
        a_value=row_a[node].item(),
        b_value=row_b[node].item(),
    )


def diff_traces(a: Trace, b: Trace) -> TraceDiff:
    """Compare two traces' content; see the module docstring."""
    mismatches = tuple(
        sorted(
            key
            for key in set(a.content) | set(b.content)
            if a.content.get(key) != b.content.get(key) and key != "rounds"
        )
    )
    rounds = min(a.rounds, b.rounds)
    divergences: list[Divergence] = []
    comparable = a.content.get("n") == b.content.get("n")
    if comparable:
        n = a.n
        for name in CONTENT_ARRAYS:
            col_a, col_b = a.arrays[name], b.arrays[name]
            if col_a.ndim == 1:
                differs = col_a[:rounds] != col_b[:rounds]
            else:
                differs = (col_a[:rounds] != col_b[:rounds]).any(axis=1)
            hit = np.flatnonzero(differs)
            if not hit.size:
                continue
            r = int(hit[0])
            if name in _NODE_ARRAYS:
                divergences.append(_node_divergence(name, col_a, col_b, r, n))
            else:
                divergences.append(
                    Divergence(
                        field=name,
                        round_index=r,
                        node=None,
                        a_value=col_a[r].item(),
                        b_value=col_b[r].item(),
                    )
                )
    divergences.sort(key=lambda d: (d.round_index, CONTENT_ARRAYS.index(d.field)))
    length_mismatch = (
        (a.rounds, b.rounds) if a.rounds != b.rounds else None
    )
    identical = not mismatches and not divergences and length_mismatch is None
    return TraceDiff(
        identical=identical,
        manifest_mismatches=mismatches,
        divergences=tuple(divergences),
        length_mismatch=length_mismatch,
    )
