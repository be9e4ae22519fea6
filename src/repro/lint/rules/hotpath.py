"""REP4xx: hot-path hygiene in the packed/kernel modules.

The kernel engine's entire advantage is that a round is a handful of
whole-network array operations.  Three structural regressions erode it
silently: numpy calls re-entering Python ``for`` loops (per-element
dispatch pays numpy overhead n times), float literals or true division
leaking ``float64`` into ``uint64`` word arrays (silent upcast, then a
cast back that may truncate), and invariants guarded by ``assert``
(stripped wholesale under ``python -O``, so the "impossible" state ships
instead of raising).  And the packed bit-row layout (little-endian
``uint64`` words, lowest bit first) has one home, ``repro/bits.py``: a
word count, word index or bit offset written out anywhere else, or a
byte-level conversion, is a second copy of the layout.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Iterator

from ..findings import Finding
from ..visitor import FileIndex
from . import BaseRule, register_rule

#: Functions where per-element Python is accepted: materialisation back
#: into node objects and one-time setup are off the hot path.
LOOP_EXEMPT_FUNCTIONS = frozenset({"to_nodes", "__init__"})

#: Loop targets that mark a per-*round* loop.  One Python iteration per
#: round with whole-network array ops inside is the engine's design; the
#: rule hunts per-element (n- or k-sized) loops.
ROUND_LOOP_TARGETS = ("round", "iteration", "epoch")

#: Byte-level conversions of a bit row, matched by the called name.
LAYOUT_CALLS = frozenset({"from_bytes", "to_bytes", "packbits", "unpackbits"})

#: The layout arithmetic :func:`~repro.lint.visitor.build_index` records.
LAYOUT_BINOPS = {
    "word-count": "`(x + 63) // 64` word count",
    "word-index": "`x >> 6` word index",
    "bit-offset": "`x & 63` bit offset",
}


def _is_round_loop(targets: tuple[str, ...]) -> bool:
    return any(
        marker in target for target in targets for marker in ROUND_LOOP_TARGETS
    )


@register_rule
class NumpyInLoopRule(BaseRule):
    id = "REP401"
    name = "numpy-in-loop"
    description = (
        "per-element numpy calls inside Python for-loops in hot-path "
        "modules; batch across the loop axis"
    )
    categories = frozenset({"src"})

    def check(self, index: FileIndex) -> Iterator[Finding]:
        if not (index.is_kernel_module or index.is_packed_module):
            return
        for call in index.calls:
            resolved = call.resolved
            if not resolved or not resolved.startswith("numpy."):
                continue
            element_loops = [
                (kind, targets)
                for kind, targets in call.loops
                if kind in ("range", "enumerate") and not _is_round_loop(targets)
            ]
            if not element_loops:
                continue
            if LOOP_EXEMPT_FUNCTIONS & set(call.func_names):
                continue
            yield self.finding(
                index,
                call.node,
                f"`{resolved}` inside a Python element loop: numpy dispatch "
                "is paid once per iteration — lift the operation across the "
                "loop axis (or justify with an allow comment)",
            )


@register_rule
class Uint64UpcastRule(BaseRule):
    id = "REP402"
    name = "uint64-upcast"
    description = (
        "true division / float literals in packed modules silently upcast "
        "uint64 words to float64"
    )
    categories = frozenset({"src"})

    def check(self, index: FileIndex) -> Iterator[Finding]:
        if not index.is_packed_module:
            return
        for record in index.binops:
            if record.kind == "division":
                yield self.finding(
                    index,
                    record.node,
                    "true division in a packed module produces float64 — "
                    "uint64 word arrays lose exactness above 2**53; use // "
                    "(or an explicit float() if a ratio is intended)",
                )
            elif record.kind == "float-literal":
                yield self.finding(
                    index,
                    record.node,
                    "float literal mixed into arithmetic in a packed "
                    "module: a uint64 operand would be upcast to float64 "
                    "silently — make the intended dtype explicit",
                )


@register_rule
class LoadBearingAssertRule(BaseRule):
    id = "REP403"
    name = "load-bearing-assert"
    description = (
        "assert statements vanish under `python -O`; raise an explicit "
        "error for real invariants"
    )
    categories = frozenset({"src"})

    def check(self, index: FileIndex) -> Iterator[Finding]:
        for record in index.asserts:
            yield self.finding(
                index,
                record.node,
                "assert is stripped under python -O, so this invariant "
                "silently stops being checked; raise "
                "RuntimeError/ValueError explicitly (tests may keep "
                "asserts — this rule only covers src/)",
            )


@register_rule
class LayoutOutsideBitsRule(BaseRule):
    id = "REP404"
    name = "layout-outside-bits"
    description = (
        "packed bit-row layout arithmetic and byte conversions belong to "
        "repro/bits.py"
    )
    categories = frozenset({"src"})

    def check(self, index: FileIndex) -> Iterator[Finding]:
        if PurePath(index.path).name == "bits.py":
            return
        for record in index.binops:
            if record.kind in LAYOUT_BINOPS:
                yield self.finding(
                    index,
                    record.node,
                    f"{LAYOUT_BINOPS[record.kind]} outside repro/bits.py: "
                    "call repro.bits (word_count, set_bits, iter_bits, ...) "
                    "so the layout keeps one home",
                )
        for call in index.calls:
            if call.name in LAYOUT_CALLS:
                yield self.finding(
                    index,
                    call.node,
                    f"`{call.name}(...)` outside repro/bits.py: convert "
                    "bit rows with repro.bits (masks_to_packed, pack_bits, "
                    "...) so the layout keeps one home",
                )
