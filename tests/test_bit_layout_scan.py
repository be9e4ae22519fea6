"""Only ``src/repro/bits.py`` converts the packed bit-row layout, or a reason says why.

The layout (little-endian ``uint64`` words, lowest bit first, Python-int
masks at the per-node boundary) has one home, :mod:`repro.bits`. This scan
parses every module under ``src/`` except ``bits.py`` and flags:

* a word count written as ``(x + 63) // 64``;
* a bit's word index or offset written as ``x >> 6`` or ``x & 63``;
* a call of ``.from_bytes`` or ``.to_bytes`` (``int.from_bytes``,
  ``mask.to_bytes``);
* a call of ``packbits`` or ``unpackbits`` (``np.packbits``, ...).

A site is ``path::function::kind``, the function being the enclosing
``Class.method`` or function (``<module>`` at top level). ``ALLOWED``
gives each site that stays one reason, and covers one occurrence: a
second conversion of the same kind in an allowed function fails too.
Run it standalone to print the sites:
``python tests/test_bit_layout_scan.py``.
"""

from __future__ import annotations

import ast
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Sites outside ``bits.py`` that stay, each with the reason.
ALLOWED: dict[str, str] = {
    "repro/gf/packed.py::GF2BasisBatch._eliminate_step::unpackbits": "GF(2)-core in-loop pass: reads the pivot bits of each step's vectors; the non-pivot row layout will rewrite it",
    "repro/gf/packed.py::GF2BasisBatch.draw_random_picks::to_bytes": "GF(2)-core pass: the pick bits replay the per-node rng stream byte for byte",
    "repro/gf/packed.py::GF2BasisBatch.draw_random_picks::unpackbits": "GF(2)-core pass: the pick bits replay the per-node rng stream byte for byte",
    "repro/gf/packed.py::GF2BasisBatch.draw_random_picks::from_bytes": "an rng byte draw (the pick-bit refill), not the layout",
    "repro/gf/packed.py::GF2BasisBatch._coefficient_bits::unpackbits": "GF(2)-core in-loop pass of the decode sweep, one call per rank level",
    "repro/coding/subspace.py::Subspace.draw_pick_mask::from_bytes": "an rng byte draw (the pick-bit refill), not the layout",
    "repro/gf/field.py::GF.random_elements::from_bytes": "an rng byte draw of a big-field element, not the layout",
    "repro/network/faults.py::SpanGuard.sample_outside::from_bytes": "an rng byte draw of a malformed vector, not the layout",
    "repro/coding/deterministic.py::DeterministicSchedule.coefficient::from_bytes": "a sha256 digest read as a big-endian integer, not the layout",
    "repro/gf/packed.py::GF2BasisBatch._truncated::bit_offset": "GF(2)-core pass: masks the last word of a k-bit projection; the non-pivot row layout will rewrite it",
    "repro/gf/packed.py::GF2BasisBatch._eliminate_step::word_index": "GF(2)-core in-loop pass: the word of each new pivot bit, vectorised over the batch; the non-pivot row layout will rewrite it",
    "repro/gf/packed.py::GF2BasisBatch._eliminate_step::bit_offset": "GF(2)-core in-loop pass: the offset of each new pivot bit, vectorised over the batch; the non-pivot row layout will rewrite it",
    "repro/gf/packed.py::GF2BasisBatch.decode_payload_masks_batch::word_index": "GF(2)-core pass of the decode sweep: the word of each new pivot bit, one per rank level",
    "repro/gf/packed.py::GF2BasisBatch.decode_payload_masks_batch::bit_offset": "GF(2)-core pass of the decode sweep: the offset of each new pivot bit, one per rank level",
}

_CALLS = frozenset({"from_bytes", "to_bytes", "packbits", "unpackbits"})


def _is_word_count(node: ast.AST) -> bool:
    """``(x + 63) // 64``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 64
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and isinstance(node.left.right, ast.Constant)
        and node.left.right.value == 63
    )


def _split_kind(node: ast.AST) -> str | None:
    """``x >> 6`` (a bit's word) or ``x & 63`` / ``63 & x`` (its offset in the word)."""
    if not isinstance(node, ast.BinOp):
        return None
    if isinstance(node.op, ast.RShift) and _is_constant(node.right, 6):
        return "word_index"
    if isinstance(node.op, ast.BitAnd) and (
        _is_constant(node.left, 63) or _is_constant(node.right, 63)
    ):
        return "bit_offset"
    return None


def _is_constant(node: ast.AST, value: int) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _call_kind(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name if name in _CALLS else None


class _Sites(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.scope: list[str] = []
        self.found: Counter[str] = Counter()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def generic_visit(self, node):
        kind = "word_count" if _is_word_count(node) else _split_kind(node) or _call_kind(node)
        if kind is not None:
            where = ".".join(self.scope) or "<module>"
            self.found[f"{self.path}::{where}::{kind}"] += 1
        super().generic_visit(node)


def layout_sites(root: Path = ROOT) -> Counter[str]:
    """Every layout conversion under ``root/src`` outside ``repro/bits.py``, counted by site."""
    src = root / "src"
    found: Counter[str] = Counter()
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if relative == "repro/bits.py" or "__pycache__" in path.parts:
            continue
        visitor = _Sites(relative)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found.update(visitor.found)
    return found


def test_only_bits_converts_the_layout():
    sites = layout_sites()
    stray = sorted(site for site, count in sites.items() if site not in ALLOWED or count > 1)
    assert not stray, (
        "packed-layout conversions outside src/repro/bits.py; call repro.bits "
        f"instead, or add the site to ALLOWED with a reason: {stray}"
    )


def test_allowed_sites_still_exist_and_have_one_line_reasons():
    sites = layout_sites()
    gone = sorted(site for site in ALLOWED if site not in sites)
    assert not gone, f"ALLOWED sites that no longer exist; drop them: {gone}"
    for site, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, site


def test_scan_flags_every_kind_outside_bits(tmp_path):
    conversions = """
        import numpy as np


        def words(n):
            return max(1, (n + 63) // 64)


        def bit(row, i):
            return (int(row[i >> 6]) >> (i & 63)) & 1


        class Rows:
            def masks(self, data, stride, u):
                return int.from_bytes(data[u * stride : (u + 1) * stride], "little")

            def pack(self, mask, words):
                return mask.to_bytes(words * 8, "little")

        bools = np.unpackbits(np.packbits([1, 0, 1], bitorder="little"), bitorder="little")
    """
    for relative in ("src/repro/mod.py", "src/repro/bits.py"):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(conversions))
    assert layout_sites(tmp_path) == Counter(
        {
            "repro/mod.py::words::word_count": 1,
            "repro/mod.py::bit::word_index": 1,
            "repro/mod.py::bit::bit_offset": 1,
            "repro/mod.py::Rows.masks::from_bytes": 1,
            "repro/mod.py::Rows.pack::to_bytes": 1,
            "repro/mod.py::<module>::packbits": 1,
            "repro/mod.py::<module>::unpackbits": 1,
        }
    )


if __name__ == "__main__":
    for site, count in sorted(layout_sites().items()):
        print(site, count, "(allowed)" if site in ALLOWED else "")
