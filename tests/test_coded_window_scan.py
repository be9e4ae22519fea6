"""Only ``algorithms/blocks.py`` decodes, draws batches or opens generations, or a reason says why.

Every coding protocol is its indexing rule plus shared machinery: the coded
window (:class:`~repro.algorithms.blocks.BlockBroadcast`), the decode of a
complete span (:func:`~repro.algorithms.blocks.decoded_tokens`) and the
single-generation node
(:class:`~repro.algorithms.indexed_broadcast.IndexedBroadcastNode`).  This
scan parses every module under ``src/repro/algorithms/`` except
``blocks.py`` and flags:

* a call of ``decode_block`` or ``decode_payloads`` (a decode loop of its own);
* a call of ``.choice`` (a ``b/d`` random draw of its own, rather than
  :func:`~repro.algorithms.random_forward.random_batch`);
* a call of ``Generation`` or ``.for_message`` (a coding generation of its
  own, or a join built from a message's dimensions).

A site is ``path::function::kind``, the function being the enclosing
``Class.method`` or function (``<module>`` at top level). ``ALLOWED``
gives each site that stays one reason, and covers one occurrence.
Run it standalone to print the sites:
``python tests/test_coded_window_scan.py``.
"""

from __future__ import annotations

import ast
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Sites outside ``blocks.py`` that stay, each with the reason.
ALLOWED: dict[str, str] = {
    "repro/algorithms/random_forward.py::random_batch::choice": "the one b/d random draw of Lemma 7.2 that every forwarding phase calls",
    "repro/algorithms/indexed_broadcast.py::IndexedBroadcastNode.__init__::Generation": "the one static single-token generation every single-generation coder inherits",
}

_CALLS = frozenset({"decode_block", "decode_payloads", "choice", "Generation", "for_message"})


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
        kind = _call_kind(node)
        if kind is not None:
            where = ".".join(self.scope) or "<module>"
            self.found[f"{self.path}::{where}::{kind}"] += 1
        super().generic_visit(node)


def window_sites(root: Path = ROOT) -> Counter[str]:
    """Every flagged call under ``root/src/repro/algorithms`` outside ``blocks.py``, counted by site."""
    src = root / "src"
    found: Counter[str] = Counter()
    for path in sorted((src / "repro" / "algorithms").rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if relative == "repro/algorithms/blocks.py" or "__pycache__" in path.parts:
            continue
        visitor = _Sites(relative)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found.update(visitor.found)
    return found


def test_only_blocks_runs_the_coded_window():
    sites = window_sites()
    stray = sorted(site for site, count in sites.items() if site not in ALLOWED or count > 1)
    assert not stray, (
        "decode loops, random draws or generations outside "
        "src/repro/algorithms/blocks.py; use BlockBroadcast, decoded_tokens, "
        "random_batch or IndexedBroadcastNode instead, or add the site to "
        f"ALLOWED with a reason: {stray}"
    )


def test_allowed_sites_still_exist_and_have_one_line_reasons():
    sites = window_sites()
    gone = sorted(site for site in ALLOWED if site not in sites)
    assert not gone, f"ALLOWED sites that no longer exist; drop them: {gone}"
    for site, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, site


def test_scan_flags_every_kind_outside_blocks(tmp_path):
    protocol = """
        from repro.coding.rlnc import Generation


        class Node:
            def join(self, message):
                return Generation.for_message(message).new_state()

            def open(self, k):
                return Generation(k=k, payload_bits=8)

            def finish(self, state, config):
                return [decode_block(config, p, 1) for p in state.decode_payloads()]

            def pick(self, items):
                return self.rng.choice(len(items), size=2, replace=False)
    """
    for relative in ("src/repro/algorithms/mod.py", "src/repro/algorithms/blocks.py"):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(protocol))
    assert window_sites(tmp_path) == Counter(
        {
            "repro/algorithms/mod.py::Node.join::for_message": 1,
            "repro/algorithms/mod.py::Node.open::Generation": 1,
            "repro/algorithms/mod.py::Node.finish::decode_block": 1,
            "repro/algorithms/mod.py::Node.finish::decode_payloads": 1,
            "repro/algorithms/mod.py::Node.pick::choice": 1,
        }
    )


if __name__ == "__main__":
    for site, count in sorted(window_sites().items()):
        print(site, count, "(allowed)" if site in ALLOWED else "")
