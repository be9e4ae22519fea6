"""Every public name in ``src/repro`` is used by code that runs, or says why not.

A public name is a name in a ``src/repro`` module's ``__all__``, or a
public method of such a class (``module.Class.method``). A name counts as
used when it appears as an identifier (a loaded ``Name``, an ``Attribute`` or
an imported alias) somewhere in ``src/``, ``benchmarks/``, ``examples/`` or
``perfbench/``; a method only when something reads it as an attribute
(``obj.method``), since a local variable of the same name is no call. Not counted: the name's own definition (its ``def`` or
``class`` body, or the assignment that binds it), ``__all__`` lists,
re-exports in ``__init__`` modules, docstrings, comments and type
annotations (an annotation names a type, it does not use it). A method's
uses inside its own class do count. Tests are not callers: a name only
tests reach belongs in ``tests/`` or in ``KEPT``.

Matching is by bare name, so a common word (``rank``) read as any
attribute counts as a use; the scan can miss dead code, never invent it.
Run it standalone to print the names without a caller:
``python tests/test_src_callers.py``.

This is the one structural check that is a scan rather than a
``repro.lint`` rule: whether a name has a caller is a fact about other
files, and the lint checks one file at a time. So its exceptions live in
``KEPT`` here, not in inline ``# repro: allow[...]`` comments.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Public names with no caller outside the tests, each with the reason it stays.
KEPT: dict[str, str] = {
    "repro.__version__": "the package version; obs/trace.py reads it with getattr for run manifests",
    "repro.analysis.bounds.coding_speedup_over_forwarding": "Section 2.3's predicted coding speedup; ROADMAP item 3(a) checks runs against it",
    "repro.analysis.bounds.tstable_patch_broadcast_rounds": "Lemma 8.1's statement; ROADMAP item 3(a) checks runs against it",
    "repro.network.stability.is_t_interval_connected": "the paper's definition of T-interval connectivity",
    "repro.network.stability.is_t_stable": "the paper's definition of a T-stable network",
    "repro.network.stability.max_interval_connectivity": "the largest T for which the paper's T-interval connectivity holds",
    "repro.network.stability.max_stability": "the largest T for which the paper's T-stability holds",
    "repro.network.stability.stable_intersection": "the graph a T-stable block keeps, from the paper's definition",
    "repro.network.adversary.ObliviousSequenceAdversary": "plays a fixed Topology sequence; ROADMAP item 2 replays the explorer's worst case through it",
    "repro.network.adversary.TokenIsolationAdversary": "realises the Section 5.3 worst case; ROADMAP item 3(a) makes it the Lemma 5.3 property's adversary",
    "repro.network.adversary.StaticAdversary": "an oblivious adversary family exported from repro",
    "repro.network.adversary.RandomTreeAdversary": "an oblivious adversary family exported from repro",
    "repro.network.adversary.RotatingStarAdversary": "an oblivious adversary family exported from repro",
    "repro.simulation.kernels.TokenForwardingKernel": "registered by @register_kernel; run_dissemination reaches it through KERNEL_REGISTRY",
    "repro.gf.field.GF.mul": "scalar GF(q) product; the dense GF(q) reference tests/oracles/gf_matrix.py reads it",
    "repro.gf.field.GF.neg": "scalar GF(q) additive inverse; the dense GF(q) reference tests/oracles/gf_matrix.py reads it",
    "repro.network.patches.PatchDecomposition.leaders": "the Section 8.1 leader set (the power graph's MIS); the patch pins and the networkx patch oracle compare by it",
    "repro.network.topology.Topology.edges": "the documented (u, v) edge list of a topology; tests.conftest.nx_graph builds every networkx oracle graph from it",
    "repro.network.topology.Topology.from_edges": "the documented way to build a custom topology from an edge list",
    "repro.network.topology.Topology.from_packed_batch": "the documented way to build custom topologies from a packed adjacency batch",
}


def _python_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.rglob("*.py") if "__pycache__" not in p.parts)


def _module_name(path: Path, package: Path) -> str:
    parts = path.relative_to(package.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _bound_names(statement: ast.stmt) -> list[str]:
    """Names a top-level statement binds by definition (not by import)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets: list[ast.expr] = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _public_methods(statement: ast.stmt) -> list[str]:
    """The public methods a class statement defines in its own body."""
    if not isinstance(statement, ast.ClassDef):
        return []
    return [
        item.name
        for item in statement.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def _annotations(node: ast.AST):
    """The annotation expressions of every argument, return and annotated
    assignment inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            annotation = sub.annotation
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = sub.returns
        elif isinstance(sub, ast.AnnAssign):
            annotation = sub.annotation
        else:
            continue
        if annotation is not None:
            yield annotation


def _identifiers(node: ast.AST) -> tuple[set[str], set[str]]:
    """``(every identifier node reads, the ones it reads as attributes)``.

    Identifiers are loaded names, attributes and imported aliases, outside
    type annotations.
    """
    skipped = {id(sub) for annotation in _annotations(node) for sub in ast.walk(annotation)}
    found: set[str] = set()
    attributes: set[str] = set()
    for sub in ast.walk(node):
        if id(sub) in skipped:
            continue
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            attributes.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    return found | attributes, attributes


@cache
def scan(root: Path = ROOT) -> tuple[dict[str, str], set[str], set[str]]:
    """Return ``(public, used, attributes)``.

    ``public`` maps each public definition's qualified name to its bare
    name; ``used`` holds the bare names read anywhere and ``attributes``
    those read as an attribute.
    """
    package = root / "src" / "repro"
    public: dict[str, str] = {}
    used: set[str] = set()
    attributes: set[str] = set()
    for directory in CALLER_DIRS:
        if not (root / directory).is_dir():
            continue
        for path in _python_files(root / directory):
            tree = ast.parse(path.read_text(), filename=str(path))
            in_package = path.is_relative_to(package)
            exported: set[str] = set()
            if in_package:
                for statement in tree.body:
                    if isinstance(statement, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets
                    ):
                        exported = set(ast.literal_eval(statement.value))
            module = _module_name(path, package) if in_package else ""
            for statement in tree.body:
                defined = _bound_names(statement)
                for name in defined:
                    if name in exported:
                        public[f"{module}.{name}"] = name
                        for method in _public_methods(statement):
                            public[f"{module}.{name}.{method}"] = method
                if in_package and path.name == "__init__.py" and isinstance(statement, ast.ImportFrom):
                    continue  # a re-export
                if isinstance(statement, (ast.Assign, ast.AnnAssign)) and defined:
                    value = statement.value
                    if defined == ["__all__"] or value is None:
                        continue
                    found, read = _identifiers(value)
                    used |= found - set(defined)
                    attributes |= read
                    continue
                found, read = _identifiers(statement)
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    found.discard(statement.name)  # its own body is not a caller
                used |= found
                attributes |= read
    return public, used, attributes


def _called(qualified: str, root: Path) -> bool:
    """Whether the public ``qualified`` name has a caller (a method: an attribute read)."""
    public, used, attributes = scan(root)
    module_or_class, _, name = qualified.rpartition(".")
    is_method = module_or_class in public
    return name in (attributes if is_method else used)


def uncalled(root: Path = ROOT) -> list[str]:
    public = scan(root)[0]
    return sorted(q for q in public if not _called(q, root))


def test_every_public_name_has_a_caller_or_a_kept_reason():
    missing = [q for q in uncalled() if q not in KEPT]
    assert not missing, (
        "public names with no caller in src/, benchmarks/, examples/ or perfbench/; "
        f"delete them, move them to tests/, or add them to KEPT with a reason: {missing}"
    )


def stale_kept(kept: dict[str, str], root: Path = ROOT) -> tuple[list[str], list[str]]:
    """``(kept names that no longer exist, kept names that now have a caller)``."""
    public = scan(root)[0]
    gone = sorted(q for q in kept if q not in public)
    called = sorted(q for q in kept if q in public and _called(q, root))
    return gone, called


def test_kept_entries_are_still_defined_and_still_uncalled():
    gone, called = stale_kept(KEPT)
    assert not gone, f"KEPT names that no longer exist: {gone}"
    assert not called, f"KEPT names that now have a caller; drop them from KEPT: {called}"


def test_kept_reasons_are_one_line():
    for qualified, reason in KEPT.items():
        assert reason.strip() and "\n" not in reason, qualified



# ----------------------------------------------------------------------
# the scan itself, on small synthetic trees
# ----------------------------------------------------------------------

_MODULE = '''
    """Module docstring naming dead()."""

    __all__ = ["dead", "live"]


    def dead():
        """Recursion is not a caller: dead()."""
        return dead()


    def live():
        return 1
'''


def _tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def test_scan_flags_a_public_name_that_only_its_own_module_mentions(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": "from .mod import dead, live\n__all__ = ['dead', 'live']\n",
            "src/repro/mod.py": _MODULE,
            "benchmarks/bench.py": "# dead() is only named in this comment\nfrom repro import live\n",
        },
    )
    assert uncalled(root) == ["repro.mod.dead"]


@pytest.mark.parametrize(
    "use",
    [
        "from repro.mod import dead\n",
        "import repro.mod\nrepro.mod.dead()\n",
        "handler = {'name': dead}\n",
    ],
    ids=["import", "attribute", "name"],
)
def test_scan_counts_every_kind_of_use(tmp_path, use):
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": _MODULE,
            "examples/use.py": "from repro.mod import live\n" + use,
        },
    )
    assert uncalled(root) == []


def test_scan_flags_a_public_method_without_a_caller(tmp_path):
    shapes = """
        __all__ = ["Square"]


        class Square:
            def area(self):
                return self._side() ** 2

            def perimeter(self):
                return 4 * self._side()

            def _side(self):
                return 1
    """
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/shapes.py": shapes,
            "examples/use.py": "from repro.shapes import Square\nprint(Square().area())\n",
        },
    )
    assert uncalled(root) == ["repro.shapes.Square.perimeter"]


def test_a_local_variable_named_like_a_method_is_not_a_caller(tmp_path):
    shapes = """
        __all__ = ["Square"]


        class Square:
            def area(self):
                return 1

            def edges(self):
                return 4
    """
    use = (
        "from repro.shapes import Square\n"
        "area = Square().area()\n"
        "edges = [area] * 4\n"
        "print(edges)\n"
    )
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/shapes.py": shapes,
            "examples/use.py": use,
        },
    )
    # ``edges`` is read only as a variable, ``area`` also as an attribute.
    assert uncalled(root) == ["repro.shapes.Square.edges"]


def test_a_name_used_only_in_annotations_is_not_called(tmp_path):
    shapes = """
        __all__ = ["Shape", "Square"]


        class Shape:
            pass


        class Square:
            side: Shape | None = None

            def grow(self, other: Shape) -> "Shape":
                return other
    """
    use = (
        "from repro.shapes import Square\n"
        "def build(template: Shape) -> Shape:\n"
        "    square: Shape = Square()\n"
        "    return square.grow(template)\n"
    )
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/shapes.py": shapes,
            "examples/use.py": use,
        },
    )
    # Every mention of ``Shape`` is an annotation: a field's, an
    # argument's, a return's or a local's.
    assert uncalled(root) == ["repro.shapes.Shape"]


def test_scan_reports_kept_names_that_are_gone_or_now_called(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": _MODULE,
            "perfbench/use.py": "from repro.mod import dead, live\n",
        },
    )
    kept = {"repro.mod.dead": "a reason", "repro.mod.removed": "a reason"}
    assert stale_kept(kept, root) == (["repro.mod.removed"], ["repro.mod.dead"])


def test_every_src_module_imports_without_tests_on_the_path(tmp_path):
    # What CI checks: nothing in src/ may import from tests/, which pytest
    # otherwise puts on sys.path by rootdir.
    script = textwrap.dedent(
        """
        import importlib, importlib.util, pkgutil
        import repro
        assert importlib.util.find_spec("tests") is None, "tests/ is importable"
        names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
        for name in names:
            importlib.import_module(name)
        print(len(names))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 50


if __name__ == "__main__":
    for qualified in uncalled():
        print(qualified, "(kept)" if qualified in KEPT else "")
