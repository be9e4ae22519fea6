"""The shared AST pass: one walk per file, typed records for every rule.

Rules never walk the tree themselves.  :func:`build_index` runs a single
:class:`ast.NodeVisitor` over the module and collects typed records —
imports with their resolved targets, calls with the full scope/loop
context, class bodies with decorators and members, asserts, returns,
binary operations (upcast hazards and bit-layout arithmetic) — into a
:class:`FileIndex`.  A rule is then a cheap filter over those records,
which keeps the per-file cost one walk no matter how many rules there
are and gives every rule the same name-resolution semantics.

Name resolution is intentionally static and module-local: ``import numpy
as np`` makes ``np.random.default_rng`` resolve to
``numpy.random.default_rng``; ``from ..gf import GF2Basis`` makes
``GF2Basis.from_rows`` resolve to ``..gf.GF2Basis.from_rows`` (relative
dots preserved).  Rules therefore match on resolved dotted components,
not on surface spelling.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


def dotted_name(node: ast.AST) -> str | None:
    """``"a.b.c"`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class ImportRecord:
    node: ast.stmt
    #: Imported module, relative dots preserved (``"..gf"``, ``"random"``).
    module: str
    #: Names pulled out by a from-import (empty for plain ``import``).
    names: tuple[str, ...]


@dataclass(frozen=True)
class CallRecord:
    node: ast.Call
    #: Dotted callable with import aliases resolved, or ``None`` when the
    #: callee is not a plain Name/Attribute chain (e.g. ``fns[i]()``).
    resolved: str | None
    #: Enclosing function names, outermost first (``"<lambda>"`` frames
    #: included).  Empty at module level.
    func_names: tuple[str, ...]
    #: Enclosing class names, outermost first.
    class_names: tuple[str, ...]
    #: Enclosing loops, outermost first: ``(kind, target_names)`` where
    #: kind is ``"range"`` / ``"enumerate"`` for ``for`` loops over those
    #: builtins, ``"other"`` for other ``for`` loops, ``"while"`` for
    #: while loops (whose target names are empty).
    loops: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def name(self) -> str | None:
        """The called attribute or bare name, whatever the receiver
        (``to_bytes`` for ``mask.to_bytes(8, "little")``)."""
        func = self.node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        return func.id if isinstance(func, ast.Name) else None


@dataclass(frozen=True)
class AssertRecord:
    node: ast.Assert
    func_names: tuple[str, ...]


@dataclass(frozen=True)
class ReturnRecord:
    node: ast.Return
    func_names: tuple[str, ...]


@dataclass(frozen=True)
class ClassRecord:
    node: ast.ClassDef
    name: str
    #: Base-class expressions as written (dotted strings).
    base_names: tuple[str, ...]
    #: Resolved decorator targets (the callee for ``@deco(...)`` forms).
    decorators: tuple[str, ...]
    #: Method and attribute names bound directly in the class body.
    members: frozenset[str]


@dataclass(frozen=True)
class FunctionRecord:
    node: ast.AST
    name: str
    #: Enclosing function names — non-empty means a nested def (closure).
    func_names: tuple[str, ...]
    class_names: tuple[str, ...]


@dataclass(frozen=True)
class BinOpRecord:
    node: ast.BinOp
    #: ``"division"`` (true division on non-constant operands),
    #: ``"float-literal"`` (float constant mixed into arithmetic), or a
    #: packed bit-row layout conversion: ``"word-count"`` (``(x + 63) //
    #: 64``), ``"word-index"`` (``x >> 6``), ``"bit-offset"`` (``x & 63``).
    kind: str
    func_names: tuple[str, ...]


@dataclass
class FileIndex:
    """Everything the rules need to know about one source file."""

    path: str
    #: ``"src"`` | ``"bench"`` | ``"test"`` — decides which rules apply.
    category: str
    #: Basename is in the engine's kernel-module list.
    is_kernel_module: bool = False
    #: Basename is in the engine's packed-module list.
    is_packed_module: bool = False
    #: File lives under an ``algorithms`` package directory.
    in_algorithms: bool = False

    source: str = ""

    #: ``import x as y`` bindings: bound name -> module dotted path.
    aliases: dict[str, str] = field(default_factory=dict)
    #: ``from m import x as y`` bindings: bound name -> ``m.x``.
    from_names: dict[str, str] = field(default_factory=dict)

    imports: list[ImportRecord] = field(default_factory=list)
    calls: list[CallRecord] = field(default_factory=list)
    asserts: list[AssertRecord] = field(default_factory=list)
    returns: list[ReturnRecord] = field(default_factory=list)
    classes: list[ClassRecord] = field(default_factory=list)
    functions: list[FunctionRecord] = field(default_factory=list)
    binops: list[BinOpRecord] = field(default_factory=list)

    def resolve_node(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain through this file's imports."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        base = self.from_names.get(root) or self.aliases.get(root) or root
        return f"{base}.{rest}" if rest else base

    @property
    def nested_function_names(self) -> frozenset[str]:
        """Names of functions defined inside another function (closures)."""
        return frozenset(f.name for f in self.functions if f.func_names)

    @property
    def module_level_names(self) -> frozenset[str]:
        """Names bound at module scope (defs, classes, imports)."""
        defs = {
            f.name
            for f in self.functions
            if not f.func_names and not f.class_names
        }
        classes = {c.name for c in self.classes}
        return frozenset(defs | classes | set(self.aliases) | set(self.from_names))


class _IndexBuilder(ast.NodeVisitor):
    def __init__(self, index: FileIndex):
        self.index = index
        self._funcs: list[str] = []
        self._classes: list[str] = []
        self._loops: list[tuple[str, tuple[str, ...]]] = []

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.index.aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.index.aliases[root] = root
            self.index.imports.append(ImportRecord(node, alias.name, ()))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = "." * node.level + (node.module or "")
        names: list[str] = []
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            prefix = f"{module}." if module else ""
            self.index.from_names[bound] = f"{prefix}{alias.name}"
            names.append(alias.name)
        self.index.imports.append(ImportRecord(node, module, tuple(names)))

    # -- scopes --------------------------------------------------------
    def _visit_function(self, node) -> None:
        self.index.functions.append(
            FunctionRecord(node, node.name, tuple(self._funcs), tuple(self._classes))
        )
        self._funcs.append(node.name)
        self.generic_visit(node)
        self._funcs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._funcs.append("<lambda>")
        self.generic_visit(node)
        self._funcs.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorators: list[str] = []
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            resolved = self.index.resolve_node(target)
            if resolved:
                decorators.append(resolved)
            self.visit(deco)
        for base in node.bases:
            self.visit(base)
        members: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                members.update(
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                members.add(stmt.target.id)
        base_names = tuple(
            name for b in node.bases if (name := dotted_name(b)) is not None
        )
        self.index.classes.append(
            ClassRecord(node, node.name, base_names, tuple(decorators), frozenset(members))
        )
        self._classes.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self._classes.pop()

    # -- loops ---------------------------------------------------------
    def _visit_for(self, node) -> None:
        kind = "other"
        if isinstance(node.iter, ast.Call):
            callee = dotted_name(node.iter.func)
            if callee in ("range", "enumerate"):
                kind = callee
        targets = tuple(
            child.id for child in ast.walk(node.target) if isinstance(child, ast.Name)
        )
        self.visit(node.target)
        self.visit(node.iter)
        self._loops.append((kind, targets))
        for stmt in node.body:
            self.visit(stmt)
        self._loops.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    visit_For = _visit_for
    visit_AsyncFor = _visit_for

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._loops.append(("while", ()))
        for stmt in node.body:
            self.visit(stmt)
        self._loops.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    # -- leaf records --------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.index.calls.append(
            CallRecord(
                node,
                self.index.resolve_node(node.func),
                tuple(self._funcs),
                tuple(self._classes),
                tuple(self._loops),
            )
        )
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self.index.asserts.append(AssertRecord(node, tuple(self._funcs)))
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        self.index.returns.append(ReturnRecord(node, tuple(self._funcs)))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        kind = _binop_kind(node)
        if kind is not None:
            self.index.binops.append(BinOpRecord(node, kind, tuple(self._funcs)))
        self.generic_visit(node)


def _is_constant(node: ast.AST, value) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _binop_kind(node: ast.BinOp) -> str | None:
    """The :attr:`BinOpRecord.kind` of ``node``, or ``None`` for none."""
    left, right, op = node.left, node.right, node.op
    both_const = isinstance(left, ast.Constant) and isinstance(right, ast.Constant)
    if isinstance(op, ast.Div):
        return None if both_const else "division"
    if isinstance(op, (ast.Add, ast.Sub, ast.Mult, ast.Pow)):
        floats = any(
            isinstance(side, ast.Constant) and isinstance(side.value, float)
            for side in (left, right)
        )
        return "float-literal" if floats and not both_const else None
    if (
        isinstance(op, ast.FloorDiv)
        and _is_constant(right, 64)
        and isinstance(left, ast.BinOp)
        and isinstance(left.op, ast.Add)
        and _is_constant(left.right, 63)
    ):
        return "word-count"
    if isinstance(op, ast.RShift) and _is_constant(right, 6):
        return "word-index"
    if isinstance(op, ast.BitAnd) and (_is_constant(left, 63) or _is_constant(right, 63)):
        return "bit-offset"
    return None


def build_index(
    path: str,
    source: str,
    tree: ast.Module,
    *,
    category: str,
    is_kernel_module: bool = False,
    is_packed_module: bool = False,
    in_algorithms: bool = False,
) -> FileIndex:
    """Walk ``tree`` once and return the populated :class:`FileIndex`."""
    index = FileIndex(
        path=path,
        category=category,
        is_kernel_module=is_kernel_module,
        is_packed_module=is_packed_module,
        in_algorithms=in_algorithms,
        source=source,
    )
    _IndexBuilder(index).visit(tree)
    return index
