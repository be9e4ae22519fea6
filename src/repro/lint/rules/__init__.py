"""The rule protocol and registry.

A rule is an object with ``id`` (``"REP102"``), ``name`` (a kebab slug),
``description``, the file ``categories`` it applies to, and a
``check(index)`` generator yielding :class:`~repro.lint.findings.Finding`
records from a prebuilt :class:`~repro.lint.visitor.FileIndex`.  Register
with the :func:`register_rule` class decorator; the engine instantiates
one singleton per rule class.

Rule id ranges mirror the contract families:

* ``REP1xx`` — determinism (seeded RNG streams only)
* ``REP2xx`` — picklability (sweep-worker factory contract)
* ``REP3xx`` — engine matrix / GF(2) representation contracts
* ``REP4xx`` — hot-path hygiene

``REP000`` (syntax error) and ``REP001`` (bad suppression) are engine
pseudo-rules, deliberately outside the registry: they can be neither
disabled nor suppressed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Protocol, runtime_checkable

from ..findings import Finding
from ..visitor import FileIndex

#: File categories a rule may opt into.
CATEGORIES = ("src", "bench", "test")


@runtime_checkable
class Rule(Protocol):
    id: str
    name: str
    description: str
    categories: frozenset[str]

    def check(self, index: FileIndex) -> Iterator[Finding]: ...


class BaseRule:
    """Shared helpers; concrete rules subclass and set the metadata."""

    id: str = ""
    name: str = ""
    description: str = ""
    categories: frozenset[str] = frozenset({"src"})

    def finding(self, index: FileIndex, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=index.path,
            line=line,
            col=col,
            rule=self.id,
            name=self.name,
            message=message,
        )

    def check(self, index: FileIndex) -> Iterator[Finding]:
        raise NotImplementedError


RULE_REGISTRY: dict[str, BaseRule] = {}


def register_rule(cls: type[BaseRule]) -> type[BaseRule]:
    """Class decorator: instantiate and register a rule singleton."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must set id and name")
    if rule.id in RULE_REGISTRY:
        raise ValueError(f"rule id {rule.id} registered twice")
    RULE_REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[BaseRule]:
    """Every registered rule, in id order."""
    return [RULE_REGISTRY[rule_id] for rule_id in sorted(RULE_REGISTRY)]


def resolve_rule_ids(tokens: tuple[str, ...]) -> frozenset[str]:
    """Map a mix of ids and slugs to the matching registered ids."""
    ids = set()
    by_name = {rule.name: rule.id for rule in RULE_REGISTRY.values()}
    for token in tokens:
        if token in RULE_REGISTRY:
            ids.add(token)
        elif token in by_name:
            ids.add(by_name[token])
    return frozenset(ids)


# Populate the registry.  Imported last so the submodules can import the
# decorator from this package during initialisation.
from . import determinism as _determinism  # noqa: E402,F401
from . import engine_contracts as _engine_contracts  # noqa: E402,F401
from . import hotpath as _hotpath  # noqa: E402,F401
from . import picklability as _picklability  # noqa: E402,F401
