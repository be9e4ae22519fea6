"""The rule base class and registry.

A rule subclasses :class:`BaseRule`, sets ``id`` (``"REP102"``), ``name``
(a kebab slug), ``description`` and the file ``categories`` it applies to,
and implements ``check(index)``, a generator yielding
:class:`~repro.lint.findings.Finding` records from a prebuilt
:class:`~repro.lint.visitor.FileIndex`.  Register with the
:func:`register_rule` class decorator; the engine instantiates one
singleton per rule class.

Rule id ranges mirror the contract families:

* ``REP1xx`` — determinism (seeded RNG streams only)
* ``REP2xx`` — picklability (sweep-worker factory contract)
* ``REP3xx`` — engine matrix, GF(2) representation and coded-window contracts
* ``REP4xx`` — hot-path hygiene and the packed bit-row layout's one home

``REP000`` (syntax error), ``REP001`` (bad suppression) and ``REP002``
(unused suppression) are engine pseudo-rules, deliberately outside the
registry: no allow can silence them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..visitor import FileIndex


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


# Populate the registry.  Imported last so the submodules can import the
# decorator from this package during initialisation.
from . import determinism as _determinism  # noqa: E402,F401
from . import engine_contracts as _engine_contracts  # noqa: E402,F401
from . import hotpath as _hotpath  # noqa: E402,F401
from . import picklability as _picklability  # noqa: E402,F401
