"""The finding record every rule emits and every reporter consumes."""

from __future__ import annotations

from dataclasses import dataclass

#: Pseudo-rule id for files the linter cannot parse.  Not a registered
#: rule: it can be neither selected away nor suppressed.
SYNTAX_ERROR_ID = "REP000"

#: Pseudo-rule id for malformed or unknown suppression directives
#: (emitted by the engine, not by a registered rule).
BAD_SUPPRESSION_ID = "REP001"


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation at one source location.

    Ordering is lexicographic ``(path, line, col, rule)`` so reports are
    stable across runs.
    """

    path: str
    line: int
    col: int
    rule: str
    name: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": self.name,
            "message": self.message,
        }
