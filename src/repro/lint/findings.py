"""The finding record every rule emits and every reporter consumes."""

from __future__ import annotations

from dataclasses import dataclass

#: Pseudo-rule ids, emitted by the engine rather than a registered rule,
#: so no allow can silence them: files the linter cannot parse, malformed
#: or unknown suppression directives, and allows that silenced nothing.
SYNTAX_ERROR_ID = "REP000"
BAD_SUPPRESSION_ID = "REP001"
UNUSED_SUPPRESSION_ID = "REP002"


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
