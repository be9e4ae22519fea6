"""Per-line suppressions: ``# repro: allow[rule-id] reason``.

A trailing directive silences a finding on its own line; a directive on a
line of its own also covers the line directly below (so long lines can
carry the directive above themselves).  The reason is mandatory — an allow
without one is itself reported (``REP001``), because the whole point of
the directive is to record *why* a contract is deliberately waived.
Multiple ids separate with commas: ``# repro: allow[REP401, REP402]
per-insert loop is the algorithm``.  An allow naming a rule that fired on
none of its lines is reported too (``REP002``), so no stale waiver stays.

Directives are parsed from real COMMENT tokens (via :mod:`tokenize`), so
the syntax may safely appear inside strings and docstrings — e.g. in this
docstring, or in the linter's own documentation — without being treated
as a directive.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*)$")
DIRECTIVE_RE = re.compile(r"#\s*repro\s*:")


@dataclass
class Suppression:
    line: int
    rules: frozenset[str]
    reason: str
    #: The directive is the whole line, so it also covers the next one.
    own_line: bool = False
    #: Rule ids this directive silenced at least once.
    used: set[str] = field(default_factory=set, compare=False)


def parse_suppressions(
    source: str,
) -> tuple[dict[int, Suppression], list[tuple[int, int, str]]]:
    """Extract suppressions and directive problems from ``source``.

    Returns ``(suppressions_by_line, problems)`` where each problem is a
    ``(line, col, message)`` triple for a malformed directive.
    """
    suppressions: dict[int, Suppression] = {}
    problems: list[tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            tok for tok in tokens if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions, problems
    for tok in comments:
        text = tok.string
        if not DIRECTIVE_RE.search(text):
            continue
        line, col = tok.start
        match = ALLOW_RE.search(text)
        if match is None:
            problems.append(
                (line, col, "unrecognised directive; expected '# repro: allow[rule-id] reason'")
            )
            continue
        ids = frozenset(part.strip() for part in match.group(1).split(",") if part.strip())
        reason = match.group(2).strip()
        if not ids:
            problems.append((line, col, "allow[] names no rule ids"))
        elif not reason:
            problems.append(
                (line, col, "suppression without a reason; write '# repro: allow[rule-id] why'")
            )
        else:
            own_line = not tok.line[:col].strip()
            suppressions[line] = Suppression(line, ids, reason, own_line)
    return suppressions, problems


def find_suppression(
    suppressions: dict[int, Suppression], line: int, rule_id: str
) -> Suppression | None:
    """The suppression covering ``line`` for this rule, if any."""
    same = suppressions.get(line)
    if same is not None and rule_id in same.rules:
        return same
    above = suppressions.get(line - 1)
    if above is not None and above.own_line and rule_id in above.rules:
        return above
    return None
