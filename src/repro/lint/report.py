"""Text and JSON reporters over a :class:`~repro.lint.engine.LintResult`."""

from __future__ import annotations

import json
from collections import Counter

from .engine import LintResult


def render_text(result: LintResult) -> str:
    """The human report: one line per finding plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule}[{finding.name}] {finding.message}"
        for finding in result.findings
    ]
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
        f" ({len(result.suppressed)} suppressed inline)"
    )
    lines.append(summary)
    return "\n".join(lines)


def to_json(result: LintResult) -> dict:
    """The machine report uploaded as a CI artifact."""
    counts = Counter(finding.rule for finding in result.findings)
    return {
        "version": 1,
        "files_checked": result.files_checked,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
        "counts_by_rule": dict(sorted(counts.items())),
        "exit_code": result.exit_code,
    }


def render_json(result: LintResult) -> str:
    return json.dumps(to_json(result), indent=2) + "\n"
