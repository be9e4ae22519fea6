"""Orchestration: discover files, run rules, apply suppressions, report.

The pipeline per file is

1. parse (a ``SyntaxError`` becomes a non-suppressible ``REP000``),
2. one shared-visitor walk into a :class:`~repro.lint.visitor.FileIndex`,
3. every registered rule that applies to the file's category filters the
   index,
4. ``# repro: allow[...]`` directives drop matching findings (malformed
   directives and unknown rule ids become ``REP001``; an allow that
   silenced nothing becomes ``REP002``).

Whatever survives is a gate failure (exit code 1 from the CLI).
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .findings import (
    BAD_SUPPRESSION_ID,
    SYNTAX_ERROR_ID,
    UNUSED_SUPPRESSION_ID,
    Finding,
)
from .rules import RULE_REGISTRY, all_rules
from .suppress import find_suppression, parse_suppressions
from .visitor import build_index

#: What the gate lints, relative to the repository root: the package, the
#: benches, and the test oracles (references that share no code with the
#: engines, so a seedless rng or a wall-clock read there would make the
#: differential tests flaky without any engine fault).
DEFAULT_PATHS = ("src", "benchmarks", "tests/oracles")

#: Modules holding RoundKernel implementations: the per-node-object ban
#: (REP302) and hot-path rules apply here.
KERNEL_MODULES = ("kernels.py", "coded_kernels.py")

#: Modules whose arrays are packed uint64 words: upcast hazards (REP402)
#: and per-element-loop checks (REP401) apply here.
PACKED_MODULES = (
    "packed.py",
    "kernels.py",
    "coded_kernels.py",
    "topology.py",
    "stability.py",
    "dynamics.py",
    "bits.py",
)


@dataclass
class LintResult:
    """Outcome of one lint run (post-suppression)."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_text(self) -> str:
        """The console report: one line per finding plus a summary."""
        lines = [
            f"{finding.location()}: {finding.rule}[{finding.name}] {finding.message}"
            for finding in self.findings
        ]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
            f" ({len(self.suppressed)} suppressed inline)"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The machine report, uploaded as a CI artifact."""
        counts = Counter(finding.rule for finding in self.findings)
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "counts_by_rule": dict(sorted(counts.items())),
            "exit_code": self.exit_code,
        }

    def write_json(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")


def categorize(path: Path) -> str:
    """``src`` / ``bench`` / ``test`` from the path shape.

    The test oracles (``tests/oracles/``) are ``src``: they are held to the
    same determinism rules as the engines they check.
    """
    parts = [part.lower() for part in path.parts]
    if "benchmarks" in parts:
        return "bench"
    if ("tests", "oracles") in zip(parts, parts[1:]):
        return "src"
    if "tests" in parts or path.name.startswith("test_"):
        return "test"
    return "src"


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand the CLI path arguments into a sorted, de-duplicated file list."""
    files: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def lint_source(
    path: Path, source: str, *, category: str | None = None
) -> tuple[list[Finding], list[Finding]]:
    """Lint one file's text; return ``(active, suppressed)`` findings.

    ``category`` overrides path-based classification (the fixture tests
    lint snippets as if they lived in ``src/``).
    """
    category = category or categorize(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        line, col = exc.lineno or 1, (exc.offset or 1) - 1
        message = f"file does not parse: {exc.msg}"
        return [Finding(str(path), line, col, SYNTAX_ERROR_ID, "syntax-error", message)], []
    index = build_index(
        str(path),
        source,
        tree,
        category=category,
        is_kernel_module=path.name in KERNEL_MODULES,
        is_packed_module=path.name in PACKED_MODULES,
        in_algorithms="algorithms" in {part.lower() for part in path.parts},
    )
    raw = [
        finding
        for rule in all_rules()
        if category in rule.categories
        for finding in rule.check(index)
    ]

    suppressions, problems = parse_suppressions(source)
    problems += [
        (suppression.line, 0, f"allow[...] names unknown rule {unknown!r}")
        for suppression in suppressions.values()
        for unknown in sorted(suppression.rules - set(RULE_REGISTRY))
    ]
    active = [
        Finding(str(path), line, col, BAD_SUPPRESSION_ID, "bad-suppression", message)
        for line, col, message in problems
    ]

    suppressed: list[Finding] = []
    for finding in raw:
        match = find_suppression(suppressions, finding.line, finding.rule)
        if match is None:
            active.append(finding)
        else:
            match.used.add(finding.rule)
            suppressed.append(finding)
    for suppression in suppressions.values():
        for unused in sorted((suppression.rules & set(RULE_REGISTRY)) - suppression.used):
            message = f"allow[{unused}] silences nothing on the lines it covers; drop it"
            active.append(
                Finding(
                    str(path), suppression.line, 0,
                    UNUSED_SUPPRESSION_ID, "unused-suppression", message,
                )
            )
    return sorted(active), sorted(suppressed)


def run_lint(paths: list[Path]) -> LintResult:
    """Lint ``paths`` end to end."""
    result = LintResult()
    for path in iter_python_files(paths):
        result.files_checked += 1
        try:
            source = path.read_text()
        except OSError as exc:
            message = f"cannot read file: {exc}"
            result.findings.append(Finding(str(path), 1, 0, SYNTAX_ERROR_ID, "unreadable", message))
            continue
        active, suppressed = lint_source(path, source)
        result.findings.extend(active)
        result.suppressed.extend(suppressed)
    result.findings.sort()
    return result
