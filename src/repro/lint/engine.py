"""Orchestration: discover files, run rules, apply suppressions.

The pipeline per file is

1. parse (a ``SyntaxError`` becomes a non-suppressible ``REP000``),
2. one shared-visitor walk into a :class:`~repro.lint.visitor.FileIndex`,
3. every applicable registered rule filters the index,
4. ``# repro: allow[...]`` directives drop matching findings (malformed
   directives and unknown rule ids become ``REP001``).

Whatever survives is a gate failure (exit code 1 from the CLI).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .config import LintConfig
from .findings import BAD_SUPPRESSION_ID, SYNTAX_ERROR_ID, Finding
from .rules import RULE_REGISTRY, all_rules, resolve_rule_ids
from .suppress import find_suppression, parse_suppressions
from .visitor import build_index


@dataclass
class LintResult:
    """Outcome of one lint run (post-suppression)."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def categorize(path: Path) -> str:
    """``src`` / ``bench`` / ``test`` from the path shape."""
    parts = {part.lower() for part in path.parts}
    if "benchmarks" in parts:
        return "bench"
    if "tests" in parts or path.name.startswith("test_"):
        return "test"
    return "src"


def _excluded(path: Path, config: LintConfig) -> bool:
    try:
        rel = path.resolve().relative_to(config.root.resolve())
    except ValueError:
        rel = path
    posix = PurePosixPath(rel)
    return any(posix.match(pattern) for pattern in config.exclude)


def iter_python_files(paths: list[Path], config: LintConfig) -> list[Path]:
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
            if resolved in seen or _excluded(candidate, config):
                continue
            seen.add(resolved)
            files.append(candidate)
    return files


def active_rules(config: LintConfig):
    """The registered rules this run enables (select minus ignore)."""
    rules = all_rules()
    if config.select:
        selected = resolve_rule_ids(config.select)
        rules = [rule for rule in rules if rule.id in selected]
    if config.ignore:
        ignored = resolve_rule_ids(config.ignore)
        rules = [rule for rule in rules if rule.id not in ignored]
    return rules


def lint_source(
    path: Path,
    source: str,
    config: LintConfig,
    *,
    category: str | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Lint one file's text; return ``(active, suppressed)`` findings.

    ``category`` overrides path-based classification (the fixture tests
    lint snippets as if they lived in ``src/``).
    """
    category = category or categorize(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        line = exc.lineno or 1
        return (
            [
                Finding(
                    path=str(path),
                    line=line,
                    col=(exc.offset or 1) - 1,
                    rule=SYNTAX_ERROR_ID,
                    name="syntax-error",
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            [],
        )
    index = build_index(
        str(path),
        source,
        tree,
        category=category,
        is_kernel_module=path.name in config.kernel_modules,
        is_packed_module=path.name in config.packed_modules,
        in_algorithms="algorithms" in {part.lower() for part in path.parts},
    )
    raw: list[Finding] = []
    for rule in active_rules(config):
        if category not in rule.categories:
            continue
        raw.extend(rule.check(index))

    suppressions, problems = parse_suppressions(source)
    for line, col, message in problems:
        raw.append(
            Finding(
                path=str(path),
                line=line,
                col=col,
                rule=BAD_SUPPRESSION_ID,
                name="bad-suppression",
                message=message,
            )
        )
    known_ids = set(RULE_REGISTRY) | {
        rule.name for rule in RULE_REGISTRY.values()
    }
    for suppression in suppressions.values():
        for unknown in sorted(suppression.rules - known_ids):
            raw.append(
                Finding(
                    path=str(path),
                    line=suppression.line,
                    col=0,
                    rule=BAD_SUPPRESSION_ID,
                    name="bad-suppression",
                    message=f"allow[...] names unknown rule {unknown!r}",
                )
            )

    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        if finding.rule in (SYNTAX_ERROR_ID, BAD_SUPPRESSION_ID):
            active.append(finding)
            continue
        match = find_suppression(
            suppressions, finding.line, finding.rule, finding.name
        )
        if match is not None:
            match.used = True
            suppressed.append(finding)
        else:
            active.append(finding)
    return sorted(active), sorted(suppressed)


def run_lint(
    paths: list[Path],
    config: LintConfig,
    *,
    category: str | None = None,
) -> LintResult:
    """Lint ``paths`` end to end."""
    result = LintResult()
    for path in iter_python_files(paths, config):
        result.files_checked += 1
        try:
            source = path.read_text()
        except OSError as exc:
            result.findings.append(
                Finding(
                    path=str(path),
                    line=1,
                    col=0,
                    rule=SYNTAX_ERROR_ID,
                    name="unreadable",
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        active, suppressed = lint_source(path, source, config, category=category)
        result.findings.extend(active)
        result.suppressed.extend(suppressed)
    result.findings.sort()
    return result
