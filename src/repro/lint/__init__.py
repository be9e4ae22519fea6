"""repro.lint — the AST contract linter for this repository.

Runtime equivalence tests catch engine-matrix violations one seed at a
time, after the fact; this package rejects the *structural* bug classes
at CI time instead: seedless RNGs and hidden global random state
(REP1xx), unpicklable sweep factories (REP2xx), kernel-registration and
GF(2)-representation breaches (REP3xx), and hot-path hygiene — numpy
re-entering Python loops, uint64→float64 upcasts, load-bearing asserts
(REP4xx).

Usage::

    python -m repro.lint src benchmarks
    python -m repro.lint --list-rules
    python -m repro.lint src --format json --output lint-report.json

A finding is silenced only per line, with a mandatory reason::

    rng = np.random.default_rng()  # repro: allow[REP102] demo only

See ``src/repro/lint/README.md`` and the ROADMAP "Contracts" section for the
rule catalogue; configuration lives in ``[tool.repro-lint]`` in
pyproject.toml.
"""

from __future__ import annotations

from .config import LintConfig, load_config
from .engine import LintResult, categorize, lint_source, run_lint
from .findings import Finding
from .report import render_json, render_text, to_json
from .rules import RULE_REGISTRY, BaseRule, Rule, all_rules, register_rule
from .suppress import parse_suppressions
from .visitor import FileIndex, build_index

__all__ = [
    "BaseRule",
    "FileIndex",
    "Finding",
    "LintConfig",
    "LintResult",
    "RULE_REGISTRY",
    "Rule",
    "all_rules",
    "build_index",
    "categorize",
    "lint_source",
    "load_config",
    "parse_suppressions",
    "register_rule",
    "render_json",
    "render_text",
    "run_lint",
    "to_json",
]
