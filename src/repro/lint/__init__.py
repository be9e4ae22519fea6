"""repro.lint — the AST contract linter for this repository.

Runtime equivalence tests catch engine-matrix violations one seed at a
time, after the fact; this package rejects the *structural* bug classes
at CI time instead: seedless RNGs and hidden global random state
(REP1xx), unpicklable sweep factories (REP2xx), kernel-registration,
GF(2)-representation and coded-window breaches (REP3xx), and hot-path
hygiene — numpy re-entering Python loops, uint64→float64 upcasts,
load-bearing asserts, the bit-row layout outside its home (REP4xx).

Usage::

    python -m repro.lint                              # src benchmarks tests/oracles
    python -m repro.lint src --output lint-report.json

A finding is silenced only per line, with a mandatory reason::

    rng = np.random.default_rng()  # repro: allow[REP102] demo only

See ``src/repro/lint/README.md`` and the ROADMAP "Contracts" section for the
rule catalogue.
"""

from __future__ import annotations

from .engine import DEFAULT_PATHS, LintResult, categorize, lint_source, run_lint
from .findings import Finding
from .rules import RULE_REGISTRY, BaseRule, all_rules, register_rule
from .suppress import parse_suppressions
from .visitor import FileIndex, build_index

__all__ = [
    "BaseRule",
    "DEFAULT_PATHS",
    "FileIndex",
    "Finding",
    "LintResult",
    "RULE_REGISTRY",
    "all_rules",
    "build_index",
    "categorize",
    "lint_source",
    "parse_suppressions",
    "register_rule",
    "run_lint",
]
