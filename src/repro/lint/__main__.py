"""CLI entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 = clean (possibly with findings suppressed inline),
1 = at least one active finding (including syntax errors and malformed
suppressions), 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .engine import run_lint
from .report import render_json, render_text
from .rules import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based contract linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="console report format",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="IDS",
        help="comma-separated rule ids/slugs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="IDS",
        help="comma-separated rule ids/slugs to skip",
    )
    parser.add_argument(
        "--category",
        choices=("auto", "src", "bench", "test"),
        default="auto",
        help="force the file category instead of inferring it from paths",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore [tool.repro-lint] in pyproject.toml",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _split_ids(raw: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            categories = ",".join(sorted(rule.categories))
            print(f"{rule.id}  {rule.name:<22} [{categories}]  {rule.description}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    start = paths[0] if paths else Path.cwd()
    config = load_config(start, use_pyproject=not args.no_config)
    if args.select or args.ignore:
        from dataclasses import replace

        config = replace(
            config,
            select=_split_ids(args.select) or config.select,
            ignore=_split_ids(args.ignore) or config.ignore,
        )
    result = run_lint(
        paths, config, category=None if args.category == "auto" else args.category
    )

    if args.output is not None:
        args.output.write_text(render_json(result))
    if args.format == "json":
        print(render_json(result), end="")
    else:
        print(render_text(result))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
