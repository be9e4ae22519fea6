"""CLI entry point: ``python -m repro.lint [paths...] [--output FILE]``.

Exit codes: 0 = clean (possibly with findings suppressed inline),
1 = at least one active finding (including syntax errors, malformed and
unused suppressions), 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import DEFAULT_PATHS, run_lint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based contract linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        metavar="FILE",
        help="also write the JSON report to FILE (the CI artifact)",
    )
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run_lint(paths)
    if args.output is not None:
        result.write_json(args.output)
    print(result.to_text())
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
