"""CLI for the whole-program flow analyzer.

Usage::

    python -m repro.analysis.flow [paths ...]
        [--format=text|json] [--baseline FILE] [--write-baseline]
        [--tests DIR] [--no-tests]

Exit status 0 when every finding is baselined or suppressed, 1 when
new findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import (
    analyze,
    format_baseline,
    format_json,
    format_text,
    load_baseline,
    split_by_baseline,
)

DEFAULT_BASELINE = Path("flow-baseline.txt")
DEFAULT_TESTS = Path("tests")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description="Whole-program race/leak/drift analyzer",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="accepted-findings file "
                             f"(default: {DEFAULT_BASELINE} if present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current "
                             "findings, keeping existing justifications")
    parser.add_argument("--tests", type=Path, default=None,
                        help="test directory for the FLOW002 "
                             f"asserted-in-tests check (default: "
                             f"{DEFAULT_TESTS} if present)")
    parser.add_argument("--no-tests", action="store_true",
                        help="disable the asserted-in-tests check")
    args = parser.parse_args(argv)

    paths = args.paths or ["src/repro"]
    baseline_path = args.baseline
    if baseline_path is None and DEFAULT_BASELINE.is_file():
        baseline_path = DEFAULT_BASELINE
    tests_dir = None
    if not args.no_tests:
        tests_dir = args.tests
        if tests_dir is None and DEFAULT_TESTS.is_dir():
            tests_dir = DEFAULT_TESTS

    model, findings = analyze(paths, tests_dir=tests_dir)

    baseline = load_baseline(baseline_path) if baseline_path else {}
    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        target.write_text(format_baseline(findings, baseline),
                          encoding="utf-8")
        print(f"wrote {len({f.fingerprint for f in findings})} "
              f"entr{'y' if len(findings) == 1 else 'ies'} to {target}")
        return 0

    new, accepted, stale = split_by_baseline(findings, baseline)
    if args.format == "json":
        print(format_json(new, accepted, stale, model))
    else:
        print(format_text(new, accepted, stale, model))
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
