"""CLI entry point: ``python -m repro.analysis.lint [paths…]``.

Lints ``src`` by default, prints one ``path:line:col CODE message`` line
per violation, and exits 1 when anything is found (0 on a clean run).
``--fix`` rewrites ANL007 unused imports in place first, then reports
whatever remains.
"""

from __future__ import annotations

import argparse
import sys

from ..project import ProjectModel, iter_python_files
from . import lint_model
from .fixes import fix_unused_imports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Project-specific AST lint (ANL000–ANL014).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="delete ANL007 unused imports in place, then re-lint",
    )
    args = parser.parse_args(argv)

    if args.fix:
        fixed_files = 0
        removed = 0
        for path in iter_python_files(args.paths):
            source = path.read_text(encoding="utf-8")
            try:
                new_source, count = fix_unused_imports(source, path.name)
            except SyntaxError:
                continue  # reported below as ANL000
            if count:
                path.write_text(new_source, encoding="utf-8")
                fixed_files += 1
                removed += count
        if removed:
            print(
                f"--fix: removed {removed} unused import(s) "
                f"in {fixed_files} file(s)",
                file=sys.stderr,
            )

    model = ProjectModel.parse(args.paths)
    violations = lint_model(model)
    for violation in violations:
        print(violation.format())
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
