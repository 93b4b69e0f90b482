"""Project-specific AST lint: engine invariants the stock linters can't see.

Rules (all reported as ``path:line:col CODE message``):

========  ==========================================================
ANL001    bare ``except:`` clause
ANL002    ``raise KernelFallback`` outside the kernel modules
ANL004    cross-engine import (pgsim ↔ quack internals, an engine
          import from the observability layer, or quack importing an
          extension package: ``repro.core``/``index``/``geo``/``meos``)
ANL005    mutation of a ``Vector``'s ``data``/``validity`` payload
          outside the owning module
ANL006    ``evaluate_batch`` registration without a reachable scalar
          fallback (missing ``fn_scalar`` or shadowed by ``fn_vector``)
ANL007    unused import
ANL008    module-level mutable container in ``repro.quack`` without an
          UPPER_CASE registry name (client threads sharing a database
          share module globals)
ANL009    trace-event ``.emit(...)`` call not guarded by a
          ``<collector> is not None`` / ``collection_enabled()`` check
          (unguarded emission defeats the ~0%-when-off overhead bar)
ANL010    a ``*_selectivity`` estimator returns a value not wrapped in
          ``clamp01(...)`` (an out-of-range selectivity corrupts every
          cardinality product built on it)
ANL011    file I/O in a ``repro.quack`` module other than
          ``repro.quack.storage``
ANL012    ``.bump(...)``/``.gauge_max(...)`` on a statistics handle
          outside ``repro.observability`` and ``repro.quack.database``
          (engine code records through the ambient ``count`` /
          ``gauge_max``, a no-op when no query is active)
ANL013    ``ExecutionContext(...)`` built outside ``repro.quack.database``
          and ``repro.pgsim.database`` (a statement's plan runs only
          through the connections' run hooks)
ANL014    a call of ``distinct_rows`` anywhere but in
          ``repro.quack.kernels.per_distinct`` (distinct-argument
          evaluation, its counter and its cross-check live in one place)
========  ==========================================================

Undeclared counter/gauge names are the flow analyzer's FLOW002
(:mod:`repro.analysis.flow`), not a lint rule.

Run as ``python -m repro.analysis.lint [--fix] [paths]``
(default: ``src``).  The module is import-light on purpose — it parses
source with ``ast`` and never imports the engine code it checks.

Lint shares its parsed ASTs with the flow analyzer
(``repro.analysis.flow``) through :class:`repro.analysis.project.
ProjectModel`: a combined run parses every file exactly once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..project import ModuleInfo, ProjectModel
from .rules import check_module

__all__ = [
    "Violation",
    "lint_file",
    "lint_model",
    "lint_paths",
    "run_lint",
]


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"


def _module_name(path: Path) -> str | None:
    """Dotted module name for files under a ``src/`` root (else None)."""
    parts = path.resolve().parts
    if "src" not in parts:
        return None
    rel = parts[parts.index("src") + 1 :]
    if not rel or not rel[-1].endswith(".py"):
        return None
    rel = rel[:-1] + (rel[-1][: -len(".py")],)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def _lint_module(info: ModuleInfo) -> list[Violation]:
    if info.error is not None:
        exc = info.error
        return [
            Violation(
                str(info.path), exc.lineno or 1, (exc.offset or 1) - 1,
                "ANL000", f"syntax error: {exc.msg}",
            )
        ]
    module = _module_name(info.path)
    return [
        Violation(str(info.path), line, col, code, message)
        for line, col, code, message in check_module(
            info.tree, module, info.filename
        )
    ]


def lint_file(path: Path) -> list[Violation]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                str(path), exc.lineno or 1, (exc.offset or 1) - 1,
                "ANL000", f"syntax error: {exc.msg}",
            )
        ]
    module = _module_name(path)
    return [
        Violation(str(path), line, col, code, message)
        for line, col, code, message in check_module(tree, module, path.name)
    ]


def lint_model(model: ProjectModel) -> list[Violation]:
    """Lint every module already parsed into ``model`` (no re-parse)."""
    violations: list[Violation] = []
    for info in model.modules:
        violations.extend(_lint_module(info))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def lint_paths(paths: Iterable[str], *,
               model: ProjectModel | None = None) -> list[Violation]:
    if model is None:
        model = ProjectModel.parse(paths)
    return lint_model(model)


def run_lint(paths: Iterable[str] = ("src",)) -> list[Violation]:
    """Lint ``paths`` (files or directories) and return the violations."""
    return lint_paths(paths)
