"""Whole-program flow analysis for the repro engines.

``python -m repro.analysis.flow`` parses every module under
``src/repro`` once into a shared :class:`~repro.analysis.project.
ProjectModel` (the same ASTs the lint uses), resolves its call graph,
and runs the pass catalog in :mod:`repro.analysis.flow.passes` over it.

Findings are suppressible in place (``# flow: ignore[RACE002]``) or
accepted into a committed baseline file whose entries carry a
justification::

    RACE002 race_guarded_pair.Buffer.drop Buffer._rows — drop runs before the buffer is shared

Fingerprints are line-number independent (rule + symbol + key), so the
baseline survives unrelated edits.  ``--write-baseline`` regenerates
the file, preserving existing justifications.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

from ..project import ProjectModel
from .passes import Finding, PASSES, run_passes

__all__ = [
    "Finding",
    "PASSES",
    "run_passes",
    "analyze",
    "load_baseline",
    "format_baseline",
    "split_by_baseline",
    "format_text",
    "format_json",
]

#: Placeholder justification ``--write-baseline`` emits for new entries.
TODO_JUSTIFICATION = "TODO: justify or fix"

#: Separator between a baseline fingerprint and its justification.
_SEP = " — "


def analyze(
    paths: Sequence[str | Path],
    *,
    tests_dir: Path | None = None,
    model: ProjectModel | None = None,
) -> tuple[ProjectModel, list[Finding]]:
    """Build (or reuse) the project model and run every pass."""
    if model is None:
        model = ProjectModel.load(paths)
    elif not model._resolved:
        model.resolve()
    return model, run_passes(model, tests_dir)


# --------------------------------------------------------------------------
# Baseline file handling


def load_baseline(path: Path) -> dict[str, str]:
    """``fingerprint -> justification`` from a baseline file.  Blank
    lines and ``#`` comments are skipped; a line without a
    justification separator baselines with an empty reason."""
    entries: dict[str, str] = {}
    if not path.is_file():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fingerprint, _, justification = line.partition(_SEP)
        fingerprint = fingerprint.strip()
        if len(fingerprint.split()) == 3:
            entries[fingerprint] = justification.strip()
    return entries


def format_baseline(findings: Iterable[Finding],
                    previous: dict[str, str] | None = None) -> str:
    """Render findings as a baseline file, keeping justifications from
    ``previous`` for fingerprints that persist."""
    previous = previous or {}
    lines = [
        "# Accepted findings for `python -m repro.analysis.flow`.",
        "# One per line: `<rule> <symbol> <key> — <justification>`.",
        "# Fingerprints are line-independent; fix the code or justify",
        "# the exception here — never baseline FLOW001 leaks.",
        "",
    ]
    seen: set[str] = set()
    for finding in findings:
        if finding.fingerprint in seen:
            continue
        seen.add(finding.fingerprint)
        reason = previous.get(finding.fingerprint, TODO_JUSTIFICATION)
        lines.append(f"{finding.fingerprint}{_SEP}{reason}")
    return "\n".join(lines) + "\n"


def split_by_baseline(
    findings: Sequence[Finding], baseline: dict[str, str],
) -> tuple[list[Finding], list[Finding], list[str]]:
    """``(new, accepted, stale_fingerprints)`` — stale entries are
    baselined findings the analyzer no longer raises."""
    new: list[Finding] = []
    accepted: list[Finding] = []
    for finding in findings:
        (accepted if finding.fingerprint in baseline else new).append(
            finding)
    current = {f.fingerprint for f in findings}
    stale = [fp for fp in baseline if fp not in current]
    return new, accepted, stale


# --------------------------------------------------------------------------
# Reports


def format_text(new: Sequence[Finding], accepted: Sequence[Finding],
                stale: Sequence[str], model: ProjectModel) -> str:
    lines: list[str] = []
    for finding in new:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} [{finding.symbol}] {finding.message}"
        )
    summary = (
        f"{len(model.modules)} modules, {len(model.functions)} functions; "
        f"{len(new)} finding(s), {len(accepted)} baselined"
    )
    if stale:
        summary += f", {len(stale)} stale baseline entr" + \
            ("y" if len(stale) == 1 else "ies")
        for fingerprint in stale:
            lines.append(f"note: stale baseline entry: {fingerprint}")
    lines.append(summary)
    return "\n".join(lines)


def format_json(new: Sequence[Finding], accepted: Sequence[Finding],
                stale: Sequence[str], model: ProjectModel) -> str:
    return json.dumps({
        "modules": len(model.modules),
        "functions": len(model.functions),
        "findings": [
            {**asdict(f), "fingerprint": f.fingerprint} for f in new
        ],
        "baselined": [
            {**asdict(f), "fingerprint": f.fingerprint} for f in accepted
        ],
        "stale_baseline": list(stale),
    }, indent=2, sort_keys=True)
