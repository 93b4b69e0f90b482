"""Programmatic BerlinMOD-Hanoi benchmark runner (the Figure 12 harness).

Gives downstream users the paper's evaluation as an API::

    from repro.berlinmod import run_benchmark

    report = run_benchmark(scale_factors=[0.001], queries=[1, 3, 10])
    print(report.format_grid())

Three scenarios are prepared per scale factor — ``mobilityduck`` (columnar
engine + extension), ``mobilitydb`` (row baseline, no indexes), and
``mobilitydb_idx`` (row baseline + GiST/B-tree indexes) — and every query
is checked to return the same number of rows on each before its runtime
is recorded.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from .. import core
from .generator import Dataset, generate
from .queries import QUERIES, get_query
from .schema import create_baseline_indexes, load_dataset

SCENARIOS = ("mobilityduck", "mobilitydb", "mobilitydb_idx")


@dataclass(frozen=True)
class CellResult:
    """One (scale factor, query, scenario) measurement."""

    scale_factor: float
    query: int
    scenario: str
    seconds: float
    rows: int
    #: query-statistics snapshot (``QueryStatistics.to_dict()``), when
    #: the run captured one
    stats: dict | None = None

    def to_dict(self) -> dict:
        return {
            "scale_factor": self.scale_factor,
            "query": self.query,
            "scenario": self.scenario,
            "seconds": self.seconds,
            "rows": self.rows,
            "stats": self.stats,
        }


@dataclass
class BenchmarkReport:
    """All measurements of one benchmark run."""

    cells: list[CellResult] = field(default_factory=list)

    def get(self, scale_factor: float, query: int,
            scenario: str) -> CellResult | None:
        for cell in self.cells:
            if (cell.scale_factor == scale_factor
                    and cell.query == query
                    and cell.scenario == scenario):
                return cell
        return None

    def scale_factors(self) -> list[float]:
        return sorted({c.scale_factor for c in self.cells})

    def queries(self) -> list[int]:
        return sorted({c.query for c in self.cells})

    def win_ratio(self, against: str = "mobilitydb") -> float:
        """Fraction of cells where mobilityduck beats ``against``."""
        wins = total = 0
        for sf in self.scale_factors():
            for q in self.queries():
                duck = self.get(sf, q, "mobilityduck")
                other = self.get(sf, q, against)
                if duck is None or other is None:
                    continue
                total += 1
                if duck.seconds < other.seconds:
                    wins += 1
        return wins / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "benchmark": "berlinmod-hanoi",
            "scale_factors": self.scale_factors(),
            "queries": self.queries(),
            "win_ratio_vs_mobilitydb": self.win_ratio(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, path: str | None = None, indent: int = 2) -> str:
        """Serialize the report; also write it to ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def format_grid(self) -> str:
        lines = [
            "BerlinMOD-Hanoi runtimes in seconds "
            "(duck | mobilitydb | mobilitydb+idx):"
        ]
        for sf in self.scale_factors():
            lines.append(f"  SF {sf}:")
            for q in self.queries():
                duck = self.get(sf, q, "mobilityduck")
                plain = self.get(sf, q, "mobilitydb")
                idx = self.get(sf, q, "mobilitydb_idx")
                parts = [
                    f"{c.seconds:8.3f}" if c else "       -"
                    for c in (duck, plain, idx)
                ]
                rows = duck.rows if duck else 0
                lines.append(
                    f"   Q{q:<3} {parts[0]} | {parts[1]} | {parts[2]}"
                    f"  ({rows} rows)"
                )
        lines.append(
            f"mobilityduck wins vs unindexed baseline: "
            f"{self.win_ratio():.0%}"
        )
        return "\n".join(lines)


def prepare_scenario(name: str, dataset: Dataset):
    """Load a dataset into one scenario's engine; returns a connection."""
    if name == "mobilityduck":
        con = core.connect()
        load_dataset(con, dataset)
    elif name == "mobilitydb":
        con = core.connect_baseline()
        load_dataset(con, dataset)
    elif name == "mobilitydb_idx":
        con = core.connect_baseline()
        load_dataset(con, dataset)
        create_baseline_indexes(con)
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return con


def _export_cell_trace(con, trace_dir: str, label: str) -> None:
    """Write one executed query's timeline into ``trace_dir``."""
    export = getattr(con, "export_trace", None)
    if export is None or getattr(con, "last_query_stats", None) is None:
        return
    os.makedirs(trace_dir, exist_ok=True)
    export(os.path.join(trace_dir, f"{label}.trace.json"))


def run_benchmark(
    scale_factors: list[float] | None = None,
    queries: list[int] | None = None,
    scenarios: tuple[str, ...] = SCENARIOS,
    seed: int = 4711,
    check_rows: bool = True,
    profile_path: str | None = None,
    trace_dir: str | None = None,
) -> BenchmarkReport:
    """Run the benchmark grid and return a report.

    ``check_rows`` asserts that all scenarios agree on each query's row
    count (correctness before performance).  ``profile_path`` writes the
    full report — including per-cell query-statistics snapshots — as a
    JSON profile artifact (the Figure 12 companion file).  ``trace_dir``
    additionally writes one Chrome trace-event JSON per cell
    (``sf<sf>_q<n>_<scenario>.trace.json``, Perfetto-loadable)."""
    report = BenchmarkReport()
    for sf in scale_factors or [0.001]:
        dataset = generate(sf, seed=seed)
        connections = {
            name: prepare_scenario(name, dataset) for name in scenarios
        }
        for number in queries or [q.number for q in QUERIES]:
            query = get_query(number)
            counts = {}
            for name, con in connections.items():
                start = time.perf_counter()
                result = con.execute(query.sql)
                elapsed = time.perf_counter() - start
                counts[name] = len(result)
                stats = getattr(con, "last_query_stats", None)
                report.cells.append(
                    CellResult(
                        sf, number, name, elapsed, len(result),
                        stats=stats.to_dict() if stats is not None else None,
                    )
                )
                if trace_dir is not None:
                    _export_cell_trace(
                        con, trace_dir, f"sf{sf}_q{number}_{name}"
                    )
            if check_rows and len(set(counts.values())) != 1:
                raise AssertionError(
                    f"Q{number} at SF {sf}: row counts diverge {counts}"
                )
    if profile_path is not None:
        report.to_json(profile_path)
    return report
