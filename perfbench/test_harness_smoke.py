"""Smoke test of the benchmark harness itself (tiny ``--smoke`` sizes).

    python -m pytest perfbench/test_harness_smoke.py

Not part of tier-1 (``testpaths = ["tests"]``): it checks the harness,
not the engines.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_harness(cwd, *args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run_all.py"), "--smoke",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, check=False,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Every workload, timed then traced, on the repository's seed."""
    cwd = tmp_path_factory.mktemp("perfbench")
    code, last_line = run_harness(cwd, "--seed", "4711", "--traced")
    summary = json.loads((cwd / "BENCH_summary.json").read_text())
    return cwd, code, last_line, summary


def test_every_named_metric_and_workload_is_printed(full_run):
    _, code, last_line, summary = full_run
    assert code == 0 and last_line["correct"] and last_line["failed"] == 0
    by_mode = {0: {}, 1: {}}
    for result in summary["results"]:
        by_mode[result["trace"]][result["workload"]] = set(result["metrics"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(by_mode[0]) == set(by_mode[1]) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert by_mode[0][workload] == end_to_end
        assert by_mode[1][workload] == per_layer
    provenance = summary["provenance"]
    assert provenance["seed"] == 4711 and provenance["env"]["PYTHONHASHSEED"]


def test_digests_are_stable_and_match_the_oracle(full_run):
    summary = full_run[3]
    for result in summary["results"]:
        assert result["ops"] > 0 and result["failed_ops"] == 0, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(full_run, workload):
    cwd = full_run[0]
    events = json.loads(
        (cwd / f"BENCH_trace_{workload}.json").read_text()
    )["traceEvents"]
    assert events
    children_s = [0.0] * len(events)
    roots_s = 0.0
    for index, event in enumerate(events):
        assert event["args"]["span"] == index and event["dur"] >= 0
        parent = event["args"]["parent"]
        if parent < 0:  # a statement, or a call made while loading
            roots_s += event["dur"]
            continue
        assert parent < index  # opened inside a span that came first
        outer = events[parent]
        assert outer["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"]
        assert event["args"]["statement"] == outer["args"]["statement"]
        children_s[parent] += event["dur"]
    # self time = duration - child coverage: never negative (1 us slack
    # for float rounding), so the self times add up to the wall time
    self_s = [e["dur"] - c for e, c in zip(events, children_s)]
    assert min(self_s) > -1.0
    assert sum(self_s) == pytest.approx(roots_s)


def test_injected_wrong_row_is_a_failed_op(tmp_path):
    code, last_line = run_harness(
        tmp_path, "--seed", "12", "--workload", "relational.kernels",
        "--inject-wrong-row", "3",
    )
    assert code == 1
    assert last_line["correct"] is False and last_line["failed"] == 1
