#!/usr/bin/env python3
"""The repository's one benchmark (described by ``BENCHMARK.json``).

    python3 perfbench/run_all.py --seed N [--workload NAME] [--seconds S]
        [--trace 0|1] [--traced] [--repeat K] [--smoke]

Runs the closed-loop workloads of ``workloads.py`` one after another, each
in its own child process (``PYTHONHASHSEED=0``, single-threaded BLAS, one
connection, ``SET threads = 1``; the next statement is sent only after the
previous one returned), prints every metric by name with its unit, checks
every result against the other engine, and writes ``BENCH_summary.json``.

A child does, ``Sizes.setups`` times: set-up (generate inputs from
``--seed``, load, build indexes, one untimed warm-up pass) -> its share of
the measured passes, ``--seconds`` in all; then it reads ``ru_maxrss`` and
verifies.
``--trace 1`` runs the traced child instead, which prints the per-layer
metrics and writes ``BENCH_trace_<workload>.json``; ``--traced`` runs both.
End-to-end numbers never come from a traced child.  README.md has the
tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

ENV_PINS = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: ``collection_overhead`` is measured where statistics collection is a
#: visible share of a statement: the two in-memory quack workloads.
COLLECTION_WORKLOADS = ("berlinmod.duck", "relational.kernels")


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 below two samples)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# Child: one workload, measured in this process
# ---------------------------------------------------------------------------


class Runner:
    """Sends statements one at a time; times, digests and counts them."""

    def __init__(self, recorder=None, inject_at: int | None = None):
        self.recorder = recorder
        self.inject_at = inject_at
        #: (statement name, digest or None when it raised), measured only
        self.ops: list[tuple[str, str | None]] = []
        #: statement name -> digest of its first execution (warm-up)
        self.first: dict[str, str] = {}
        self.latencies: dict[str, list[float]] = {}
        #: program counters summed over measured statements
        self.counters: dict[str, int] = {}
        self.passes = 0

    def run_pass(self, workload, state, measured: bool = True) -> float:
        from workloads import digest

        seconds = 0.0
        self.passes += 1
        recorder = self.recorder

        def run(statement, con) -> None:
            nonlocal seconds
            if recorder is not None:
                recorder.statement = f"{self.passes}:{statement.name}"
                frame, start = recorder.open("statement", statement.name,
                                             True)
            else:
                start = perf_counter()
            try:
                result = con.execute(statement.sql)
            except Exception as exc:  # a failed op, reported at the end
                result = None
                print(f"{statement.name} raised {type(exc).__name__}: "
                      f"{exc}", file=sys.stderr)
            if recorder is not None:
                elapsed = recorder.close(frame, start, statement.name)
            else:
                elapsed = perf_counter() - start
            seconds += elapsed
            fingerprint = None
            if result is not None:
                rows = result.fetchall()
                if measured and len(self.ops) == self.inject_at:
                    rows = rows + [("injected wrong row",)]
                fingerprint = digest(rows, statement.ordered)
                self.first.setdefault(statement.name, fingerprint)
            if not measured:
                return
            self.ops.append((statement.name, fingerprint))
            self.latencies.setdefault(statement.name, []).append(elapsed)
            stats = result.stats() if result is not None else None
            if stats is not None:
                for name, value in stats.counters.items():
                    self.counters[name] = self.counters.get(name, 0) + value

        workload.run_pass(state, run)
        return seconds

    def failed_ops(self, oracle: dict[str, str]) -> int:
        """Ops that raised, differ from the oracle, or -- where the row
        engine cannot run the statement -- from their first execution."""
        return sum(
            1 for name, fingerprint in self.ops
            if fingerprint is None
            or fingerprint != oracle.get(name, self.first.get(name))
        )


def set_up(workload, seed: int, sizes, workdir: str, runner: Runner):
    """Generate, load and warm up once; returns the inputs, the state and
    the seconds of the three phases."""
    t0 = perf_counter()
    inputs = workload.generate(seed, sizes)
    t1 = perf_counter()
    state = workload.load(inputs, workdir)
    t2 = perf_counter()
    runner.run_pass(workload, state, measured=False)
    t3 = perf_counter()
    return inputs, state, (t1 - t0, t2 - t1, t3 - t2)


def metric(spec: dict, name: str, value: float) -> dict:
    return {"value": value, "unit": spec[name]["unit"]}


def timed_child(workload, args, sizes, workdir: str) -> dict:
    runner = Runner(inject_at=args.inject_wrong_row)
    # The box's speed drifts by several percent over tens of seconds, so
    # set-ups and measured passes alternate: each median then samples
    # intervals spread over the whole run, not one contiguous block.
    setups: list[float] = []
    passes: list[float] = []
    share = -(-sizes.min_passes // sizes.setups)
    for _ in range(sizes.setups):
        inputs, state, phases = set_up(workload, args.seed, sizes, workdir,
                                       runner)
        setups.append(sum(phases))
        began, target = perf_counter(), len(passes) + share
        while (len(passes) < target
               or perf_counter() - began < args.seconds / sizes.setups):
            passes.append(runner.run_pass(workload, state))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = workload.reference(inputs)
    stored, rows = workload.footprint(state, inputs, workdir)
    medians = {name: statistics.median(v)
               for name, v in runner.latencies.items()}
    slowest = max(medians, key=medians.get)
    values = {
        "pass_s": statistics.median(passes),
        "slowest_stmt_s": medians[slowest],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "stored_bytes_per_row": stored / rows,
    }
    return {
        "ops": len(runner.ops),
        "failed_ops": runner.failed_ops(oracle),
        "metrics": {name: metric(END_TO_END, name, value)
                    for name, value in values.items()},
        "spread": {
            "pass_s": spread(passes),
            "slowest_stmt_s": spread(runner.latencies[slowest]),
            "setup_s": spread(setups),
        },
        "passes": len(passes),
        "pass_quartiles_s": statistics.quantiles(passes, n=4),
        "slowest_stmt": slowest,
        "statement_median_s": medians,
    }


def traced_child(workload, args, sizes, workdir: str) -> dict:
    from repro.observability import set_collection_enabled
    from spans import Recorder, layer_calls, layer_seconds

    # Untraced baseline first: class-level patches would reach it.
    baseline = Runner()
    inputs, state, (generate_s, load_s, warmup_s) = set_up(
        workload, args.seed, sizes, workdir, baseline
    )
    collected, uncollected = [], []
    for _ in range(1 if args.smoke else 3):
        if workload.name in COLLECTION_WORKLOADS:
            set_collection_enabled(False)
            try:
                uncollected.append(baseline.run_pass(workload, state))
            finally:
                set_collection_enabled(True)
        collected.append(baseline.run_pass(workload, state))

    recorder = Recorder()
    recorder.install()  # before connecting: registration captures wrappers
    recorder.enabled = True
    runner = Runner(recorder)
    state = workload.load(inputs, workdir)
    runner.run_pass(workload, state, measured=False)
    setup_totals = recorder.take_totals()[0]
    n = 2 if workload.name == "relational.kernels" else 1
    traced = [runner.run_pass(workload, state) for _ in range(n)]
    recorder.enabled = False
    totals, batch_rows, scalar_rows = recorder.take_totals()
    recorder.write_trace(f"BENCH_trace_{workload.name}.json")

    oracle = workload.reference(inputs)
    failed = baseline.failed_ops(oracle) + runner.failed_ops(oracle)
    files = [os.path.join(workdir, f) for f in os.listdir(workdir)]
    counters = runner.counters

    def counter(*names: str) -> float:
        return sum(counters.get(name, 0) for name in names) / n

    def seconds(layer: str, field: int = 2, names=None) -> float:
        return layer_seconds(totals, layer, field, names) / n

    def ratio(part: float, rest: float) -> float:
        return part / (part + rest) if part + rest else 0.0

    build = ("__init__", ".insert", ".bulk_", ".sink", ".combine", ".append",
             ".rebuild")
    probe = (".search", ".probe")
    probes = counter("index.gist.probes", "index.btree.probes",
                     "index.trtree.probes", "index.trtree.batch_probes")
    candidates = counter("index.gist.candidates", "index.btree.candidates",
                         "index.trtree.candidates")
    pass_s = statistics.median(traced)
    values = {
        "generate_s": generate_s,
        "load_s": load_s,
        "warmup_s": warmup_s,
        "parse_s": seconds("frontend", 2, ("parse_sql",)),
        "bind_s": seconds("frontend", 2, ("bind_select",)),
        "optimize_s": seconds("frontend", 2, ("optimize",)),
        "statements": len(runner.ops) / n,
        "executor_self_s": seconds("executor"),
        "result_rows": counter("executor.rows_returned"),
        "kernel_ops": counter("quack.kernel_ops"),
        "fallback_ops": counter("quack.fallback_ops"),
        "kernel_ratio": ratio(counter("quack.kernel_ops"),
                              counter("quack.fallback_ops")),
        "function_calls": layer_calls(totals, "function") / n,
        "function_rows": layer_calls(totals, "function", 3) / n,
        "function_s": seconds("function", 1),
        "function_self_s": seconds("function"),
        "batch_rows": batch_rows / n,
        "scalar_rows": scalar_rows / n,
        "batch_ratio": ratio(batch_rows, scalar_rows),
        "meos_self_s": seconds("meos"),
        "meos_calls": layer_calls(totals, "meos") / n,
        "geo_self_s": seconds("geo"),
        "geo_calls": layer_calls(totals, "geo") / n,
        "index_build_s": seconds("index", 1, build)
        + layer_seconds(setup_totals, "index", 1, build),
        "index_probe_s": seconds("index", 1, probe),
        "index_probes": probes,
        "index_candidates": candidates,
        "candidates_per_probe": candidates / probes if probes else 0.0,
        "pgsim_self_s": seconds("pgsim"),
        "detoast_count": counter("pgsim.detoast"),
        "attach_s": seconds("storage", 1, ("read_database",)),
        "decode_s": seconds("storage", 1, ("decode_segment",)),
        "checkpoint_s": seconds("storage", 1, ("write_database",)),
        "bytes_written": counter("storage.bytes_written"),
        "file_bytes": sum(os.path.getsize(f) for f in files),
        "rowgroups_scanned": counter("storage.rowgroups_scanned"),
        "rowgroups_skipped": counter("storage.rowgroups_skipped"),
        "skip_ratio": ratio(counter("storage.rowgroups_skipped"),
                            counter("storage.rowgroups_scanned")),
        "spill_bytes": counter("storage.spill_bytes"),
        "spill_s": seconds("storage", 1, ("SpillFile.",)),
        "collection_overhead": (
            statistics.median(collected) / statistics.median(uncollected) - 1
            if uncollected else 0.0
        ),
        "trace_overhead": pass_s / statistics.median(collected) - 1,
        "unattributed_s": seconds("statement"),
    }
    by_function: dict[str, float] = {}
    for (layer, name), total in totals.items():
        if layer == "function":
            by_function[name] = by_function.get(name, 0.0) + total[1] / n
    return {
        "ops": len(baseline.ops) + len(runner.ops),
        "failed_ops": failed,
        "metrics": {name: metric(PER_LAYER, name, value)
                    for name, value in values.items()},
        "traced_pass_s": pass_s,
        "untraced_pass_s": statistics.median(collected),
        "function_s_top10": dict(sorted(
            by_function.items(), key=lambda item: -item[1]
        )[:10]),
        "spans": len(recorder.spans),
    }


def child(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import FULL, SMOKE, WORKLOADS

    sizes = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload]
    run = traced_child if args.trace else timed_child
    result = run(workload, args, sizes, os.environ["TMPDIR"])
    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  sizes=asdict(sizes))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn the children, print, summarise
# ---------------------------------------------------------------------------


def spawn(workload: str, trace: int, args) -> dict:
    """Run one child to completion in a scratch directory of its own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(ENV_PINS)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    env["TMPDIR"] = workdir
    command = [
        sys.executable, str(HERE / "run_all.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.inject_wrong_row is not None:
        command += ["--inject-wrong-row", str(args.inject_wrong_row)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def provenance(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "env": ENV_PINS,
    }


def print_result(result: dict) -> None:
    kind = "traced" if result["trace"] else "timed"
    print(f"\n== {result['workload']} ({kind}, seed {result['seed']}) ==")
    for name, m in result["metrics"].items():
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'ops':<22} {result['ops']:>14}")
    print(f"  {'failed_ops':<22} {result['failed_ops']:>14}")
    if result["trace"]:
        print(f"  traced pass {result['traced_pass_s']:.4f} s, untraced "
              f"{result['untraced_pass_s']:.4f} s, {result['spans']} spans")
        for name, seconds in result["function_s_top10"].items():
            print(f"    function_s {name:<24} {seconds:10.4f} s")
    else:
        q1, _, q3 = result["pass_quartiles_s"]
        print(f"  {result['passes']} passes, quartiles {q1:.4f}-{q3:.4f} s; "
              f"slowest statement {result['slowest_stmt']}")
        for name, seconds in sorted(result["statement_median_s"].items(),
                                    key=lambda item: -item[1]):
            print(f"    {name:<16} {seconds:10.4f} s")


def print_fig12(timed: dict[str, dict]) -> None:
    duck = timed.get("berlinmod.duck")
    pgsim = timed.get("berlinmod.pgsim")
    if not duck or not pgsim:
        return
    ratio = (pgsim["metrics"]["pass_s"]["value"]
             / duck["metrics"]["pass_s"]["value"])
    wins = sum(
        1 for name, seconds in duck["statement_median_s"].items()
        if seconds < pgsim["statement_median_s"][name]
    )
    print(f"\nfig12_speedup {ratio:.3f} (berlinmod.pgsim pass_s / "
          f"berlinmod.duck pass_s); quack wins {wins} of "
          f"{len(duck['statement_median_s'])} queries (not gated)")


def check_repeats(runs: list[dict[str, dict]]) -> bool:
    """Compare the first two sets of timed runs metric by metric."""
    ok = True
    print("\nrepeatability (first run vs second run):")
    for workload, first in runs[0].items():
        second = runs[1][workload]
        for name, spec in END_TO_END.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            change = (b - a) / a
            noise = max(first["spread"].get(name, 0.0),
                        second["spread"].get(name, 0.0))
            if abs(change) > spec["bound"]:
                verdict, ok = "FAIL", False
            elif noise > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {workload:<20} {name:<22} {a:>12.6g} {b:>12.6g} "
                  f"{change:+8.2%} bound {spec['bound']:.0%} "
                  f"spread {noise:.2%} {verdict}")
    return ok


def parent(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("perfbench needs the repository's src/repro")
    names = [args.workload] if args.workload else [
        w["name"] for w in SPEC["workloads"]
    ]
    modes = [0, 1] if args.traced else [args.trace]
    runs: list[dict[str, dict]] = []
    results: list[dict] = []
    for _ in range(args.repeat):
        timed: dict[str, dict] = {}
        for mode in modes:
            for name in names:
                result = spawn(name, mode, args)
                print_result(result)
                results.append(result)
                if not mode:
                    timed[name] = result
        print_fig12(timed)
        runs.append(timed)
    repeatable = check_repeats(runs) if args.repeat > 1 and runs[0] else True

    with open("BENCH_summary.json", "w", encoding="utf-8") as handle:
        json.dump({"provenance": provenance(args), "results": results},
                  handle, indent=2, sort_keys=True)
    failed = sum(r["failed_ops"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": sum(r["ops"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and repeatable else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=4711)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="run the traced child after the timed one")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for test_harness_smoke.py")
    parser.add_argument("--inject-wrong-row", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
