"""Declared observability names: every counter/gauge the engines record.

A dotted name passed to :meth:`QueryStatistics.bump` (directly or via the
ambient :func:`~repro.observability.context.count`) that is not declared
here records to nowhere anyone looks — a typo'd counter is a silent
observability hole.  Two guards close it:

* the flow analyzer's FLOW002 (``python -m repro.analysis.flow``, run
  in tier-1 by ``tests/analysis/test_lint_clean.py``) checks every
  string-literal counter/gauge name and f-string prefix in the source
  tree against this registry;
* under ``set_verification_enabled(True)``, :class:`QueryStatistics`
  validates names at record time, catching dynamically built names.

When adding a counter, declare it here first (grouped by subsystem) and
assert it in a test: FLOW002 also reports emitted names no test
mentions, and declared names nothing emits.
"""

from __future__ import annotations

#: Every fixed counter name either engine records.
DECLARED_COUNTERS = frozenset({
    # quack + pgsim executors
    "executor.rows_returned",
    "executor.result_chunks",
    "executor.index_scans",
    "executor.index_candidates",
    "executor.materializations",
    "executor.materialized_chunks",
    "executor.join_index_probes",
    "executor.join_index_batches",
    "executor.join_build_rows",
    "executor.join_kernel_builds",
    "executor.join_probe_rows",
    "executor.join_kernel_probes",
    "executor.conjunct_rows_skipped",
    # cells (rows x columns) the join loop's gathers and materializations
    # copy
    "executor.gathered_cells",
    # quack kernel/fallback dispatch
    "quack.kernel_ops",
    "quack.fallback_ops",
    "quack.function_batch_ops",
    "quack.distinct_rows_saved",
    "quack.bbox_rows_decided",
    "quack.bbox_rows_scalar",
    # geo batch kernels (rows evaluated, element pairs expanded)
    "geo.kernel_rows",
    "geo.kernel_pairs",
    # pgsim row store
    "pgsim.detoast",
    "pgsim.detoast_bytes",
    "pgsim.toast_out_of_line",
    # R-tree internals (shared by every box index)
    "rtree.searches",
    "rtree.nodes_visited",
    "rtree.leaf_hits",
    "rtree.batch_searches",
    "rtree.batch_probes",
    "rtree.batch_nodes_visited",
    "rtree.batch_leaf_hits",
    # index access methods (``index.<type>.*``, alike for every box index)
    "index.trtree.probes",
    "index.trtree.candidates",
    "index.trtree.batch_probes",
    "index.trtree.batches",
    "index.rtree.probes",
    "index.rtree.candidates",
    "index.rtree.batch_probes",
    "index.rtree.batches",
    "index.gist.probes",
    "index.gist.candidates",
    "index.btree.probes",
    "index.btree.candidates",
    # verification layer
    "verify.plans",
    "verify.rules_checked",
    "verify.chunks_checked",
    "verify.kernel_crosschecks",
    "verify.zonemap_crosschecks",
    "verify.segment_copy_crosschecks",
    # persistent columnar storage + spill
    "storage.rowgroups_scanned",
    "storage.rowgroups_skipped",
    "storage.segments_decoded",
    "storage.segments_copied",
    "storage.bytes_read",
    "storage.bytes_written",
    "storage.checkpoints",
    "storage.tables_attached",
    "storage.spill_bytes",
    "storage.spill_rows",
    "storage.spill_runs",
    "storage.spill_partitions",
    "storage.spilled_sorts",
    "storage.spilled_joins",
    "storage.spilled_aggregates",
    # timeline tracing + query log
    "trace.events",
    "querylog.records",
    "querylog.suppressed",
})

#: Prefix families whose members are generated (``<prefix><suffix>``).
DECLARED_PREFIXES = (
    "optimizer.rule.",
    "optimizer.cbo.",
    # derived-view builds per view key (``quack.view_builds.tcsr``, …)
    "quack.view_builds.",
)

#: Every fixed gauge name.
DECLARED_GAUGES = frozenset({
    "executor.peak_materialized_rows",
})


def is_declared_counter(name: str) -> bool:
    if name in DECLARED_COUNTERS:
        return True
    return any(name.startswith(p) for p in DECLARED_PREFIXES)


def is_declared_gauge(name: str) -> bool:
    if name in DECLARED_GAUGES:
        return True
    return any(name.startswith(p) for p in DECLARED_PREFIXES)
