"""Morsel-driven parallel execution: worker pool and scatter machinery.

DuckDB's intra-query parallelism splits table scans into fixed-size
*morsels* and runs pipeline fragments on a worker pool; blocking sinks
(hash-join build, aggregation, sort) consume morsels through
parallel-aware merge steps.  This module provides the engine-side
infrastructure — the executor decides *what* to scatter:

* :class:`MorselPool` — a lazily created ``ThreadPoolExecutor`` owned by
  one connection.  The NumPy kernels release the GIL, so fragments over
  numeric columns genuinely overlap; pure-Python extension payload loops
  interleave but still batch per morsel.
* :func:`run_tasks` / :func:`ordered_map` — scatter helpers.  Every task
  runs inside ``contextvars.copy_context()`` captured at submit time, so
  the per-query contextvars (the ambient statistics scope and the
  kernel-flag snapshot) propagate into pool threads; each task gets a
  worker-local :class:`QueryStatistics` which the coordinator merges
  back, so no counter increments race or vanish.
* :class:`PartitionedJoinBuild` — the parallel hash-join build sink:
  contiguous build-side partitions each build a ``kernels.JoinBuild``
  on a worker, and probes merge partition pair lists back to the exact
  probe-major, build-ascending order of the serial build.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ..observability.context import activate
from ..observability.stats import QueryStatistics
from . import kernels
from .vector import KernelFallback, Vector

#: Minimum input rows before a blocking sink (join build, aggregate)
#: fans out; below this the scatter overhead dwarfs the work.
MIN_PARALLEL_ROWS = 4096

#: Minimum rows per morsel of a blocking sink's input split.
MIN_MORSEL_ROWS = 1024


def default_workers() -> int:
    """Worker count for connections opened without an explicit choice:
    the ``REPRO_THREADS`` environment variable, else 1 (serial).  Lets
    CI soak the whole suite at ``workers=4`` without touching every
    ``connect()`` call."""
    try:
        return max(1, int(os.environ.get("REPRO_THREADS", "1")))
    except ValueError:
        return 1


class MorselPool:
    """A connection-owned worker pool, created on first parallel query."""

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="quack-morsel",
                )
                self._prestart(self._executor)
            return self._executor

    def _prestart(self, executor: ThreadPoolExecutor) -> None:
        """Spawn the full worker complement up front.

        ``ThreadPoolExecutor`` creates threads lazily — one per submit
        that finds no idle worker — so a producer-bound pipeline that
        never has two tasks in flight funnels every morsel through
        worker 0 forever, and bursty sinks race the spawn path on their
        first batch.  A barrier task per worker forces all threads to
        exist before the first real morsel: a finished worker rejoins
        the queue behind its idle peers, so even strictly sequential
        fragment streams rotate across lanes.
        """
        if self.workers <= 1:
            return
        barrier = threading.Barrier(self.workers)

        def wait() -> None:
            try:
                barrier.wait(timeout=10.0)
            except threading.BrokenBarrierError:
                pass

        for future in [executor.submit(wait) for _ in range(self.workers)]:
            future.result()

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


#: A unit of scattered work: receives the worker-local statistics (for
#: building a worker execution context) and returns any result.
Task = Callable[[QueryStatistics], Any]


def _submit(executor: ThreadPoolExecutor, task: Task):
    """Submit one task wrapped for context propagation and stats isolation.

    The caller's context is captured *here*, at submit time — it carries
    the ambient statistics activation and the per-query kernel-flag
    snapshot into the pool thread.  Inside the worker a fresh local
    :class:`QueryStatistics` is activated on top, so ambient ``count()``
    calls from kernels and indexes record thread-locally instead of
    racing on the coordinator's object.
    """
    captured = contextvars.copy_context()

    def call():
        local = QueryStatistics()

        def invoke():
            with activate(local):
                return task(local)

        return captured.run(invoke), local

    return executor.submit(call)


def run_tasks(pool: MorselPool, tasks: Iterable[Task],
              stats: QueryStatistics | None = None) -> list[Any]:
    """Run tasks on the pool; results in task order.

    Worker-local statistics merge into ``stats`` (when given) as results
    are collected — counter sums and peak gauges survive the pool hop.
    """
    executor = pool.executor()
    futures = [_submit(executor, task) for task in tasks]
    results: list[Any] = []
    for future in futures:
        result, local = future.result()
        if stats is not None:
            stats.merge(local)
        results.append(result)
    return results


def ordered_map(pool: MorselPool, items: Iterable[Any],
                fn: Callable[[Any, QueryStatistics], Any],
                stats: QueryStatistics | None = None,
                window: int | None = None) -> Iterator[Any]:
    """Lazily map ``fn`` over ``items`` on the pool, preserving order.

    At most ``window`` (default ``2 * workers``) tasks are in flight, so
    a streaming source is never fully materialized and results arrive in
    input order — downstream operators observe the same chunk sequence a
    serial run produces.  Abandoning the iterator (e.g. a LIMIT upstream)
    cancels tasks that have not started.
    """
    executor = pool.executor()
    if window is None:
        window = 2 * pool.workers
    pending: deque = deque()

    def finish(future) -> Any:
        result, local = future.result()
        if stats is not None:
            stats.merge(local)
        return result

    try:
        for item in items:
            pending.append(
                _submit(executor, lambda local, item=item: fn(item, local))
            )
            if len(pending) >= window:
                yield finish(pending.popleft())
        while pending:
            yield finish(pending.popleft())
    finally:
        for future in pending:
            future.cancel()


def morsel_ranges(count: int, workers: int,
                  min_rows: int = MIN_MORSEL_ROWS) -> list[tuple[int, int]]:
    """Split ``[0, count)`` into contiguous morsel row ranges.

    Targets ``2 * workers`` morsels (so a slow morsel does not straggle
    the whole sink) but never drops below ``min_rows`` per morsel.
    """
    target = min(2 * workers, max(1, count // min_rows))
    if target <= 1 or count <= 0:
        return [(0, count)]
    bounds = np.linspace(0, count, target + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(target)
        if bounds[i + 1] > bounds[i]
    ]


def row_range(vectors: list[Vector], start: int, end: int) -> list[Vector]:
    """Zero-copy contiguous row range of whole-relation column vectors."""
    return [
        Vector(v.ltype, v.data[start:end], v.validity[start:end])
        for v in vectors
    ]


class PartitionedJoinBuild:
    """Parallel hash-join build: per-partition kernels, merged probes.

    The build side is split into contiguous row-range partitions; each
    partition builds its own :class:`kernels.JoinBuild` on a worker.  A
    probe runs against every partition and the per-partition pair lists
    are merged with one ``np.lexsort`` back to the global probe-major,
    build-ascending order — the exact pair order of the serial kernel
    and of the dict fallback, so the existing join verification
    (``assert_join_pairs_match``) applies unchanged.
    """

    def __init__(self, builds: list, starts: list[int]):
        self._builds = builds
        self._starts = starts

    @property
    def partitions(self) -> int:
        return len(self._builds)

    @classmethod
    def build(cls, pool: MorselPool, key_vectors: list[Vector],
              right_count: int,
              stats: QueryStatistics | None = None,
              trace=None) -> "PartitionedJoinBuild | None":
        """Build partitioned; None when too small or a kernel declines
        (the caller then takes the serial build path).  ``trace`` is the
        query's :class:`~repro.observability.trace.TraceCollector`: each
        partition build emits one ``morsel`` timeline event from its
        worker lane."""
        if right_count < MIN_PARALLEL_ROWS:
            return None
        parts = min(pool.workers, right_count // MIN_MORSEL_ROWS)
        if parts <= 1:
            return None
        bounds = np.linspace(0, right_count, parts + 1, dtype=np.int64)
        ranges = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(parts)
        ]

        def make_task(start: int, end: int) -> Task:
            def task(local_stats: QueryStatistics):
                opened = time.perf_counter()
                out = kernels.JoinBuild(
                    row_range(key_vectors, start, end), end - start
                )
                if trace is not None:
                    trace.emit(
                        "join_build_partition", "morsel", opened,
                        time.perf_counter() - opened, rows=end - start,
                    )
                return out

            return task

        try:
            builds = run_tasks(
                pool, [make_task(s, e) for s, e in ranges], stats
            )
        except KernelFallback:
            return None
        return cls(builds, [s for s, _ in ranges])

    def probe(self, probe_vectors: list[Vector],
              n: int) -> tuple[np.ndarray, np.ndarray]:
        """Probe all partitions; pairs in serial-equivalent order.

        Raises :class:`KernelFallback` (from the partition kernels) when
        a probe chunk cannot be handled — the caller's existing fallback
        path takes over, exactly as with a serial ``JoinBuild``.
        """
        left_parts: list[np.ndarray] = []
        right_parts: list[np.ndarray] = []
        for build, start in zip(self._builds, self._starts):
            li, ri = build.probe(probe_vectors, n)
            if len(li):
                left_parts.append(li)
                right_parts.append(ri + start)
        if not left_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        li = np.concatenate(left_parts)
        ri = np.concatenate(right_parts)
        order = np.lexsort((ri, li))
        return li[order], ri[order]
