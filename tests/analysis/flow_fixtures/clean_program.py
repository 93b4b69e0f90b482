"""Negative control: every sharp idiom here is the *safe* variant, so
the analyzer must report nothing — locked writes, the ``setdefault``
atomic publish, worker-local containers, ``*_locked`` trusted helpers,
context-managed and finally-closed handles, handle-ownership transfer,
a read SET flag, and an env toggle on a reachable public path.
"""

import os
import threading

from storage import SpillFile, open_path


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._memo = {}
        self._hits = 0

    def record(self, key, value):
        with self._lock:
            self._memo[key] = value
            self._hits += 1

    def _bump_locked(self):
        self._hits += 1

    def publish(self, key, value):
        return self._memo.setdefault(key, value)


def _merge_counts(cache, pairs):
    totals = {}
    for key, value in pairs:
        totals[key] = totals.get(key, 0) + value
    for key, value in totals.items():
        cache.record(key, value)


def _memo_publish(cache, key, value):
    return cache.publish(key, value)


def copy_rows(rows):
    out = SpillFile()
    try:
        out.write_chunk(rows)
    finally:
        out.close()


def sum_rows(path):
    with open_path(path) as handle:
        return handle.rows


def make_spill():
    return SpillFile()


def collect_spills(parts):
    parts.append(SpillFile())


def read_debug_flag():
    return os.environ.get("REPRO_DEBUG", "")


def run(pool, cache):
    pool.run_tasks([_merge_counts, _memo_publish])
