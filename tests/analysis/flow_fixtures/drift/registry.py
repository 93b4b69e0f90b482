"""The fixture corpus's own observability registry: FLOW002 reads these
literals from whichever module defines them (bare, or wrapped in
``frozenset(...)`` the way the engine's registry spells them)."""

DECLARED_COUNTERS = (
    "scan.rows_in",
    "cache.unused_counter",
    "cache.hits",
    "cache.misses",
)

DECLARED_PREFIXES = (
    "optimizer.rule.",
)

DECLARED_GAUGES = frozenset({
    "scan.peak_rows",
})
