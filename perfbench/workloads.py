"""The four closed-loop workloads: inputs, loading, one pass, the oracle.

Every workload is an object with

``generate(seed, sizes)``   inputs, made from the seed alone
``load(inputs, workdir)``   a fresh database holding them (the state)
``run_pass(state, run)``    the statement list once, in order, each
                            statement through ``run(statement, con)``
``reference(inputs)``       oracle digests from the other engine, untimed
``footprint(state, ...)``   bytes of the tables as a ``.quackdb`` and
                            their live rows

The program under test receives only the generated rows and SQL text,
never the seed or a workload name.

What the seed drives.  ``relational.kernels`` and ``storage.cycle`` draw
every table value from it.  The BerlinMOD workloads always load the city
``generate(SF, CITY_SEED)`` and take only the order of the 17 statements
from the seed: across twenty seeded cities a pass varies by 30-45 %
(interquartile range over median; the ten-row parameter samples decide how
many trip pairs Q5/Q13/Q15/Q16 touch), no available count normalises that
away, averaging enough cities costs more than a run may take, and about
one seed in a hundred makes ``generate`` itself raise ``NetworkXNoPath``.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

from repro import core
from repro.berlinmod import QUERIES, generate, get_query, prepare_scenario

#: ``repro.berlinmod.generate``'s own default seed: the repository's city.
CITY_SEED = 4711

#: Q10 orders by (Licence1, Car2Id) but returns one row per trip pair, so
#: ties may legally come back in any order: compared as a multiset.
_UNORDERED_QUERIES = {10}


@dataclass(frozen=True)
class Sizes:
    scale_factor: float   # BerlinMOD city
    fact_rows: int        # relational.kernels fact table (dim is a tenth)
    storage_rows: int     # storage.cycle fact table
    insert_rows: int      # rows each storage.cycle pass inserts
    setups: int           # set-ups per run; setup_s is their median
    min_passes: int       # measured passes, however short --seconds is
    #: BerlinMOD query numbers to run; None runs all 17
    queries: tuple[int, ...] | None = None


#: Timed on the 2-core reference box: passes of 1.7 s (berlinmod.duck),
#: 3.8 s (berlinmod.pgsim), 0.6 s (relational.kernels), 1.5 s
#: (storage.cycle), so that 22 runs of each workload fit the driver's cap.
FULL = Sizes(0.0002, 100_000, 50_000, 10_000, setups=3, min_passes=5)
#: Q16 alone takes 0.7 s even on the smallest city, so the smoke test runs
#: the cheap half of the grid.
SMOKE = Sizes(0.00005, 3_000, 3_000, 500, setups=1, min_passes=2,
              queries=(1, 2, 3, 4, 7, 8, 10, 17))


@dataclass(frozen=True)
class Statement:
    name: str
    sql: str
    #: ORDER BY is total: the digest is order-sensitive
    ordered: bool = True
    #: the row engine can run it, so the oracle covers it
    oracle: bool = True


def digest(rows: list[tuple], ordered: bool) -> str:
    """A result's fingerprint: the row sequence where the order is
    defined, the row multiset where it is not."""
    items = [repr(row) for row in rows]
    if not ordered:
        items.sort()
    return hashlib.sha1("\n".join(items).encode()).hexdigest()


def oracle_digests(con, statements) -> dict[str, str]:
    return {
        s.name: digest(con.execute(s.sql).fetchall(), s.ordered)
        for s in statements if s.oracle
    }


def live_rows(con) -> int:
    return sum(t.num_rows() for t in con.database.catalog.tables.values())


def checkpoint_footprint(con, path: str) -> tuple[int, int]:
    """``CHECKPOINT`` a quack connection's tables to ``path``; returns the
    file's bytes and the live rows it holds."""
    con.execute(f"CHECKPOINT '{path}'")
    return os.path.getsize(path), live_rows(con)


def _quack_connection():
    con = core.connect()
    con.execute("SET threads = 1")
    return con


# -- synthetic relational tables ----------------------------------------------------

_FACT_DDL = ("CREATE TABLE fact(id BIGINT, k BIGINT, g BIGINT, x DOUBLE,"
             " s VARCHAR)")
_DIM_DDL = "CREATE TABLE dim(k BIGINT, cat BIGINT, name VARCHAR)"


def _fact_rows(rng: random.Random, rows: int, keys: int) -> list[tuple]:
    """``x`` is a multiple of 1/64 below 10^6, so every sum of it is exact
    in float64 whatever order an engine adds in."""
    words = [f"w{i:04d}" for i in range(500)]
    return [
        (i, rng.randrange(keys), rng.randrange(64),
         rng.randrange(64_000_000) / 64.0, rng.choice(words))
        for i in range(rows)
    ]


def _load_rows(con, ddl: str, table: str, rows: list[tuple]) -> None:
    con.execute(ddl)
    con.database.catalog.get_table(table).append_rows(rows)


# -- berlinmod.duck / berlinmod.pgsim ---------------------------------------------------


class BerlinMod:
    """All 17 BerlinMOD-Hanoi queries on one engine scenario."""

    def __init__(self, name: str, scenario: str, reference_scenario: str):
        self.name = name
        self.scenario = scenario
        self.reference_scenario = reference_scenario

    def generate(self, seed: int, sizes: Sizes):
        dataset = generate(sizes.scale_factor, CITY_SEED)
        queries = [q for q in QUERIES
                   if sizes.queries is None or q.number in sizes.queries]
        random.Random(seed).shuffle(queries)
        statements = [
            Statement(f"Q{q.number}", q.sql,
                      ordered=q.number not in _UNORDERED_QUERIES)
            for q in queries
        ]
        return dataset, statements

    def load(self, inputs, workdir: str):
        dataset, statements = inputs
        con = prepare_scenario(self.scenario, dataset)
        if self.scenario == "mobilityduck":
            con.execute("SET threads = 1")
        return con, statements

    def run_pass(self, state, run) -> None:
        con, statements = state
        for statement in statements:
            run(statement, con)

    def reference(self, inputs) -> dict[str, str]:
        dataset, statements = inputs
        return oracle_digests(
            prepare_scenario(self.reference_scenario, dataset), statements
        )

    def footprint(self, state, inputs, workdir: str) -> tuple[int, int]:
        """A freshly generated city on quack (the row engine has no file):
        trips that queries have touched carry memoized boxes, which the
        pickle fallback codec would write too."""
        dataset = generate(inputs[0].scale.scale_factor, CITY_SEED)
        return checkpoint_footprint(
            prepare_scenario("mobilityduck", dataset),
            os.path.join(workdir, "footprint.quackdb"),
        )


# -- relational.kernels --------------------------------------------------------------------


class RelationalKernels:
    """Plain SQL types only: the executor, its kernels and the vectors do
    all the work; ``meos`` and ``geo`` none."""

    name = "relational.kernels"

    STATEMENTS = [
        Statement("filter_group",
                  "SELECT g, count(*), sum(x), min(x), max(x) FROM fact"
                  " WHERE x < 250000.0 GROUP BY g ORDER BY g"),
        Statement("join_avg",
                  "SELECT d.cat, avg(f.x), count(*) FROM fact f, dim d"
                  " WHERE f.k = d.k GROUP BY d.cat ORDER BY d.cat"),
        Statement("sort_full",
                  "SELECT id, g, x FROM fact ORDER BY g, x, id"),
        Statement("top100",
                  "SELECT id, x FROM fact ORDER BY x DESC, id LIMIT 100"),
        Statement("distinct_text", "SELECT DISTINCT s FROM fact",
                  ordered=False),
        Statement("count_distinct",
                  "SELECT g, count(DISTINCT k) FROM fact GROUP BY g"
                  " ORDER BY g"),
    ]

    def generate(self, seed: int, sizes: Sizes):
        rng = random.Random(seed)
        keys = sizes.fact_rows // 10
        fact = _fact_rows(rng, sizes.fact_rows, keys)
        dim = [(k, rng.randrange(16), f"name{k:06d}") for k in range(keys)]
        return fact, dim

    def _load(self, con, inputs):
        fact, dim = inputs
        _load_rows(con, _FACT_DDL, "fact", fact)
        _load_rows(con, _DIM_DDL, "dim", dim)
        return con

    def load(self, inputs, workdir: str):
        return self._load(_quack_connection(), inputs)

    def run_pass(self, con, run) -> None:
        for statement in self.STATEMENTS:
            run(statement, con)

    def reference(self, inputs) -> dict[str, str]:
        return oracle_digests(
            self._load(core.connect_baseline(), inputs), self.STATEMENTS
        )

    def footprint(self, con, inputs, workdir: str) -> tuple[int, int]:
        return checkpoint_footprint(
            con, os.path.join(workdir, "footprint.quackdb")
        )


# -- storage.cycle ------------------------------------------------------------------------------


class StorageCycle:
    """Writes beside reads on the storage layer: every pass opens a fresh
    database over the persisted file, reads it cold, spills a sort, inserts
    and checkpoints to a sibling path (in-place ``CHECKPOINT`` over a
    lazily-decoded attached file kills the process today -- see
    README.md), then re-attaches what it wrote."""

    name = "storage.cycle"

    def generate(self, seed: int, sizes: Sizes):
        dataset = generate(sizes.scale_factor, CITY_SEED)
        fact = _fact_rows(random.Random(seed), sizes.storage_rows,
                          sizes.storage_rows // 10)
        return dataset, fact, sizes.insert_rows

    def _statements(self, base: str, sibling: str, rows: int, insert: int):
        middle = rows // 2
        return (
            [
                Statement("attach", f"ATTACH '{base}'", oracle=False),
                Statement("zonemap_scan",
                          "SELECT count(*), sum(x) FROM fact WHERE id"
                          f" BETWEEN {middle} AND {middle + rows // 50}"),
                Statement("cold_group",
                          "SELECT g, count(*), sum(x) FROM fact GROUP BY g"
                          " ORDER BY g"),
                Statement("Q4", get_query(4).sql),
                Statement("Q13", get_query(13).sql),
                Statement("limit_on", "SET memory_limit = 1", oracle=False),
                Statement("spill_sort",
                          "SELECT id, g, x FROM fact ORDER BY g, x, id"),
                Statement("limit_off", "SET memory_limit = 0", oracle=False),
                Statement("insert",
                          f"INSERT INTO fact SELECT id + {rows}, k, g, x, s"
                          f" FROM fact WHERE id < {insert}", oracle=False),
                Statement("checkpoint", f"CHECKPOINT '{sibling}'",
                          oracle=False),
            ],
            [
                Statement("reattach", f"ATTACH '{sibling}'", oracle=False),
                Statement("count_rows", "SELECT count(*), sum(x) FROM fact"),
            ],
        )

    def load(self, inputs, workdir: str):
        dataset, fact, insert = inputs
        base = os.path.join(workdir, "base.quackdb")
        sibling = os.path.join(workdir, "next.quackdb")
        con = prepare_scenario("mobilityduck", dataset)
        _load_rows(con, _FACT_DDL, "fact", fact)
        con.execute(f"CHECKPOINT '{base}'")
        con.close()
        return self._statements(base, sibling, len(fact), insert)

    def run_pass(self, state, run) -> None:
        for statements in state:  # a fresh database per file opened
            con = _quack_connection()
            try:
                for statement in statements:
                    run(statement, con)
            finally:
                con.close()

    def reference(self, inputs) -> dict[str, str]:
        dataset, fact, insert = inputs
        con = prepare_scenario("mobilitydb", dataset)
        _load_rows(con, _FACT_DDL, "fact", fact)
        before, after = self._statements("", "", len(fact), insert)
        digests = oracle_digests(con, before)
        con.execute(next(s.sql for s in before if s.name == "insert"))
        digests.update(oracle_digests(con, after))
        return digests

    def footprint(self, state, inputs, workdir: str) -> tuple[int, int]:
        """The last pass's own checkpoint, re-attached to count its rows."""
        sibling = os.path.join(workdir, "next.quackdb")
        con = core.connect()
        con.execute(f"ATTACH '{sibling}'")
        rows = live_rows(con)
        con.close()
        return os.path.getsize(sibling), rows


WORKLOADS = {
    w.name: w for w in (
        BerlinMod("berlinmod.duck", "mobilityduck", "mobilitydb_idx"),
        BerlinMod("berlinmod.pgsim", "mobilitydb_idx", "mobilityduck"),
        RelationalKernels(),
        StorageCycle(),
    )
}
