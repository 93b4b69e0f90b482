"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism behind the paper's Figure 12 gap:

1. **Vectorization** — identical relational work (numeric filter +
   aggregate) on the columnar engine vs the row engine, with no extension
   types involved.
2. **TOAST/varlena** — identical temporal payload work on both engines
   over trips past the TOAST threshold; the row engine pays a detoast
   (inflate and decode) per datum access.
3. **GSERIALIZED vs WKB** — the §6.3 interop optimization: trajectory_gs
   avoids the WKB encode/decode round-trip of trajectory()::GEOMETRY.
4. **Bulk vs incremental TRTREE build** — §4.2's two construction paths.
"""

import time

import pytest

from repro import core
from repro.meos import STBox
from repro.pgsim import RowDatabase
from repro.quack import Database


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestVectorizationAblation:
    ROWS = 200_000

    @pytest.fixture(scope="class")
    def engines(self):
        rows = [(i, float(i % 1000)) for i in range(self.ROWS)]
        duck = Database().connect()
        duck.execute("CREATE TABLE n(a BIGINT, b DOUBLE)")
        duck.database.catalog.get_table("n").append_rows(rows)
        row = RowDatabase().connect()
        row.execute("CREATE TABLE n(a BIGINT, b DOUBLE)")
        row.database.catalog.get_table("n").append_rows(rows)
        return duck, row

    QUERY = ("SELECT count(*), sum(b) FROM n "
             "WHERE a % 7 = 3 AND b > 100.0")

    def test_columnar_beats_row_on_relational_work(self, engines,
                                                   benchmark):
        duck, row = engines
        duck_s = _timed(lambda: duck.execute(self.QUERY))
        row_s = _timed(lambda: row.execute(self.QUERY))
        assert duck.execute(self.QUERY).fetchall() == \
            row.execute(self.QUERY).fetchall()
        print(f"\nvectorization ablation ({self.ROWS} rows): "
              f"columnar {duck_s:.3f}s vs row {row_s:.3f}s "
              f"({row_s / duck_s:.1f}x)")
        benchmark.extra_info.update(columnar_s=duck_s, row_s=row_s)
        benchmark.pedantic(lambda: duck.execute(self.QUERY), rounds=3,
                           iterations=1)
        # The columnar engine must win clearly on pure relational work —
        # this is mechanism (a) of the paper's gap.
        assert duck_s * 2 < row_s


class TestVarlenaAblation:
    """Trips past PostgreSQL's 2032-byte TOAST threshold, so the row
    engine fetches every one out of line on each access."""

    TRIPS = 200
    INSTANTS = 400

    @pytest.fixture(scope="class")
    def engines(self):
        from repro import meos
        from repro.meos.temporal.base import TInstant
        from repro.meos.temporal.ttypes import TGEOMPOINT
        from repro import geo

        trips = []
        for i in range(self.TRIPS):
            # y zigzags, so normalization keeps every instant
            instants = [
                TInstant(TGEOMPOINT, geo.Point(i + k, k * k % 13),
                         k * 60_000_000 + i)
                for k in range(self.INSTANTS)
            ]
            trips.append(
                (i, meos.sequence_from_instants(instants)),
            )
        duck = core.connect()
        duck.execute("CREATE TABLE trips(id INTEGER, trip TGEOMPOINT)")
        duck.database.catalog.get_table("trips").append_rows(trips)
        base = core.connect_baseline()
        base.execute("CREATE TABLE trips(id INTEGER, trip TGEOMPOINT)")
        base.database.catalog.get_table("trips").append_rows(trips)
        return duck, base

    QUERY = "SELECT sum(length(trip)) FROM trips"

    def test_detoast_overhead(self, engines, benchmark):
        duck, base = engines
        duck_s = _timed(lambda: duck.execute(self.QUERY))
        base_s = _timed(lambda: base.execute(self.QUERY))
        result = base.execute(self.QUERY)
        assert duck.execute(self.QUERY).scalar() == pytest.approx(
            result.scalar()
        )
        # one out-of-line fetch per row scanned
        assert result.stats().counter("pgsim.detoast") == self.TRIPS
        print(f"\nvarlena ablation ({self.TRIPS} trips of "
              f"{self.INSTANTS} instants): native {duck_s:.3f}s vs "
              f"toasted {base_s:.3f}s ({base_s / duck_s:.1f}x)")
        benchmark.extra_info.update(native_s=duck_s, toasted_s=base_s)
        benchmark.pedantic(lambda: duck.execute(self.QUERY), rounds=3,
                           iterations=1)
        # Detoasting per datum access must cost something real —
        # mechanism (b) of the paper's gap.
        assert base_s > duck_s


class TestGserializedAblation:
    """§6.3: the *_gs functions avoid WKB round-trips."""

    @pytest.fixture(scope="class")
    def con(self):
        con = core.connect()
        con.execute("CREATE TABLE trips(trip TGEOMPOINT)")
        con.execute(
            "INSERT INTO trips SELECT ('[Point(' || i || ' 0)@2025-01-01,"
            " Point(' || (i + 1) || ' 1)@2025-01-02]') "
            "FROM generate_series(1, 2000) AS t(i)"
        )
        return con

    WKB_QUERY = ("SELECT count(*) FROM trips "
                 "WHERE ST_Length(trajectory(trip)::GEOMETRY) > 1.0")
    GS_QUERY = ("SELECT count(*) FROM trips "
                "WHERE length_gs(trajectory_gs(trip)) > 1.0")

    def test_gs_path_faster_than_wkb_roundtrip(self, con, benchmark):
        wkb_s = _timed(lambda: con.execute(self.WKB_QUERY))
        gs_s = _timed(lambda: con.execute(self.GS_QUERY))
        assert con.execute(self.WKB_QUERY).scalar() == \
            con.execute(self.GS_QUERY).scalar()
        print(f"\nGSERIALIZED ablation: WKB path {wkb_s:.3f}s vs "
              f"gs path {gs_s:.3f}s ({wkb_s / gs_s:.1f}x)")
        benchmark.extra_info.update(wkb_s=wkb_s, gs_s=gs_s)
        benchmark.pedantic(lambda: con.execute(self.GS_QUERY), rounds=3,
                           iterations=1)
        assert gs_s < wkb_s


class TestRtreeBuildAblation:
    """§4.2: STR bulk load vs one-by-one insertion."""

    ROWS = 20_000

    def test_bulk_vs_incremental(self, benchmark):
        from repro.index import RTree

        items = []
        for i in range(self.ROWS):
            items.append(((float(i), float(i), i + 1.0, i + 1.0), i))

        def incremental():
            tree = RTree(dimensions=2)
            for rect, rid in items:
                tree.insert(rect, rid)
            return tree

        def bulk():
            return RTree.bulk_load(items, dimensions=2)

        inc_s = _timed(incremental)
        bulk_s = _timed(bulk)
        print(f"\nTRTREE build ablation ({self.ROWS} boxes): "
              f"incremental {inc_s:.3f}s vs bulk {bulk_s:.3f}s "
              f"({inc_s / bulk_s:.1f}x)")
        benchmark.extra_info.update(incremental_s=inc_s, bulk_s=bulk_s)
        benchmark.pedantic(bulk, rounds=3, iterations=1)
        assert bulk_s < inc_s
        # Both must answer queries identically.
        a = sorted(incremental().search((100.0, 100.0, 200.0, 200.0)))
        b = sorted(bulk().search((100.0, 100.0, 200.0, 200.0)))
        assert a == b
