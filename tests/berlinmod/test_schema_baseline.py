"""Schema loading on the row-store baseline + index DDL."""

import pytest

from repro import core
from repro.berlinmod import (
    BASELINE_INDEX_DDL,
    create_baseline_indexes,
    generate,
    load_dataset,
)
from repro.core.codecs import TCSR_CODEC
from repro.pgsim.table import TOAST_THRESHOLD


@pytest.fixture(scope="module")
def dataset():
    return generate(0.001, spacing_m=1500.0)


@pytest.fixture(scope="module")
def baseline(dataset):
    con = core.connect_baseline()
    load_dataset(con, dataset)
    return con


class TestBaselineSchema:
    def test_row_counts(self, baseline, dataset):
        assert baseline.execute(
            "SELECT count(*) FROM Trips"
        ).scalar() == len(dataset.trips)
        assert baseline.execute(
            "SELECT count(*) FROM hanoi"
        ).scalar() == 12

    def test_trips_stay_inline(self, baseline, dataset):
        # Every trip of the city lays out in under 2032 bytes, so the
        # heap holds it in place, as PostgreSQL would not TOAST it.
        table = baseline.database.catalog.get_table("Trips")
        trip_col = table.column_index("Trip")
        stored = [row[trip_col] for _, row in table.scan()]
        assert stored == [trip.trip for trip in dataset.trips]
        assert max(len(TCSR_CODEC.encode_datum(trip))
                   for trip in stored) <= TOAST_THRESHOLD

    def test_trip_values_load_correctly(self, baseline, dataset):
        got = baseline.execute(
            "SELECT numInstants(Trip) FROM Trips WHERE TripId = 1"
        ).scalar()
        assert got == dataset.trips[0].trip.num_instants()

    def test_indexes_created(self, baseline):
        create_baseline_indexes(baseline)
        names = set(baseline.database.catalog.indexes)
        assert "trips_trip_gist" in names
        assert "trips_vehicle_btree" in names
        assert len(names) >= len(BASELINE_INDEX_DDL)

    def test_gist_index_used_and_correct(self, baseline):
        box = baseline.execute(
            "SELECT expandSpace(Trip::STBOX, 10.0)::VARCHAR FROM Trips "
            "WHERE TripId = 1"
        ).scalar()
        query = (f"SELECT count(*) FROM Trips WHERE Trip && "
                 f"stbox('{box}')")
        plan = baseline.explain(query)
        assert "GIST_INDEX_SCAN" in plan
        with_index = baseline.execute(query).scalar()

        plain = core.connect_baseline()
        load_dataset(plain, generate(0.001, spacing_m=1500.0))
        assert plain.execute(query).scalar() == with_index

    def test_btree_speeds_vehicle_lookup(self, baseline):
        plan = baseline.explain(
            "SELECT count(*) FROM Trips WHERE VehicleId = 5"
        )
        assert "BTREE_INDEX_SCAN" in plan
