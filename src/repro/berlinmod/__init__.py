"""repro.berlinmod — the BerlinMOD-Hanoi benchmark (paper §5–§6).

Synthetic Hanoi districts and road network, the BerlinMOD trip generator
adapted to them, schema loading for both engines, the 17 benchmark
queries, and GeoJSON export.
"""

from .export import regions_to_geojson, trips_to_geojson, write_geojson
from .generator import Dataset, ScaleParams, Trip, TripGenerator, Vehicle, generate
from .network import RoadNetwork, make_network
from .queries import QUERIES, BenchmarkQuery, get_query
from .regions import District, make_districts
from .runner import SCENARIOS, prepare_scenario
from .schema import (
    BASELINE_INDEX_DDL,
    create_baseline_indexes,
    load_dataset,
)

__all__ = [
    "BASELINE_INDEX_DDL",
    "SCENARIOS",
    "prepare_scenario",
    "BenchmarkQuery",
    "Dataset",
    "District",
    "QUERIES",
    "RoadNetwork",
    "ScaleParams",
    "Trip",
    "TripGenerator",
    "Vehicle",
    "create_baseline_indexes",
    "generate",
    "get_query",
    "load_dataset",
    "make_districts",
    "make_network",
    "regions_to_geojson",
    "trips_to_geojson",
    "write_geojson",
]
