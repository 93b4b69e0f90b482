"""BerlinMOD-Hanoi generator tests (paper §5, Tables 2/3)."""

import hashlib

import pytest

from repro import geo
from repro.berlinmod import (
    Dataset,
    ScaleParams,
    generate,
    make_districts,
)
from repro.berlinmod import network
from repro.berlinmod.network import SPEED_KMH, make_network
from repro.berlinmod.regions import population_weights
from repro.meos.temporal import Interp


class TestScaleParams:
    """The paper's vehicle/day counts must reproduce exactly."""

    @pytest.mark.parametrize(
        "sf,vehicles",
        [(0.001, 63), (0.002, 89), (0.005, 141), (0.01, 200),
         (0.02, 283), (0.05, 447), (0.1, 632)],
    )
    def test_vehicle_counts_match_paper(self, sf, vehicles):
        assert ScaleParams.for_scale(sf).vehicles == vehicles

    @pytest.mark.parametrize(
        "sf,days", [(0.01, 5), (0.02, 6), (0.05, 8), (0.1, 11)]
    )
    def test_day_counts_match_paper_table2(self, sf, days):
        assert ScaleParams.for_scale(sf).days == days


class TestDistricts:
    def test_twelve_districts(self):
        districts = make_districts()
        assert len(districts) == 12
        names = {d.name for d in districts}
        assert "Hai Ba Trung" in names
        assert "Hoan Kiem" in names

    def test_polygons_valid(self):
        for d in make_districts():
            assert d.geom.area() > 1e6  # at least 1 km^2
            assert geo.point_in_polygon(
                (d.center.x, d.center.y), d.geom
            )

    def test_population_weights_normalized(self):
        weights = population_weights(make_districts())
        assert sum(weights) == pytest.approx(1.0)

    def test_deterministic(self):
        assert make_districts(1) == make_districts(1)


class TestNetwork:
    def test_connected(self):
        net = make_network(make_districts())
        assert len(net.graph.components()) == 1

    def test_road_categories_present(self):
        net = make_network(make_districts())
        categories = {
            data["category"]
            for _, _, data in _edges(net.graph)
        }
        assert categories == {"sidestreet", "mainstreet", "freeway"}

    def test_edge_weights_consistent(self):
        net = make_network(make_districts())
        for _, _, data in _edges(net.graph):
            expected = data["length"] / data["speed"]
            assert data["seconds"] == pytest.approx(expected)
            assert data["speed"] == pytest.approx(
                SPEED_KMH[data["category"]] / 3.6
            )

    def test_shortest_path_exists(self):
        net = make_network(make_districts())
        nodes = sorted(net.graph.nodes)
        path = net.shortest_path(nodes[0], nodes[-1])
        assert path is not None
        assert path[0] == nodes[0]
        assert path[-1] == nodes[-1]

    def test_nearest_node(self):
        net = make_network(make_districts())
        node = net.nearest_node(0.0, 0.0)
        x, y = net.node_position(node)
        assert abs(x) < 2000 and abs(y) < 2000


class TestGeneratedDataset:
    @pytest.fixture(scope="class")
    def dataset(self) -> Dataset:
        return generate(0.001)

    def test_vehicle_count(self, dataset):
        assert len(dataset.vehicles) == 63

    def test_trip_count_near_paper(self, dataset):
        # Paper Table 3: 549 trips at SF 0.001; the generator is
        # stochastic but must land within 15%.
        assert 549 * 0.85 <= len(dataset.trips) <= 549 * 1.15

    def test_trips_sorted_instants(self, dataset):
        for trip in dataset.trips[:50]:
            times = trip.trip.timestamps()
            assert times == sorted(times)
            assert trip.trip.interp is Interp.LINEAR

    def test_trip_on_day(self, dataset):
        for trip in dataset.trips[:50]:
            from repro.meos.timetypes import timestamptz_to_datetime

            start = timestamptz_to_datetime(trip.trip.start_timestamp())
            assert start.date() == trip.day

    def test_trajectories_match_trips(self, dataset):
        from repro.meos import trajectory

        for trip in dataset.trips[:20]:
            assert trip.traj == trajectory(trip.trip)

    def test_vehicle_types_mostly_passenger(self, dataset):
        passenger = sum(
            1 for v in dataset.vehicles if v.vehicle_type == "passenger"
        )
        assert passenger / len(dataset.vehicles) > 0.7

    def test_licences_unique(self, dataset):
        licences = [v.licence for v in dataset.vehicles]
        assert len(set(licences)) == len(licences)

    def test_deterministic(self):
        a = generate(0.001, seed=99)
        b = generate(0.001, seed=99)
        assert len(a.trips) == len(b.trips)
        assert a.trips[0].trip == b.trips[0].trip

    def test_different_seeds_differ(self):
        a = generate(0.001, seed=1)
        b = generate(0.001, seed=2)
        assert a.trips[0].trip != b.trips[0].trip

    @pytest.mark.parametrize("seed", [129, 153, 274])
    def test_cut_off_rim_node_gets_no_freeway_spoke(self, seed):
        # Grid removals disconnect a rim corner on these seeds; routing its
        # spoke used to raise NetworkXNoPath before the largest component
        # was taken.
        dataset = generate(0.0001, seed=seed)
        assert dataset.trips
        categories = {
            data["category"]
            for _, _, data in _edges(dataset.network.graph)
        }
        assert "freeway" in categories

    def test_benchmark_city_is_unchanged(self):
        # perfbench loads generate(0.0002, 4711); skipping unreachable
        # rim nodes must not move a byte of it (digest taken before the
        # fix).
        assert _city_digest(generate(0.0002, seed=4711)) == (
            "d2efcc0aec947ac9413427b8845abbb990c83ddf"
        )

    @pytest.mark.parametrize("sf,seed", [(0.0002, 4711), (0.0001, 129),
                                         (0.0005, 7)])
    def test_city_is_the_networkx_routed_one(self, monkeypatch, sf, seed):
        """The adjacency-dict graph lays out, splits and routes the city
        exactly as networkx does."""
        nx = pytest.importorskip("networkx")

        class NxGraph(network.Graph):
            def _nx(self):
                if not hasattr(self, "_mirror"):
                    self._mirror = nx.Graph()
                    self._mirror.add_nodes_from(self.nodes.items())
                    self._mirror.add_edges_from(
                        (a, b, d) for a, out in self.adj.items()
                        for b, d in out.items())
                return self._mirror

            def shortest_path(self, source, target, weight):
                try:
                    return nx.shortest_path(self._nx(), source, target,
                                            weight=weight)
                except nx.NetworkXNoPath:
                    return None

            def components(self):
                return list(nx.connected_components(self._nx()))

            def subgraph(self, keep):
                # networkx's order, this graph's (upgraded) attributes
                copy = self._nx().subgraph(keep).copy()
                out = NxGraph()
                for node in copy.nodes:
                    out.add_node(node, **self.nodes[node])
                for a, b in copy.edges:
                    out.add_edge(a, b, **self.adj[a][b])
                return out

        expected = _city_digest(generate(sf, seed=seed))
        monkeypatch.setattr(network, "Graph", NxGraph)
        routed = generate(sf, seed=seed)
        assert isinstance(routed.network.graph, NxGraph)
        assert _city_digest(routed) == expected

    def test_size_grows_with_scale(self, dataset):
        bigger = generate(0.002)
        assert bigger.approx_size_bytes() > dataset.approx_size_bytes()

    def test_speeds_physically_plausible(self, dataset):
        from repro.meos import speed

        for trip in dataset.trips[:30]:
            sp = speed(trip.trip)
            if sp is None:
                continue
            # max road speed is 70 km/h with a 1.15 perturbation cap
            assert sp.max_value() <= 70 / 3.6 * 1.2 + 1e-6


class TestExports:
    def test_geojson_structure(self):
        from repro.berlinmod import regions_to_geojson, trips_to_geojson

        dataset = generate(0.001)
        trips = trips_to_geojson(dataset)
        assert trips["type"] == "FeatureCollection"
        assert len(trips["features"]) == len(dataset.trips)
        feature = trips["features"][0]
        assert feature["geometry"]["type"] == "LineString"
        assert len(feature["geometry"]["coordinates"][0]) == 4  # x,y,z,t

        regions = regions_to_geojson(dataset)
        assert len(regions["features"]) == 12
        assert regions["features"][0]["properties"]["population"] > 0


def _city_digest(dataset) -> str:
    """Every table of a generated city: the road graph, the vehicles and
    the trips."""
    graph = dataset.network.graph
    digest = hashlib.sha1()
    for node in sorted(graph.nodes):
        digest.update(
            repr((node, sorted(graph.nodes[node].items()))).encode()
        )
    for a, b in sorted(tuple(sorted(edge[:2])) for edge in _edges(graph)):
        digest.update(
            repr((a, b, sorted(graph.adj[a][b].items()))).encode()
        )
    for vehicle in dataset.vehicles:
        digest.update(repr(vehicle).encode())
    for trip in dataset.trips:
        digest.update(repr((
            trip.trip_id, trip.vehicle_id, trip.day, trip.seq_no,
            trip.source_node, trip.target_node, trip.trip.as_text(),
            str(trip.traj),
        )).encode())
    return digest.hexdigest()


def _edges(graph):
    """Each edge once, as ``(a, b, attributes)``."""
    return [(a, b, data) for a, out in graph.adj.items()
            for b, data in out.items() if a < b]
