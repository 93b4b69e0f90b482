"""Synthetic routable road network for BerlinMOD-Hanoi (paper §5.1).

The paper builds the network with osm2pgrouting from Hanoi OSM data; this
module synthesizes an equivalent routable topology offline: a jittered
grid of side streets, a sparser main-street overlay, and radial "freeway"
spokes into the centre — the three BerlinMOD road categories with their
speed limits.  Routing is Dijkstra's algorithm over travel time on an
adjacency-dict graph laid out, and searched, as networkx does it, so a
city is the same whichever builds it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field

from .regions import District, SRID, bounding_box

#: BerlinMOD road categories and speed limits (km/h).
SIDE_STREET = "sidestreet"
MAIN_STREET = "mainstreet"
FREEWAY = "freeway"
SPEED_KMH = {SIDE_STREET: 30.0, MAIN_STREET: 50.0, FREEWAY: 70.0}


class Graph:
    """An undirected graph: ``nodes`` maps a node to its attributes and
    ``adj[a][b]`` is the attribute dict edge ``a``-``b`` shares with
    ``adj[b][a]``, both in insertion order."""

    def __init__(self) -> None:
        self.nodes: dict[int, dict] = {}
        self.adj: dict[int, dict[int, dict]] = {}

    def add_node(self, node: int, **attrs) -> None:
        self.nodes.setdefault(node, {}).update(attrs)
        self.adj.setdefault(node, {})

    def add_edge(self, a: int, b: int, **attrs) -> None:
        self.add_node(a)
        self.add_node(b)
        self.adj[a][b] = self.adj[b][a] = {**self.adj[a].get(b, {}), **attrs}

    def components(self) -> list[set[int]]:
        """Connected components by breadth-first search, in node order."""
        found: list[set[int]] = []
        for node in self.nodes:
            if not any(node in c for c in found):
                component, level = {node}, [node]
                while level:
                    level = [b for a in level for b in self.adj[a]
                             if b not in component and not component.add(b)]
                found.append(component)
        return found

    def subgraph(self, keep: set[int]) -> "Graph":
        """A copy of the nodes in ``keep`` and the edges between them, in
        networkx's order (``keep``'s own when under half the nodes)."""
        order = [n for n in keep if n in self.nodes] \
            if 2 * len(keep) < len(self.nodes) \
            else [n for n in self.nodes if n in keep]
        out = Graph()
        for node in order:
            out.add_node(node, **self.nodes[node])
        for a in order:
            for b, data in self.adj[a].items():
                if b in keep:
                    out.add_edge(a, b, **data)
        return out

    def shortest_path(self, source: int, target: int,
                      weight: str) -> list[int] | None:
        """Dijkstra by ``weight``, ties to the first path found (as
        networkx); None when ``target`` is unreachable."""
        done: dict[int, int | None] = {}
        best, tie = {source: 0.0}, itertools.count()
        fringe = [(0.0, next(tie), source, None)]
        while fringe:
            distance, _, node, parent = heapq.heappop(fringe)
            if node in done:
                continue
            done[node] = parent
            if node == target:
                path = [target]
                while done[path[-1]] is not None:
                    path.append(done[path[-1]])
                return path[::-1]
            for other, data in self.adj.get(node, {}).items():
                through = distance + data[weight]
                if other not in done and through < best.get(other, math.inf):
                    best[other] = through
                    heapq.heappush(fringe, (through, next(tie), other, node))
        return None


@dataclass
class RoadNetwork:
    """A routable road graph in planar metres."""

    graph: Graph
    srid: int = SRID
    _node_list: list[int] = field(default_factory=list)

    def __post_init__(self):
        self._node_list = sorted(self.graph.nodes)

    def node_position(self, node: int) -> tuple[float, float]:
        data = self.graph.nodes[node]
        return (data["x"], data["y"])

    def nearest_node(self, x: float, y: float) -> int:
        best = None
        best_d2 = math.inf
        for node in self._node_list:
            data = self.graph.nodes[node]
            d2 = (data["x"] - x) ** 2 + (data["y"] - y) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best = node
        return best

    def shortest_path(self, source: int, target: int) -> list[int] | None:
        """Fastest path (travel-time weighted); None when unreachable."""
        return self.graph.shortest_path(source, target, "seconds")

    def path_edges(self, path: list[int]):
        for a, b in zip(path, path[1:]):
            yield a, b, self.graph.adj[a][b]



def _edge_attrs(category: str, x0, y0, x1, y1) -> dict:
    length = math.hypot(x1 - x0, y1 - y0)
    speed_ms = SPEED_KMH[category] / 3.6
    return {
        "category": category,
        "length": length,
        "speed": speed_ms,
        "seconds": length / speed_ms,
    }


def make_network(
    districts: list[District],
    seed: int = 4711,
    spacing_m: float = 800.0,
) -> RoadNetwork:
    """Build the synthetic Hanoi road network.

    ``spacing_m`` controls grid density; the default yields a network of a
    few hundred nodes — enough route diversity for the benchmark while
    keeping offline generation fast.
    """
    rng = random.Random(seed * 31 + 7)
    xmin, ymin, xmax, ymax = bounding_box(districts)
    graph = Graph()

    cols = int((xmax - xmin) / spacing_m) + 1
    rows = int((ymax - ymin) / spacing_m) + 1

    def node_id(i: int, j: int) -> int:
        return j * cols + i

    # Grid nodes with positional jitter (curved street approximation).
    for j in range(rows):
        for i in range(cols):
            x = xmin + i * spacing_m + rng.uniform(-0.2, 0.2) * spacing_m
            y = ymin + j * spacing_m + rng.uniform(-0.2, 0.2) * spacing_m
            graph.add_node(node_id(i, j), x=x, y=y)

    # Side streets: 4-connected grid with some removals for irregularity.
    for j in range(rows):
        for i in range(cols):
            a = node_id(i, j)
            for di, dj in ((1, 0), (0, 1)):
                ni, nj = i + di, j + dj
                if ni >= cols or nj >= rows:
                    continue
                if rng.random() < 0.06:
                    continue  # missing street segment
                b = node_id(ni, nj)
                ax, ay = graph.nodes[a]["x"], graph.nodes[a]["y"]
                bx, by = graph.nodes[b]["x"], graph.nodes[b]["y"]
                graph.add_edge(a, b, **_edge_attrs(SIDE_STREET, ax, ay,
                                                   bx, by))

    # Main streets: every third row/column upgrades to 50 km/h.
    for j in range(0, rows, 3):
        for i in range(cols - 1):
            a, b = node_id(i, j), node_id(i + 1, j)
            if b in graph.adj[a]:
                _upgrade(graph, a, b, MAIN_STREET)
    for i in range(0, cols, 3):
        for j in range(rows - 1):
            a, b = node_id(i, j), node_id(i, j + 1)
            if b in graph.adj[a]:
                _upgrade(graph, a, b, MAIN_STREET)

    # Freeways: radial spokes from the rim toward the centre node.
    center = min(
        graph.nodes,
        key=lambda n: graph.nodes[n]["x"] ** 2 + graph.nodes[n]["y"] ** 2,
    )
    rim_nodes = [
        node_id(i, j)
        for i, j in (
            (0, 0), (cols - 1, 0), (0, rows - 1), (cols - 1, rows - 1),
            (cols // 2, 0), (cols // 2, rows - 1), (0, rows // 2),
            (cols - 1, rows // 2),
        )
    ]
    for rim in rim_nodes:
        # None: grid removals cut this corner off; it is outside the
        # largest component kept below, so it gets no spoke.
        path = graph.shortest_path(rim, center, "length") or []
        for a, b in zip(path, path[1:]):
            _upgrade(graph, a, b, FREEWAY)

    # Keep the largest connected component (grid removals may split it).
    return RoadNetwork(graph.subgraph(max(graph.components(), key=len)))


def _upgrade(graph: Graph, a: int, b: int, category: str) -> None:
    data = graph.adj[a][b]
    if SPEED_KMH[category] <= SPEED_KMH[data["category"]]:
        return
    speed_ms = SPEED_KMH[category] / 3.6
    data["category"] = category
    data["speed"] = speed_ms
    data["seconds"] = data["length"] / speed_ms
