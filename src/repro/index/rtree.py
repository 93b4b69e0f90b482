"""An N-dimensional R-tree (Guttman insert + STR bulk load).

Stands in for the MEOS R-tree that MobilityDuck's ``TRTREE`` index wraps
(paper §4).  Two construction paths mirror §4.2:

* **incremental** — :meth:`RTree.insert` with quadratic node splitting,
  used when rows are appended to an already-indexed table;
* **bulk** — :meth:`RTree.bulk_load` using Sort-Tile-Recursive packing,
  used when an index is created over existing data.

Rectangles are flat tuples ``(min_0, …, min_{d-1}, max_0, …, max_{d-1})``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..observability import count as _count

Rect = tuple[float, ...]


def rect_union(a: Rect, b: Rect) -> Rect:
    half = len(a) // 2
    return tuple(
        [min(a[i], b[i]) for i in range(half)]
        + [max(a[half + i], b[half + i]) for i in range(half)]
    )


def rect_overlaps(a: Rect, b: Rect) -> bool:
    half = len(a) // 2
    for i in range(half):
        if a[half + i] < b[i] or b[half + i] < a[i]:
            return False
    return True


def rect_contains(outer: Rect, inner: Rect) -> bool:
    half = len(outer) // 2
    for i in range(half):
        if inner[i] < outer[i] or inner[half + i] > outer[half + i]:
            return False
    return True


def rect_volume(a: Rect) -> float:
    half = len(a) // 2
    volume = 1.0
    for i in range(half):
        volume *= max(0.0, a[half + i] - a[i])
    return volume


def _enlargement(node_rect: Rect, entry_rect: Rect) -> float:
    return rect_volume(rect_union(node_rect, entry_rect)) - rect_volume(
        node_rect
    )


class _Node:
    __slots__ = ("leaf", "entries", "rect")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        #: leaf entries: (rect, row_id); inner entries: (rect, child node)
        self.entries: list[tuple[Rect, Any]] = []
        self.rect: Rect | None = None

    def recompute_rect(self) -> None:
        rect = self.entries[0][0]
        for entry_rect, _ in self.entries[1:]:
            rect = rect_union(rect, entry_rect)
        self.rect = rect


class RTree:
    """R-tree over N-dimensional rectangles mapping to opaque row ids."""

    def __init__(self, dimensions: int = 2, max_entries: int = 16):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.dimensions = dimensions
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self._root = _Node(leaf=True)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- incremental construction (paper §4.2.1) ---------------------------------

    def insert(self, rect: Rect, row_id: Any) -> None:
        """Insert one rectangle (MEOS ``rtree_insert``)."""
        self._validate(rect)
        leaf, path = self._choose_leaf(rect)
        leaf.entries.append((rect, row_id))
        self._count += 1
        self._adjust(leaf, path)

    def _validate(self, rect: Rect) -> None:
        if len(rect) != 2 * self.dimensions:
            raise ValueError(
                f"expected {2 * self.dimensions} coordinates, got {len(rect)}"
            )

    def _choose_leaf(self, rect: Rect) -> tuple[_Node, list[_Node]]:
        node = self._root
        path: list[_Node] = []
        while not node.leaf:
            path.append(node)
            best = None
            best_key = None
            for entry_rect, child in node.entries:
                key = (
                    _enlargement(entry_rect, rect),
                    rect_volume(entry_rect),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = child
            node = best
        return node, path

    def _adjust(self, node: _Node, path: list[_Node]) -> None:
        node.recompute_rect()
        split = self._split(node) if len(node.entries) > self.max_entries else None
        for parent in reversed(path):
            for i, (_, child) in enumerate(parent.entries):
                if child is node:
                    parent.entries[i] = (node.rect, node)
                    break
            if split is not None:
                parent.entries.append((split.rect, split))
            parent.recompute_rect()
            if len(parent.entries) > self.max_entries:
                node = parent
                split = self._split(parent)
            else:
                node = parent
                split = None
        if split is not None:
            new_root = _Node(leaf=False)
            new_root.entries = [
                (self._root.rect, self._root),
                (split.rect, split),
            ]
            new_root.recompute_rect()
            self._root = new_root

    def _split(self, node: _Node) -> _Node:
        """Guttman quadratic split; mutates ``node`` and returns its sibling."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = group_a[0][0]
        rect_b = group_b[0][0]
        remaining = [
            e for i, e in enumerate(entries) if i not in (seed_a, seed_b)
        ]
        while remaining:
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            # Pick the entry with the strongest preference.
            best_idx = 0
            best_diff = -1.0
            for i, (rect, _) in enumerate(remaining):
                d_a = _enlargement(rect_a, rect)
                d_b = _enlargement(rect_b, rect)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_diff = diff
                    best_idx = i
            rect, payload = remaining.pop(best_idx)
            d_a = _enlargement(rect_a, rect)
            d_b = _enlargement(rect_b, rect)
            if d_a < d_b or (d_a == d_b and len(group_a) <= len(group_b)):
                group_a.append((rect, payload))
                rect_a = rect_union(rect_a, rect)
            else:
                group_b.append((rect, payload))
                rect_b = rect_union(rect_b, rect)
        node.entries = group_a
        node.recompute_rect()
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        sibling.recompute_rect()
        return sibling

    @staticmethod
    def _pick_seeds(entries: list[tuple[Rect, Any]]) -> tuple[int, int]:
        worst = -1.0
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = rect_union(entries[i][0], entries[j][0])
                waste = (
                    rect_volume(combined)
                    - rect_volume(entries[i][0])
                    - rect_volume(entries[j][0])
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        return seeds

    # -- bulk construction (paper §4.2.2, phase 3) -----------------------------------

    @classmethod
    def bulk_load(
        cls,
        items: Iterable[tuple[Rect, Any]],
        dimensions: int = 2,
        max_entries: int = 16,
    ) -> "RTree":
        """Sort-Tile-Recursive packing of all items at once."""
        tree = cls(dimensions=dimensions, max_entries=max_entries)
        entries = list(items)
        tree._count = len(entries)
        if not entries:
            return tree
        for rect, _ in entries:
            tree._validate(rect)
        leaves = tree._str_pack(entries, leaf=True)
        level = leaves
        while len(level) > 1:
            level = tree._str_pack(
                [(node.rect, node) for node in level], leaf=False
            )
        tree._root = level[0]
        return tree

    def _str_pack(
        self, entries: list[tuple[Rect, Any]], leaf: bool
    ) -> list[_Node]:
        capacity = self.max_entries
        count = len(entries)
        node_count = math.ceil(count / capacity)
        # Sort by center of dim 0, slice, then sort slices by dim 1, etc.
        slices = [sorted(entries, key=lambda e: _center(e[0], 0))]
        for dim in range(1, self.dimensions):
            remaining_dims = self.dimensions - dim
            new_slices: list[list[tuple[Rect, Any]]] = []
            for chunk in slices:
                per_slice = math.ceil(
                    len(chunk)
                    / math.ceil(node_count ** (remaining_dims / self.dimensions))
                ) or len(chunk)
                chunk = sorted(chunk, key=lambda e: _center(e[0], dim))
                for i in range(0, len(chunk), max(per_slice, capacity)):
                    new_slices.append(chunk[i : i + max(per_slice, capacity)])
            slices = new_slices
        nodes: list[_Node] = []
        for chunk in slices:
            for i in range(0, len(chunk), capacity):
                node = _Node(leaf=leaf)
                node.entries = chunk[i : i + capacity]
                node.recompute_rect()
                nodes.append(node)
        return nodes

    # -- search ---------------------------------------------------------------------

    def search(self, rect: Rect) -> list[Any]:
        """Row ids of all entries whose rectangle overlaps ``rect``."""
        self._validate(rect)
        out: list[Any] = []
        if self._root.rect is None:
            self._record_search(0, 0)
            return out
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.rect is not None and not rect_overlaps(node.rect, rect):
                continue
            visited += 1
            for entry_rect, payload in node.entries:
                if not rect_overlaps(entry_rect, rect):
                    continue
                if node.leaf:
                    out.append(payload)
                else:
                    stack.append(payload)
        self._record_search(visited, len(out))
        return out

    def search_batch(self, rects: Sequence[Rect]) -> list[list[Any]]:
        """Overlap search for many query rectangles in one traversal.

        Equivalent to ``[self.search(r) for r in rects]`` but each tree
        node is visited at most once per *batch* of probes still active
        at that node: the query rectangles ride down the tree together
        as NumPy min/max corner arrays and are pruned per entry with a
        single vectorized comparison, which is what makes batched index
        nested-loop probes cheap.
        """
        for rect in rects:
            self._validate(rect)
        out: list[list[Any]] = [[] for _ in rects]
        if not rects or self._root.rect is None:
            self._record_batch_search(len(rects), 0, 0)
            return out
        d = self.dimensions
        corners = np.asarray(rects, dtype=np.float64)
        qmin = corners[:, :d]
        qmax = corners[:, d:]
        visited = 0
        hits = 0
        # Each stack frame pairs a node with the probes whose rectangles
        # overlap every ancestor entry on the way down.
        stack: list[tuple[_Node, np.ndarray]] = [
            (self._root, np.arange(len(rects), dtype=np.int64))
        ]
        while stack:
            node, active = stack.pop()
            visited += 1
            active_min = qmin[active]
            active_max = qmax[active]
            for entry_rect, payload in node.entries:
                entry = np.asarray(entry_rect, dtype=np.float64)
                overlap = np.logical_and(
                    (active_min <= entry[d:]).all(axis=1),
                    (active_max >= entry[:d]).all(axis=1),
                )
                if not overlap.any():
                    continue
                matched = active[overlap]
                if node.leaf:
                    hits += len(matched)
                    for probe in matched:
                        out[probe].append(payload)
                else:
                    stack.append((payload, matched))
        self._record_batch_search(len(rects), visited, hits)
        return out

    @staticmethod
    def _record_batch_search(probes: int, nodes_visited: int,
                             leaf_hits: int) -> None:
        _count("rtree.batch_searches")
        _count("rtree.batch_probes", probes)
        _count("rtree.batch_nodes_visited", nodes_visited)
        _count("rtree.batch_leaf_hits", leaf_hits)

    def search_contained(self, rect: Rect) -> list[Any]:
        """Row ids of entries fully contained in ``rect``."""
        self._validate(rect)
        out: list[Any] = []
        if self._root.rect is None:
            self._record_search(0, 0)
            return out
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.rect is not None and not rect_overlaps(node.rect, rect):
                continue
            visited += 1
            for entry_rect, payload in node.entries:
                if node.leaf:
                    if rect_contains(rect, entry_rect):
                        out.append(payload)
                elif rect_overlaps(entry_rect, rect):
                    stack.append(payload)
        self._record_search(visited, len(out))
        return out

    @staticmethod
    def _record_search(nodes_visited: int, leaf_hits: int) -> None:
        # Counted locally during traversal, flushed once per search so
        # the hot loop stays free of contextvar lookups.
        _count("rtree.searches")
        _count("rtree.nodes_visited", nodes_visited)
        _count("rtree.leaf_hits", leaf_hits)

    def all_items(self) -> Iterator[tuple[Rect, Any]]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry_rect, payload in node.entries:
                if node.leaf:
                    yield (entry_rect, payload)
                else:
                    stack.append(payload)

    def height(self) -> int:
        height = 1
        node = self._root
        while not node.leaf:
            node = node.entries[0][1]
            height += 1
        return height

    def check_invariants(self) -> None:
        """Validate structural invariants (used by property tests)."""
        def visit(node: _Node, depth: int, depths: list[int]) -> None:
            if node is not self._root and not (
                1 <= len(node.entries) <= self.max_entries
            ):
                raise AssertionError("node entry count out of bounds")
            if node.entries:
                expected = node.entries[0][0]
                for entry_rect, _ in node.entries[1:]:
                    expected = rect_union(expected, entry_rect)
                if node.rect != expected:
                    raise AssertionError("stale node rectangle")
            if node.leaf:
                depths.append(depth)
                return
            for entry_rect, child in node.entries:
                if entry_rect != child.rect:
                    raise AssertionError("parent entry rect != child rect")
                visit(child, depth + 1, depths)

        depths: list[int] = []
        visit(self._root, 0, depths)
        if depths and len(set(depths)) != 1:
            raise AssertionError("leaves at different depths")


def _center(rect: Rect, dim: int) -> float:
    half = len(rect) // 2
    return (rect[dim] + rect[half + dim]) / 2.0
