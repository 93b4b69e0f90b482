"""Plan optimizer: filter pushdown, join ordering, index injection.

The headline rewrites:

* Paper §4.3 — when a filter conjunct has the shape ``column <op>
  constant`` over a base-table scan and an attached index advertises
  support for ``<op>`` on that column, the sequential scan is replaced by
  an index scan (the predicate is kept as a recheck filter, which is
  exact and cheap).
* Cost-based join ordering — the leaves of a flattened tree of comma
  joins and explicit ``INNER JOIN … ON`` clauses (whose ON conjuncts
  join the WHERE conjuncts, so both spellings plan alike) are ordered by
  dynamic programming over estimated cardinalities (up to
  :data:`DP_MAX_RELATIONS` leaves; greedy pairwise merging beyond), from
  the tables' statistics (:mod:`repro.quack.stats`, which the connection
  keeps fresh for every table :func:`join_tables` names), and each join
  picks hash vs index-nested-loop vs nested-loop by estimated cost
  instead of by rule.  A leaf that is no table (a CTE scan, a derived
  table, a table function, a LEFT JOIN) counts as a relation of its
  optimizer estimate, or of :data:`~repro.quack.stats.DEFAULT_LEAF_ROWS`
  without one.  LEFT JOINs keep their written order.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable

from ..analysis.config import verification_enabled
from ..observability import count as _count
from .binder import _NOT_CONSTANT, fold_constant
from .plan import (
    BoundCase,
    BoundCast,
    BoundColumnRef,
    BoundConjunction,
    BoundConstant,
    BoundExpr,
    BoundFunction,
    BoundInList,
    BoundIsNull,
    BoundNot,
    BoundParameterRef,
    BoundSubqueryExpr,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalIndexScan,
    LogicalJoin,
    LogicalLimit,
    LogicalMaterializedCTE,
    LogicalOperator,
    LogicalProject,
    LogicalSetOp,
    LogicalSort,
    PrunePredicate,
    cost_class,
    split_conjuncts,
)
from . import stats as table_stats
from . import storage

#: Exhaustive DP join enumeration up to this many relations; greedy
#: pairwise merging beyond (3^n subset partitions grow too fast).
DP_MAX_RELATIONS = 8

#: Cost-model weights (unit: row touches).
_HASH_BUILD_FACTOR = 2.0
_CROSS_PENALTY = 10.0


def optimize(plan: LogicalOperator) -> LogicalOperator:
    """Rewrite a bound plan. Idempotent; returns a new tree — the input
    plan is never mutated, so a cached bound plan can be re-optimized.

    The active query's statistics (:mod:`repro.observability`) receive
    per-rule fire counts under ``optimizer.rule.<name>`` and cost-based
    planning counters under ``optimizer.cbo.<name>``.  Every inner join,
    comma or explicit, goes through the one cost-based search.  The
    optimizer reads ``Table.stats`` and never gathers them (a table
    without any plans from its row count alone).  Scans of a table type
    that keeps zone maps get row-group prune predicates.
    The required-columns rule (:mod:`repro.quack.prune`) runs last.
    Under verification mode every filter rewrite is snapshot-checked
    (schema stability, predicate preservation, index-injection validity),
    the column pruning is checked against its certificate, and a
    violation names the optimizer rule that fired."""
    from .prune import prune_columns

    verifier = None
    if verification_enabled():
        from ..analysis.verifier import RewriteVerifier

        verifier = RewriteVerifier()
    optimizer = _Optimizer(verifier)
    return prune_columns(optimizer.rewrite(plan), verifier, optimizer._fire)


def join_tables(plan: LogicalOperator) -> list:
    """The tables whose statistics cost-based planning of ``plan`` reads:
    the scanned leaves of every join tree the search orders, each once."""
    tables: dict[int, Any] = {}

    def visit(op: LogicalOperator) -> None:
        for leaf in _planned_leaves(op):
            if isinstance(leaf, LogicalGet):
                tables.setdefault(id(leaf.table), leaf.table)
        for child in op.children():
            visit(child)

    visit(plan)
    return list(tables.values())


def _planned_leaves(op: LogicalOperator) -> list[LogicalOperator]:
    """The leaves the join search orders at ``op``: those of a filter over
    a join tree, or of a join tree with an ON condition; none elsewhere
    (a bare cross product keeps its FROM order)."""
    if isinstance(op, LogicalFilter):
        leaves, _ = _flatten(op.child)
        return leaves if len(leaves) > 1 else []
    leaves, on = _flatten(op)
    return leaves if on else []


def _flatten(
    op: LogicalOperator,
) -> tuple[list[LogicalOperator], list[BoundExpr]]:
    """Flatten a tree of cross and inner joins into its leaves and the
    inner joins' ON conjuncts, rebased to the leaves' flat column space;
    any other operator is a single leaf."""
    if isinstance(op, LogicalJoin) and op.join_type in ("cross", "inner") and (
        not op.equi_keys and op.index_probe is None and op.columns is None
    ):
        left_leaves, left_on = _flatten(op.left)
        right_leaves, right_on = _flatten(op.right)
        width = len(op.left.output_types())
        on = left_on + [_rebase(conj, width) for conj in right_on]
        if op.residual is not None:
            on.extend(split_conjuncts(op.residual))
        return left_leaves + right_leaves, on
    return [op], []


def _shallow(node):
    """A shallow copy of a plan node (``copy.copy`` without its reduce
    protocol: plan nodes are plain dataclasses)."""
    clone = object.__new__(type(node))
    clone.__dict__.update(node.__dict__)
    return clone


def _with(op: LogicalOperator, **fields) -> LogicalOperator:
    """Shallow-copy ``op`` with ``fields`` replaced (copy-on-write)."""
    clone = _shallow(op)
    clone.__dict__.update(fields)
    return clone


def _count_cbo(name: str) -> None:
    _count(f"optimizer.cbo.{name}")


class _Optimizer:
    def __init__(self, verifier=None):
        self._verifier = verifier

    def _fire(self, rule: str, n: int = 1) -> None:
        if self._verifier is not None:
            self._verifier.note_fire(rule)
        _count(f"optimizer.rule.{rule}", n)

    def _ranked(
        self,
        conjuncts: list[BoundExpr],
        selectivity: Callable[[BoundExpr], float] | None = None,
    ) -> BoundExpr:
        """The AND of ``conjuncts`` in evaluation order.  The executor
        narrows a chunk after every conjunct, so cheap ones go first: a
        stable sort by :func:`~repro.quack.plan.cost_class`, then — when
        statistics can say — most selective first.  Per-row Python
        (class 2 and up) can raise on bad payloads, and a query may guard
        it with a conjunct of the same class written in front of it
        (``s <> 'abc' AND CAST(s AS INTEGER) > 1``), so those keep their
        written order: statistics never move a guard behind what it
        protects."""
        def rank(conj: BoundExpr) -> tuple[int, float]:
            cls = cost_class(conj)
            if cls >= 2 or selectivity is None:
                return cls, 0.0
            return cls, selectivity(conj)

        ranked = sorted(conjuncts, key=rank)
        if any(a is not b for a, b in zip(ranked, conjuncts)):
            self._fire("conjunct_rank")
        return _combine(ranked)

    def _leaf_estimator(
        self, leaf: LogicalOperator
    ) -> Callable[[BoundExpr], float] | None:
        """Conjunct selectivity against a base table's ANALYZE statistics
        (None without them)."""
        table = getattr(leaf, "table", None)
        statistics = getattr(table, "stats", None)
        if statistics is None:
            return None
        return lambda conj: _estimate_conjunct(conj, statistics.column)

    def rewrite(self, op: LogicalOperator) -> LogicalOperator:
        if isinstance(op, LogicalFilter) or _planned_leaves(op):
            return self._rewrite_filter(op)
        if isinstance(op, LogicalJoin):
            return _with(
                op,
                left=self.rewrite(op.left),
                right=self.rewrite(op.right),
            )
        if isinstance(op, LogicalProject):
            return _with(op, child=self.rewrite(op.child))
        if isinstance(op, (LogicalSort, LogicalLimit, LogicalDistinct,
                           LogicalAggregate)):
            return _with(op, child=self.rewrite(op.child))
        if isinstance(op, LogicalSetOp):
            return _with(
                op,
                left=self.rewrite(op.left),
                right=self.rewrite(op.right),
            )
        if isinstance(op, LogicalMaterializedCTE):
            return _with(
                op,
                ctes=[
                    (cte_id, name, self.rewrite(plan))
                    for cte_id, name, plan in op.ctes
                ],
                child=self.rewrite(op.child),
            )
        return op

    # -- filter over a join tree -------------------------------------------------

    def _rewrite_filter(self, op: LogicalOperator) -> LogicalOperator:
        """Plan a filter, or a join tree with ON conditions, over the
        leaves of the join tree below it."""
        if self._verifier is None:
            return self._rewrite_filter_inner(op)
        snapshot = self._verifier.snapshot_filter(op)
        mark = len(self._verifier.fired)
        result = self._rewrite_filter_inner(op)
        self._verifier.check_filter_rewrite(
            snapshot, result, self._verifier.fired[mark:]
        )
        _count("verify.rules_checked")
        return result

    def _rewrite_filter_inner(self, op: LogicalOperator) -> LogicalOperator:
        if isinstance(op, LogicalFilter):
            leaves, conjuncts = _flatten(op.child)
            conjuncts += split_conjuncts(op.condition)
        else:
            leaves, conjuncts = _flatten(op)
        if len(leaves) == 1:
            child = self.rewrite(leaves[0])
            child, remaining = self._try_push_into_leaf(child, conjuncts)
            if not remaining:
                return child
            return LogicalFilter(
                self._ranked(remaining, self._leaf_estimator(child)), child
            )

        # Leaf offsets in the flat column space.
        offsets: list[int] = []
        total = 0
        for leaf in leaves:
            offsets.append(total)
            total += len(leaf.output_types())

        # Classify conjuncts: single-leaf ones push down (rebased to
        # the leaf's own space); multi-leaf ones become join predicates;
        # column-free ones stay above the whole join tree.
        per_leaf: list[list[BoundExpr]] = [[] for _ in leaves]
        multi: list[tuple[BoundExpr, tuple[int, ...]]] = []
        top_level: list[BoundExpr] = []
        for conj in conjuncts:
            used = conj.columns_used()
            if not used:
                top_level.append(conj)
                continue
            touched = sorted(
                {self._leaf_of(index, offsets, leaves) for index in used}
            )
            if len(touched) == 1:
                self._fire("filter_pushdown")
                per_leaf[touched[0]].append(
                    _rebase(conj, -offsets[touched[0]])
                )
            else:
                multi.append((conj, tuple(touched)))

        # Rebuild: optimize each leaf with its own filters + index injection.
        stats_per_leaf: list[table_stats.TableStats] = []
        new_leaves: list[LogicalOperator] = []
        for leaf, filters in zip(leaves, per_leaf):
            leaf = self.rewrite(leaf)
            stats_per_leaf.append(_leaf_stats(leaf))
            leaf, remaining = self._try_push_into_leaf(leaf, filters)
            if remaining:
                leaf = LogicalFilter(
                    self._ranked(remaining, self._leaf_estimator(leaf)),
                    leaf,
                )
            new_leaves.append(leaf)

        return self._cbo_plan(
            leaves, stats_per_leaf, new_leaves, offsets, per_leaf, multi,
            top_level,
        )

    @staticmethod
    def _leaf_of(index: int, offsets: list[int],
                 leaves: list[LogicalOperator]) -> int:
        for i in range(len(offsets) - 1, -1, -1):
            if index >= offsets[i]:
                return i
        return 0

    # -- cost-based join ordering ------------------------------------------------

    def _cbo_plan(
        self,
        leaves: list[LogicalOperator],
        stats_per_leaf: list[table_stats.TableStats],
        new_leaves: list[LogicalOperator],
        offsets: list[int],
        per_leaf: list[list[BoundExpr]],
        multi: list[tuple[BoundExpr, tuple[int, ...]]],
        top_level: list[BoundExpr],
    ) -> LogicalOperator:
        """Join-order search over the flattened leaves."""
        n = len(leaves)
        widths = [len(leaf.output_types()) for leaf in leaves]

        def column_stats_at(flat: int) -> table_stats.ColumnStats | None:
            li = self._leaf_of(flat, offsets, leaves)
            return stats_per_leaf[li].column(flat - offsets[li])

        # Estimated leaf cardinalities after pushed filters.
        leaf_rows: list[float] = []
        for i, leaf_statistics in enumerate(stats_per_leaf):
            rows = float(max(leaf_statistics.row_count, 1))
            rows *= _estimate_and(per_leaf[i], leaf_statistics.column)
            leaf_rows.append(max(rows, 1.0))

        edges = [
            _JoinEdge.build(conj, touched, offsets, column_stats_at,
                            new_leaves)
            for conj, touched in multi
        ]

        searcher = _JoinSearch(n, widths, leaf_rows, edges)
        if n <= DP_MAX_RELATIONS:
            tree = searcher.dynamic_programming()
            _count_cbo("dp_plans")
        else:
            tree = searcher.greedy()
            _count_cbo("greedy_plans")
        _count_cbo("planned")
        self._fire("cbo_join_order")

        plan = self._build_cbo_tree(
            tree, searcher, leaves, new_leaves, offsets, widths
        )
        if top_level:
            plan = LogicalFilter(self._ranked(top_level), plan)
        return plan

    def _build_cbo_tree(
        self,
        tree,
        searcher: "_JoinSearch",
        leaves: list[LogicalOperator],
        new_leaves: list[LogicalOperator],
        offsets: list[int],
        widths: list[int],
    ) -> LogicalOperator:
        """Materialize the winning abstract join tree as operators."""
        order = _flatten_tree(tree)
        new_offsets: dict[int, int] = {}
        position = 0
        for leaf_index in order:
            new_offsets[leaf_index] = position
            position += widths[leaf_index]
        total = position
        old_to_new: dict[int, int] = {}
        for leaf_index in range(len(leaves)):
            for k in range(widths[leaf_index]):
                old_to_new[offsets[leaf_index] + k] = (
                    new_offsets[leaf_index] + k
                )

        pending = list(searcher.edges)

        def build(node) -> tuple[LogicalOperator, int, int, int]:
            """Returns (operator, leaf mask, start offset, width)."""
            if isinstance(node, int):
                leaf_op = copy.copy(new_leaves[node])
                leaf_op.estimated_rows = int(
                    round(searcher.leaf_rows[node])
                )
                return (leaf_op, 1 << node, new_offsets[node],
                        widths[node])
            left_tree, right_tree, method = node
            left_op, lmask, lstart, lwidth = build(left_tree)
            right_op, rmask, rstart, rwidth = build(right_tree)
            node_mask = lmask | rmask
            node_start = min(lstart, rstart)
            crossing: list[BoundExpr] = []
            selectivity: dict[int, float] = {}
            for edge in list(pending):
                if (edge.mask & lmask and edge.mask & rmask
                        and not edge.mask & ~node_mask):
                    pending.remove(edge)
                    crossing.append(_remap(
                        edge.conj,
                        lambda old: old_to_new[old] - node_start,
                    ))
                    selectivity[id(crossing[-1])] = edge.selectivity
            boundary = lwidth
            equi_keys: list[tuple[BoundExpr, BoundExpr]] = []
            residuals: list[BoundExpr] = []
            index_probe = None
            if method == "inl":
                index_probe = _match_join_index(
                    crossing, boundary, right_op
                )
            if index_probe is not None:
                self._fire("index_nl_join")
                _count_cbo("index_nl_joins")
                residuals = crossing
            else:
                for conj in crossing:
                    pair = _extract_equi_key(conj, boundary)
                    if pair is not None:
                        self._fire("hash_join_extraction")
                        left_key, right_key = pair
                        equi_keys.append(
                            (left_key, _rebase(right_key, -boundary))
                        )
                    else:
                        residuals.append(conj)
                if equi_keys:
                    _count_cbo("hash_joins")
                elif residuals:
                    _count_cbo("nl_joins")
                else:
                    _count_cbo("cross_joins")
            join_type = "inner" if (equi_keys or residuals) else "cross"
            join = LogicalJoin(
                left_op,
                right_op,
                join_type,
                equi_keys=equi_keys,
                residual=self._ranked(
                    residuals, lambda conj: selectivity[id(conj)]
                ) if residuals else None,
                index_probe=index_probe,
            )
            join.estimated_rows = int(round(searcher.rows_of(node_mask)))
            return join, node_mask, node_start, lwidth + rwidth

        root, _, _, _ = build(tree)
        if order != sorted(order):
            _count_cbo("reordered")
            types: list = []
            names: list[str] = []
            for leaf in leaves:
                types.extend(leaf.output_types())
                names.extend(leaf.output_names())
            exprs = [
                BoundColumnRef(old_to_new[old], types[old], names[old])
                for old in range(total)
            ]
            root = LogicalProject(exprs, names, root)
        return root

    # -- index injection (paper §4.3) ------------------------------------------------

    def _try_push_into_leaf(
        self, leaf: LogicalOperator, filters: list[BoundExpr]
    ) -> tuple[LogicalOperator, list[BoundExpr]]:
        if not isinstance(leaf, LogicalGet):
            return leaf, filters
        if leaf.table.indexes:
            for conj in filters:
                probe = _match_index_predicate(conj)
                if probe is None:
                    continue
                column_index, op_name, constant = probe
                column_name = leaf.table.column_names[column_index]
                for index in leaf.table.indexes:
                    if index.matches(op_name, column_name, constant):
                        self._fire("index_scan_injection")
                        scan = LogicalIndexScan(
                            leaf.table, index, op_name, constant,
                            columns=leaf.columns,
                        )
                        # Keep every conjunct (including the matched one)
                        # as a recheck filter: exact and cheap on the
                        # candidate set.
                        return scan, filters
        prune = self._prune_predicates(leaf.table, filters)
        if prune:
            self._fire("zone_map_pushdown")
            # Advisory only: the full conjunction stays above the scan as
            # the exact recheck, so the RewriteVerifier's predicate
            # multiset is untouched.
            leaf = _with(leaf, prune=tuple(prune))
        return leaf, filters

    def _prune_predicates(self, table, filters: list[BoundExpr]) -> list:
        """Conjuncts in ``col <op> const`` shape whose operator the
        zone maps can reason about (comparisons, BETWEEN halves, box
        overlap/containment, the eIntersects bbox prefilter); none on a
        table type that keeps no zone maps (pgsim's heap)."""
        if not hasattr(table, "zone_maps"):
            return []
        out = []
        for conj in filters:
            parts = _comparison_parts(conj) or _match_index_predicate(conj)
            if parts is None:
                continue
            column_index, op_name, constant = parts
            key = op_name if op_name in _COMPARISON_FLIP else op_name.lower()
            if key not in storage.PRUNABLE_OPS:
                continue
            out.append(PrunePredicate(
                column=column_index,
                op_name=op_name,
                constant=constant,
                expr=conj,
            ))
        return out


def _leaf_stats(leaf: LogicalOperator) -> table_stats.TableStats:
    """The statistics a join leaf plans from: a table's ANALYZE ones (its
    row count alone without them); any other leaf is a relation of its
    optimizer estimate, or of the fixed default, without columns."""
    if isinstance(leaf, LogicalGet):
        return leaf.table.stats or table_stats.TableStats(
            leaf.table.name, leaf.table.num_rows(), []
        )
    rows = leaf.estimated_rows
    if rows is None:
        rows = table_stats.DEFAULT_LEAF_ROWS
    return table_stats.TableStats(type(leaf).__name__, rows, [])


# ---------------------------------------------------------------------------
# Join-order search (DP + greedy) over estimated cardinalities
# ---------------------------------------------------------------------------


class _JoinEdge:
    """One multi-leaf conjunct with its selectivity and physical options."""

    __slots__ = ("conj", "mask", "selectivity", "equi_sides",
                 "probe_candidates")

    def __init__(self, conj, mask, selectivity, equi_sides,
                 probe_candidates):
        self.conj = conj
        self.mask = mask
        self.selectivity = selectivity
        #: for ``a = b`` conjuncts: the leaf masks of the two operand
        #: sides (hash-joinable when they fall on opposite subtrees)
        self.equi_sides = equi_sides
        #: ``(right_leaf, other_side_mask)`` pairs: an index on
        #: ``right_leaf`` can serve this conjunct when the other operand
        #: is fully available on the probe side
        self.probe_candidates = probe_candidates

    @staticmethod
    def build(conj, touched, offsets, column_stats_at, new_leaves):
        mask = 0
        for leaf_index in touched:
            mask |= 1 << leaf_index
        selectivity = _estimate_conjunct(conj, column_stats_at)

        def leaf_mask(expr: BoundExpr) -> int:
            out = 0
            for flat in expr.columns_used():
                out |= 1 << _Optimizer._leaf_of(flat, offsets, new_leaves)
            return out

        equi_sides = None
        if (isinstance(conj, BoundFunction) and conj.name == "="
                and len(conj.args) == 2):
            a, b = conj.args
            if (a.columns_used() and b.columns_used()
                    and _subquery_free(a) and _subquery_free(b)):
                side_a, side_b = leaf_mask(a), leaf_mask(b)
                if not side_a & side_b:
                    equi_sides = (side_a, side_b)

        probe_candidates = []
        if (isinstance(conj, BoundFunction)
                and conj.name in _JOIN_INDEX_OPS
                and len(conj.args) == 2):
            for own, other in ((conj.args[0], conj.args[1]),
                               (conj.args[1], conj.args[0])):
                if not isinstance(own, BoundColumnRef):
                    continue
                leaf_index = _Optimizer._leaf_of(
                    own.index, offsets, new_leaves
                )
                leaf = new_leaves[leaf_index]
                if not isinstance(leaf, LogicalGet):
                    continue
                other_cols = other.columns_used()
                if not other_cols or not _subquery_free(other):
                    continue
                other_mask = leaf_mask(other)
                if other_mask & (1 << leaf_index):
                    continue
                column_name = leaf.table.column_names[
                    own.index - offsets[leaf_index]
                ]
                if any(
                    index.matches(conj.name, column_name, None)
                    for index in leaf.table.indexes
                ):
                    probe_candidates.append((leaf_index, other_mask))
        return _JoinEdge(conj, mask, selectivity, equi_sides,
                         probe_candidates)


class _JoinSearch:
    """Cardinality-driven join-order enumeration.

    Trees are nested ``(left, right, method)`` tuples over leaf indices;
    ``method`` is the cost model's physical pick (``hash`` / ``inl`` /
    ``nl`` / ``cross``) — construction re-validates it and falls back
    gracefully when the shape no longer matches."""

    def __init__(self, n: int, widths: list[int],
                 leaf_rows: list[float], edges: list[_JoinEdge]):
        self.n = n
        self.widths = widths
        self.leaf_rows = leaf_rows
        self.edges = edges
        self._rows_cache: dict[int, float] = {}

    def rows_of(self, mask: int) -> float:
        cached = self._rows_cache.get(mask)
        if cached is not None:
            return cached
        rows = 1.0
        for i in range(self.n):
            if mask & (1 << i):
                rows *= self.leaf_rows[i]
        for edge in self.edges:
            if not edge.mask & ~mask:
                rows *= edge.selectivity
        rows = max(rows, 1.0)
        self._rows_cache[mask] = rows
        return rows

    def join_cost(self, lm: int, rm: int) -> tuple[float, str]:
        """Cost and physical method of joining subtrees ``lm`` ⨝ ``rm``
        (the right side is always the build/inner side downstream)."""
        out = self.rows_of(lm | rm)
        rows_left = self.rows_of(lm)
        rows_right = self.rows_of(rm)
        both = lm | rm
        hash_possible = False
        inl_possible = False
        crossing = False
        for edge in self.edges:
            if edge.mask & ~both or not (edge.mask & lm and edge.mask & rm):
                continue
            crossing = True
            if edge.equi_sides is not None:
                side_a, side_b = edge.equi_sides
                if ((not side_a & ~lm and not side_b & ~rm)
                        or (not side_a & ~rm and not side_b & ~lm)):
                    hash_possible = True
            for leaf_index, other_mask in edge.probe_candidates:
                if rm == (1 << leaf_index) and not other_mask & ~lm:
                    inl_possible = True
        best_cost = rows_left * rows_right + out
        method = "nl" if crossing else "cross"
        if not crossing:
            best_cost = _CROSS_PENALTY * rows_left * rows_right + out
        if hash_possible:
            cost = (rows_left + _HASH_BUILD_FACTOR * rows_right + out)
            if cost < best_cost:
                best_cost, method = cost, "hash"
        if inl_possible:
            cost = rows_left * (1.0 + math.log2(1.0 + rows_right)) + out
            if cost < best_cost:
                best_cost, method = cost, "inl"
        return best_cost, method

    def joined(self, lm: int, rm: int) -> bool:
        """Whether a predicate joins subtrees ``lm`` and ``rm``."""
        both = lm | rm
        return any(not edge.mask & ~both and edge.mask & lm
                   and edge.mask & rm for edge in self.edges)

    def dynamic_programming(self):
        """The cheapest tree over all leaves.  Only subtrees a predicate
        joins are paired, so no cross product is planned while the join
        graph is connected; a disconnected one prices every split."""
        return self._cheapest(connected=True) or self._cheapest(
            connected=False
        )

    def _cheapest(self, connected: bool):
        best: dict[int, tuple[float, Any]] = {}
        for i in range(self.n):
            best[1 << i] = (0.0, i)
        full = (1 << self.n) - 1
        masks = sorted(range(1, full + 1), key=_popcount)
        for mask in masks:
            if _popcount(mask) < 2:
                continue
            winner: tuple[float, Any] | None = None
            sub = (mask - 1) & mask
            while sub:
                rem = mask ^ sub
                if (sub in best and rem in best
                        and (not connected or self.joined(sub, rem))):
                    cost_left, tree_left = best[sub]
                    cost_right, tree_right = best[rem]
                    join_cost, method = self.join_cost(sub, rem)
                    total = cost_left + cost_right + join_cost
                    if winner is None or total < winner[0]:
                        winner = (total, (tree_left, tree_right, method))
                sub = (sub - 1) & mask
            if winner is not None:
                best[mask] = winner
        found = best.get(full)
        return None if found is None else found[1]

    def greedy(self):
        components: list[tuple[int, Any]] = [
            (1 << i, i) for i in range(self.n)
        ]
        while len(components) > 1:
            winner = None
            for li, (lmask, ltree) in enumerate(components):
                for ri, (rmask, rtree) in enumerate(components):
                    if li == ri:
                        continue
                    cost, method = self.join_cost(lmask, rmask)
                    if winner is None or cost < winner[0]:
                        winner = (cost, li, ri, method)
            _, li, ri, method = winner
            lmask, ltree = components[li]
            rmask, rtree = components[ri]
            merged = (lmask | rmask, (ltree, rtree, method))
            components = [
                c for i, c in enumerate(components) if i not in (li, ri)
            ]
            components.append(merged)
        return components[0][1]


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _flatten_tree(tree) -> list[int]:
    if isinstance(tree, int):
        return [tree]
    left, right, _ = tree
    return _flatten_tree(left) + _flatten_tree(right)


# ---------------------------------------------------------------------------
# Predicate selectivity over bound expressions
# ---------------------------------------------------------------------------

_COMPARISON_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                    "=": "=", "!=": "!=", "<>": "<>"}
_LOWER_BOUND_OPS = (">", ">=")
_UPPER_BOUND_OPS = ("<", "<=")

_StatsResolver = Callable[[int], "table_stats.ColumnStats | None"]


def _comparison_parts(
    conj: BoundExpr,
) -> tuple[int, str, Any] | None:
    """Match ``col <op> constant`` (either operand order; the operator is
    flipped when the column is on the right)."""
    if not isinstance(conj, BoundFunction) or len(conj.args) != 2:
        return None
    op_name = conj.name
    left, right = conj.args
    if isinstance(left, BoundColumnRef):
        constant = fold_constant(right)
        if constant is not _NOT_CONSTANT and constant is not None:
            return (left.index, op_name, constant)
    if isinstance(right, BoundColumnRef) and op_name in _COMPARISON_FLIP:
        constant = fold_constant(left)
        if constant is not _NOT_CONSTANT and constant is not None:
            return (right.index, _COMPARISON_FLIP[op_name], constant)
    return None


def _estimate_conjunct(conj: BoundExpr,
                       resolver: _StatsResolver) -> float:
    """Estimated selectivity of one predicate against column statistics
    resolved by ``resolver`` (flat column index → ColumnStats)."""
    if isinstance(conj, BoundConjunction):
        if conj.op == "AND":
            return _estimate_and(split_conjuncts(conj), resolver)
        miss = 1.0
        for arg in conj.args:
            miss *= 1.0 - _estimate_conjunct(arg, resolver)
        return table_stats.clamp01(1.0 - miss)
    if isinstance(conj, BoundNot):
        return table_stats.clamp01(
            1.0 - _estimate_conjunct(conj.child, resolver)
        )
    if isinstance(conj, BoundIsNull):
        fraction = 0.05
        if isinstance(conj.child, BoundColumnRef):
            stats = resolver(conj.child.index)
            if stats is not None and stats.row_count > 0:
                fraction = stats.null_fraction()
        return table_stats.clamp01(
            1.0 - fraction if conj.negated else fraction
        )
    if isinstance(conj, BoundInList):
        if isinstance(conj.operand, BoundColumnRef):
            stats = resolver(conj.operand.index)
            one = table_stats.comparison_selectivity(stats, "=", None)
            selectivity = len(conj.items) * one
        else:
            selectivity = (
                len(conj.items) * table_stats.DEFAULT_EQ_SELECTIVITY
            )
        if conj.negated:
            selectivity = 1.0 - selectivity
        return table_stats.clamp01(selectivity)
    if isinstance(conj, BoundFunction) and len(conj.args) == 2:
        name = conj.name
        a, b = conj.args
        if (name == "=" and isinstance(a, BoundColumnRef)
                and isinstance(b, BoundColumnRef)):
            return table_stats.equi_join_selectivity(
                resolver(a.index), resolver(b.index)
            )
        if name == "&&":
            a_column, b_column = _box_column(a), _box_column(b)
            if a_column is not None and b_column is not None:
                return table_stats.overlap_join_selectivity(
                    resolver(a_column), resolver(b_column)
                )
        parts = _comparison_parts(conj)
        if parts is not None:
            index, op_name, constant = parts
            stats = resolver(index)
            if op_name in ("=", "!=", "<>", "<", "<=", ">", ">="):
                return table_stats.comparison_selectivity(
                    stats, op_name, constant
                )
            if op_name in ("&&", "eintersects", "aintersects"):
                return table_stats.overlap_selectivity(stats, constant)
            if op_name == "@>":
                return table_stats.containment_selectivity(
                    stats, constant, True
                )
            if op_name == "<@":
                return table_stats.containment_selectivity(
                    stats, constant, False
                )
        return table_stats.default_selectivity(name)
    return table_stats.clamp01(
        table_stats.DEFAULT_RESIDUAL_SELECTIVITY
    )


def _box_column(expr: BoundExpr) -> int | None:
    """The one column an operand of ``&&`` boxes: the column itself, or
    the only column under casts and box functions
    (``stbox(p.Geom::WKB_BLOB)``, ``expandSpace(t.Trip::STBOX, 3.0)``),
    whose extents stand in for the operand's."""
    used = expr.columns_used()
    if len(used) != 1 or not _subquery_free(expr):
        return None
    return next(iter(used))


def _estimate_and(conjuncts: list[BoundExpr],
                  resolver: _StatsResolver) -> float:
    """Selectivity of a conjunction; paired lower/upper bounds on the
    same column (the binder lowers ``BETWEEN`` to exactly that) estimate
    through the histogram as one range instead of two independent
    comparisons."""
    bounds: dict[int, dict[str, Any]] = {}
    rest: list[BoundExpr] = []
    for conj in conjuncts:
        parts = _comparison_parts(conj)
        if parts is not None:
            index, op_name, constant = parts
            if op_name in _LOWER_BOUND_OPS:
                bounds.setdefault(index, {})["lo"] = constant
                continue
            if op_name in _UPPER_BOUND_OPS:
                bounds.setdefault(index, {})["hi"] = constant
                continue
        rest.append(conj)
    selectivity = 1.0
    for index, pair in bounds.items():
        stats = resolver(index)
        if "lo" in pair and "hi" in pair:
            selectivity *= table_stats.between_selectivity(
                stats, pair["lo"], pair["hi"]
            )
        elif "lo" in pair:
            selectivity *= table_stats.comparison_selectivity(
                stats, ">=", pair["lo"]
            )
        else:
            selectivity *= table_stats.comparison_selectivity(
                stats, "<=", pair["hi"]
            )
    for conj in rest:
        selectivity *= _estimate_conjunct(conj, resolver)
    return table_stats.clamp01(selectivity)


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------


def _combine(conjuncts: list[BoundExpr]) -> BoundExpr:
    if len(conjuncts) == 1:
        return conjuncts[0]
    from .types import BOOLEAN

    return BoundConjunction("AND", conjuncts, BOOLEAN)


def _transform_columns(
    expr: BoundExpr, transform: Callable[[int], int]
) -> BoundExpr:
    """Rewrite every column index through ``transform`` (returns a copy)."""

    def shift(node: BoundExpr) -> BoundExpr:
        if isinstance(node, BoundColumnRef):
            return BoundColumnRef(
                transform(node.index), node.ltype, node.name
            )
        if isinstance(node, (BoundConstant, BoundParameterRef)):
            return node  # no column below: nothing to rewrite
        clone = _shallow(node)
        if isinstance(node, (BoundFunction, BoundConjunction)):
            clone.args = [shift(a) for a in node.args]
        elif isinstance(node, (BoundCast, BoundIsNull, BoundNot)):
            clone.child = shift(node.child)
        elif isinstance(node, BoundInList):
            clone.operand = shift(node.operand)
            clone.items = [shift(i) for i in node.items]
        elif isinstance(node, BoundCase):
            clone.branches = [
                (shift(c), shift(r)) for c, r in node.branches
            ]
            if node.else_result is not None:
                clone.else_result = shift(node.else_result)
        elif isinstance(node, BoundSubqueryExpr):
            clone.outer_params_exprs = [
                shift(p) for p in node.outer_params_exprs
            ]
            if node.operand is not None:
                clone.operand = shift(node.operand)
        return clone

    return shift(expr)


def _rebase(expr: BoundExpr, delta: int) -> BoundExpr:
    """Shift all column indices by ``delta`` (returns a rewritten copy)."""
    return _transform_columns(expr, lambda index: index + delta)


def _remap(expr: BoundExpr,
           transform: Callable[[int], int]) -> BoundExpr:
    """Rewrite column indices through an arbitrary mapping (join
    reordering: binder-flat space → reordered node-local space)."""
    return _transform_columns(expr, transform)


def _extract_equi_key(
    conj: BoundExpr, boundary: int
) -> tuple[BoundExpr, BoundExpr] | None:
    """If ``conj`` is ``left_expr = right_expr`` with the operands cleanly on
    either side of ``boundary``, return (left-side expr, right-side expr)."""
    if not isinstance(conj, BoundFunction) or conj.name != "=":
        return None
    if len(conj.args) != 2:
        return None
    a, b = conj.args
    cols_a = a.columns_used()
    cols_b = b.columns_used()
    if not cols_a or not cols_b:
        return None
    if _subquery_free(a) is False or _subquery_free(b) is False:
        return None
    if max(cols_a) < boundary and min(cols_b) >= boundary:
        return (a, b)
    if max(cols_b) < boundary and min(cols_a) >= boundary:
        return (b, a)
    return None


def _subquery_free(expr: BoundExpr) -> bool:
    from .plan import BoundSubqueryExpr, _children

    if isinstance(expr, BoundSubqueryExpr):
        return False
    return all(_subquery_free(c) for c in _children(expr))


def _match_index_predicate(
    conj: BoundExpr,
) -> tuple[int, str, Any] | None:
    """Match ``col <op> constant`` (or commuted for symmetric ops)."""
    if not isinstance(conj, BoundFunction) or len(conj.args) != 2:
        return None
    op_name = conj.name
    left, right = conj.args
    column = _as_base_column(left)
    if column is not None:
        constant = fold_constant(right)
        if constant is not _NOT_CONSTANT and constant is not None:
            return (column, op_name, constant)
    if op_name == "&&":  # symmetric: constant && col
        column = _as_base_column(right)
        if column is not None:
            constant = fold_constant(left)
            if constant is not _NOT_CONSTANT and constant is not None:
                return (column, op_name, constant)
    return None


def _as_base_column(expr: BoundExpr) -> int | None:
    if isinstance(expr, BoundColumnRef):
        return expr.index
    return None


_JOIN_INDEX_OPS = ("&&", "@>", "<@")


def _match_join_index(
    residuals: list[BoundExpr], boundary: int, right_leaf
) -> tuple | None:
    """Find a residual of shape ``right_col <op> expr(left)`` (either
    operand order) with an index on the right base table that can serve it
    — the GiST index nested-loop join strategy.  The full residual is kept
    as an exact recheck."""
    if not isinstance(right_leaf, LogicalGet) or not right_leaf.table.indexes:
        return None
    for conj in residuals:
        if not isinstance(conj, BoundFunction) or conj.name not in (
            _JOIN_INDEX_OPS
        ):
            continue
        if len(conj.args) != 2:
            continue
        for right_arg, left_arg in ((conj.args[0], conj.args[1]),
                                    (conj.args[1], conj.args[0])):
            if not isinstance(right_arg, BoundColumnRef):
                continue
            if right_arg.index < boundary:
                continue
            left_cols = left_arg.columns_used()
            if not left_cols or max(left_cols) >= boundary:
                continue
            if not _subquery_free(left_arg):
                continue
            column_name = right_leaf.table.column_names[
                right_arg.index - boundary
            ]
            for index in right_leaf.table.indexes:
                if index.matches(conj.name, column_name, None):
                    return (index, conj.name, left_arg)
    return None
