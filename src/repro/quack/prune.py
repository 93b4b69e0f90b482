"""Required-columns rule: every operator carries only the columns read
above it.

The last rewrite of :func:`repro.quack.optimizer.optimize`.  One
top-down pass hands each operator the set of its output columns its
parent reads; the operator adds what its own expressions read and asks
its children for that.  Operators keep their surviving columns in their
old order and return the map *old output index → new* their parent
rebinds through; the maps are the certificate the verification layer
checks.  DESIGN.md, "Column pruning & late materialisation", has the
rules.
"""

from __future__ import annotations

import dataclasses

from .optimizer import _remap, _with
from .plan import (
    BoundExpr,
    LogicalAggregate,
    LogicalCTERef,
    LogicalFilter,
    LogicalGet,
    LogicalIndexScan,
    LogicalJoin,
    LogicalLimit,
    LogicalMaterializedCTE,
    LogicalOperator,
    LogicalProject,
    LogicalSort,
    cost_class,
    operator_exprs,
    subquery_plans,
)

#: old output index → new output index, for every surviving column
Remap = dict[int, int]


def prune_columns(plan: LogicalOperator, verifier=None,
                  fire=None) -> LogicalOperator:
    """``plan`` with every operator narrowed to the columns read above
    it; the root keeps its schema.  ``fire(rule)`` is called when an
    operator narrowed; ``verifier`` checks the certificate."""
    pruner = _Pruner()
    pruned, _ = pruner.prune(plan, set(range(len(plan.output_types()))))
    if pruner.certificate and fire is not None:
        fire("column_pruning")
    if verifier is not None:
        verifier.check_pruning(plan, pruned, pruner.certificate)
    return pruned


def _identity(width: int) -> Remap:
    return {i: i for i in range(width)}


def _positions(keep) -> Remap:
    return {old: new for new, old in enumerate(keep)}


def _columns(exprs) -> set[int]:
    return set().union(*(expr.columns_used() for expr in exprs))


def _rebind(expr: BoundExpr, remap: Remap) -> BoundExpr:
    """``expr`` over its narrowed input: itself when no column it reads
    moved, else a copy through ``optimizer._remap``."""
    if all(remap[c] == c for c in expr.columns_used()):
        return expr
    return _remap(expr, remap.__getitem__)


def _floor(types) -> int:
    """The column kept when nothing reads one (a chunk's row count is the
    length of its vectors): the first native one, cheap to decode."""
    return next(
        (i for i, t in enumerate(types) if t.physical != "object"), 0
    )


class _Pruner:
    def __init__(self, collecting: bool = False):
        #: a collecting walk only records what each CTE scan reads
        self.collecting = collecting
        #: cte id → the union of the columns its scans read
        self.cte_reads: dict[int, set[int]] = {}
        #: cte id → the map of its narrowed definition
        self.cte_maps: dict[int, Remap] = {}
        #: id(narrowed operator) → its map; unchanged operators come back
        #: as they are, with an identity map
        self.certificate: dict[int, Remap] = {}

    def prune(self, op: LogicalOperator,
              required: set[int]) -> tuple[LogicalOperator, Remap]:
        if self.collecting:
            # Builds nothing: what reaches each CTE scan is all it needs.
            _read_subquery_ctes(op, self.cte_reads)
            if isinstance(op, (LogicalGet, LogicalIndexScan)):
                return op, {}
        if isinstance(op, (LogicalGet, LogicalIndexScan)):
            new, remap = self._scan(op, required)
        elif isinstance(op, LogicalCTERef):
            new, remap = self._cte_ref(op, required)
        elif isinstance(op, LogicalProject):
            new, remap = self._project(op, required)
        elif isinstance(op, LogicalJoin):
            new, remap = self._join(op, required)
        elif isinstance(op, LogicalMaterializedCTE):
            new, remap = self._ctes(op, required)
        else:
            new, remap = self._unary(op, required)
        if new is not op:
            self.certificate[id(new)] = remap
        return new, remap

    def _scan(self, op: LogicalGet | LogicalIndexScan, required: set[int]):
        types = op.output_types()
        keep = sorted(required) or [_floor(types)]
        if len(keep) == len(types):
            return op, _identity(len(types))
        ids = op.column_ids
        return (_with(op, columns=tuple(ids[i] for i in keep)),
                _positions(keep))

    def _cte_ref(self, op: LogicalCTERef, required: set[int]):
        self.cte_reads.setdefault(op.cte_id, set()).update(required)
        remap = self.cte_maps.get(op.cte_id)
        if remap is None or len(remap) == len(op.types):
            return op, _identity(len(op.types))
        return _with(op, names=[op.names[i] for i in sorted(remap)],
                     types=[op.types[i] for i in sorted(remap)]), remap

    def _unary(self, op: LogicalOperator, required: set[int]):
        """Filters, sorts and limits pass their input through, plus what
        they read; aggregates compute every output from what they read;
        DISTINCT and set operations compare every column; table
        functions keep theirs."""
        through = isinstance(op, (LogicalFilter, LogicalSort, LogicalLimit))
        need = _columns(expr for expr, _ in operator_exprs(op))
        if through:
            need |= required
        elif not isinstance(op, LogicalAggregate):
            need = set(range(len(op.output_types())))
        pruned = [self.prune(child, need) for child in op.children()]
        if all(new is old for (new, _), old in zip(pruned, op.children())):
            return op, (pruned[0][1] if through
                        else _identity(len(op.output_types())))
        remap = pruned[0][1] if through else _identity(len(op.output_types()))
        if len(pruned) == 2:  # a set operation
            return _with(op, left=pruned[0][0], right=pruned[1][0]), remap
        child, moved = pruned[0]
        fields: dict = {"child": child}
        if isinstance(op, LogicalFilter):
            fields["condition"] = _rebind(op.condition, moved)
        elif isinstance(op, LogicalSort):
            fields["keys"] = [(_rebind(key, moved), asc, nulls)
                              for key, asc, nulls in op.keys]
        elif isinstance(op, LogicalAggregate):
            fields["groups"] = [_rebind(g, moved) for g in op.groups]
            fields["aggregates"] = [
                dataclasses.replace(s, args=[_rebind(a, moved)
                                             for a in s.args])
                for s in op.aggregates
            ]
        return _with(op, **fields), remap

    def _project(self, op: LogicalProject, required: set[int]):
        keep = sorted(required) or [
            min(range(len(op.exprs)), key=lambda i: cost_class(op.exprs[i]))
        ]
        exprs = [op.exprs[i] for i in keep]
        child, remap = self.prune(op.child, _columns(exprs))
        if self.collecting or (child is op.child
                               and len(keep) == len(op.exprs)):
            return op, _identity(len(op.exprs))
        return _with(
            op, child=child, names=[op.names[i] for i in keep],
            exprs=[_rebind(e, remap) for e in exprs],
        ), _positions(keep)

    def _join(self, op: LogicalJoin, required: set[int]):
        """A join reads its keys, residual and probe expression over the
        combined (left ++ right) columns and emits only those read above
        it."""
        width = len(op.left.output_types())
        ids = op.column_ids
        required = required or {_floor(op.output_types())}
        need = {ids[i] for i in required}
        need |= _columns(left_key for left_key, _ in op.equi_keys)
        need |= {width + c for _, right_key in op.equi_keys
                 for c in right_key.columns_used()}
        if op.residual is not None:
            need |= op.residual.columns_used()
        if op.index_probe is not None:
            need |= op.index_probe[2].columns_used()
        left, left_map = self.prune(op.left, {c for c in need if c < width})
        right, right_map = self.prune(
            op.right, {c - width for c in need if c >= width}
        )
        if self.collecting:
            return op, {}
        combined = dict(left_map)
        combined.update((width + old, len(left_map) + new)
                        for old, new in right_map.items())
        emit = sorted(combined[ids[i]] for i in required)
        columns = None if len(emit) == len(combined) else tuple(emit)
        if left is op.left and right is op.right and columns == op.columns:
            return op, _identity(len(ids))
        probe = op.index_probe
        position = _positions(emit)
        return _with(
            op, left=left, right=right, columns=columns,
            equi_keys=[(_rebind(lk, left_map), _rebind(rk, right_map))
                       for lk, rk in op.equi_keys],
            residual=None if op.residual is None
            else _rebind(op.residual, combined),
            index_probe=None if probe is None
            else (*probe[:2], _rebind(probe[2], left_map)),
        ), {i: position[combined[ids[i]]] for i in required}

    def _ctes(self, op: LogicalMaterializedCTE, required: set[int]):
        """A definition narrows to the union of what its scans read.  A
        scan's reads depend only on what is above it, so a collecting
        walk finds them first; later definitions may scan earlier ones
        and are walked first."""
        collector = _Pruner(collecting=True)
        collector.prune(op.child, required)
        for cte_id, _, plan in reversed(op.ctes):
            collector.prune(plan, collector.cte_reads.get(cte_id, set()))
        ctes = []
        for cte_id, name, plan in op.ctes:
            plan, self.cte_maps[cte_id] = self.prune(
                plan, collector.cte_reads.get(cte_id, set())
            )
            ctes.append((cte_id, name, plan))
        child, remap = self.prune(op.child, required)
        if child is op.child and all(
            new[2] is old[2] for new, old in zip(ctes, op.ctes)
        ):
            return op, remap
        return _with(op, ctes=ctes, child=child), remap


def _read_subquery_ctes(op: LogicalOperator,
                        reads: dict[int, set[int]]) -> None:
    """Subquery plans stay as bound: every CTE that a subquery in
    ``op``'s expressions scans, at any depth, is read whole."""
    stack = subquery_plans(op)
    while stack:
        node = stack.pop()
        if isinstance(node, LogicalCTERef):
            reads.setdefault(node.cte_id, set()).update(
                range(len(node.types))
            )
        stack.extend([*subquery_plans(node), *node.children()])
