"""The verification layer: plan, expression, rewrite, and chunk checks.

Modeled on DuckDB's ``PRAGMA enable_verification``.  Three families:

* :func:`verify_plan` — structural/type checks over a bound plan: every
  column binding resolves within its operator's input space, every
  expression node carries a resolved :class:`LogicalType`, every function
  and cast exists in the catalog, index scans only serve predicates their
  index advertises.
* :class:`RewriteVerifier` — wraps each optimizer filter rewrite: output
  schema must be stable, the conjunction of predicates must be preserved
  (pushdown may move conjuncts, never drop or invent them), and injected
  index scans/probes must match their index keys.  Violations name the
  optimizer rule(s) that fired during the rewrite.
* :func:`verify_chunk` + the ``assert_*`` cross-check helpers — runtime
  operator-output invariants (cardinality, validity-mask length, physical
  dtype, stale ``_aux`` caches) and kernel-vs-fallback comparison,
  naming the exact operator/kernel that diverged.

Every message names the guilty rule or operator so a failure pinpoints
the corruption site, not just the symptom.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

import numpy as np

from ..observability import count as _count
from ..quack.plan import (
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
    LogicalCTERef,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalIndexScan,
    LogicalJoin,
    LogicalLimit,
    LogicalOperator,
    LogicalProject,
    LogicalSetOp,
    _children,
    operator_exprs,
    split_conjuncts,
)
from ..quack.types import BOOLEAN, LogicalType, SQLNULL
from ..quack.vector import DataChunk, Vector, _PHYSICAL_DTYPES
from .errors import VerificationError

__all__ = [
    "RewriteVerifier",
    "assert_index_lists_match",
    "assert_join_pairs_match",
    "assert_rows_match",
    "assert_vectors_match",
    "fingerprint",
    "verify_chunk",
    "verify_plan",
]


# ---------------------------------------------------------------------------
# Expression fingerprints (structural identity across rebasing)
# ---------------------------------------------------------------------------


def _shift(delta, index: int) -> int:
    """Apply a column-space transform: a plain offset (pushdown rebasing)
    or an arbitrary index mapping (cost-based join reordering)."""
    if callable(delta):
        return delta(index)
    return index + delta


def fingerprint(expr: BoundExpr, delta=0) -> str:
    """Canonical structural string for ``expr`` with column indices
    mapped through ``delta`` — an integer shift (pushdown rebasing) or a
    callable index transform (join reordering) — used to compare
    predicates across rewrites.  ``=`` is fingerprinted with sorted
    operands so equi-key extraction commuting ``a = b`` does not read as
    a different predicate."""
    if isinstance(expr, BoundColumnRef):
        return f"col#{_shift(delta, expr.index)}"
    if isinstance(expr, BoundConstant):
        return f"const({expr.value!r})"
    if isinstance(expr, BoundFunction):
        fn_name = expr.function.name if expr.function is not None else expr.name
        parts = [fingerprint(a, delta) for a in expr.args]
        if fn_name == "=" and len(parts) == 2:
            parts = sorted(parts)
        return f"{fn_name}({', '.join(parts)})"
    if isinstance(expr, BoundConjunction):
        parts = ", ".join(fingerprint(a, delta) for a in expr.args)
        return f"{expr.op}({parts})"
    if isinstance(expr, BoundCast):
        return f"cast[{expr.ltype.name}]({fingerprint(expr.child, delta)})"
    if isinstance(expr, BoundNot):
        return f"not({fingerprint(expr.child, delta)})"
    if isinstance(expr, BoundIsNull):
        head = "is_not_null" if expr.negated else "is_null"
        return f"{head}({fingerprint(expr.child, delta)})"
    if isinstance(expr, BoundInList):
        head = "not_in" if expr.negated else "in"
        items = ", ".join(fingerprint(i, delta) for i in expr.items)
        return f"{head}({fingerprint(expr.operand, delta)}; {items})"
    if isinstance(expr, BoundCase):
        parts = [
            f"{fingerprint(c, delta)}->{fingerprint(r, delta)}"
            for c, r in expr.branches
        ]
        if expr.else_result is not None:
            parts.append(f"else->{fingerprint(expr.else_result, delta)}")
        return f"case({', '.join(parts)})"
    if isinstance(expr, BoundSubqueryExpr):
        params = ", ".join(
            fingerprint(p, delta) for p in _children(expr)
        )
        return f"subquery[{expr.kind}]#{id(expr.plan)}({params})"
    if isinstance(expr, BoundParameterRef):
        return f"param#{expr.param_index}"
    return f"<{type(expr).__name__}>"


def _permutation_transform(op: LogicalProject):
    """If ``op`` is a pure column permutation (every expression a bare
    column reference, bijective over the child's width), return the map
    child-space index → output position; otherwise ``None``.  The
    cost-based optimizer emits such projections to restore binder column
    order after join reordering."""
    width = len(op.child.output_types())
    if len(op.exprs) != width:
        return None
    position_of: dict[int, int] = {}
    for position, expr in enumerate(op.exprs):
        if not isinstance(expr, BoundColumnRef):
            return None
        if expr.index in position_of:
            return None
        position_of[expr.index] = position
    if len(position_of) != width:
        return None
    return position_of


def _collect_conjuncts(op: LogicalOperator, delta,
                       out: list[str]) -> None:
    """Collect conjunct fingerprints from a filter/join subtree, expressed
    in the subtree root's flat column space.  ``delta`` maps each node's
    local indices into that space — an integer shift or, below a
    column-permutation projection (cost-based join reordering), a
    composed index transform.  Equi-join keys count as their original
    ``=`` conjunct (right side shifted back over the join boundary);
    collection stops at pipeline breakers (aggregates, computing
    projections, …) whose internals pushdown never crosses."""
    if isinstance(op, LogicalFilter):
        for conj in split_conjuncts(op.condition):
            out.append(fingerprint(conj, delta))
        _collect_conjuncts(op.child, delta, out)
        return
    if isinstance(op, LogicalJoin):
        left_width = len(op.left.output_types())

        def right_delta(index: int, _delta=delta,
                        _width=left_width) -> int:
            return _shift(_delta, index + _width)

        _collect_conjuncts(op.left, delta, out)
        _collect_conjuncts(op.right, right_delta, out)
        for left_key, right_key in op.equi_keys:
            pair = sorted((
                fingerprint(left_key, delta),
                fingerprint(right_key, right_delta),
            ))
            out.append(f"=({', '.join(pair)})")
        if op.residual is not None:
            for conj in split_conjuncts(op.residual):
                out.append(fingerprint(conj, delta))
        return
    if isinstance(op, LogicalProject):
        position_of = _permutation_transform(op)
        if position_of is not None:

            def child_delta(index: int, _delta=delta,
                            _position_of=position_of) -> int:
                return _shift(_delta, _position_of[index])

            _collect_conjuncts(op.child, child_delta, out)
        return
    # Leaves and pipeline breakers: nothing to collect.


# ---------------------------------------------------------------------------
# Plan / expression verification
# ---------------------------------------------------------------------------


def verify_plan(plan: LogicalOperator, functions=None,
                phase: str = "plan") -> None:
    """Walk a bound plan checking structural and type invariants.

    ``functions`` is the database's :class:`FunctionRegistry`; when given,
    every bound function and cast is checked to still exist in the
    catalog.  ``phase`` tags error messages (``bind``/``optimize``)."""
    _verify_operator(plan, functions, phase)


def verify_planned(plan: LogicalOperator, functions, phase: str) -> None:
    """Planner hook: verify and account one plan-verification pass."""
    verify_plan(plan, functions, phase=phase)
    _count("verify.plans")


def _verify_operator(op: LogicalOperator, functions, phase: str) -> None:
    label = op._explain_label()

    def fail(message: str) -> None:
        raise VerificationError(f"[{phase}] {label}: {message}")

    names = op.output_names()
    types = op.output_types()
    if len(names) != len(types):
        fail(
            f"{len(names)} output names but {len(types)} output types"
        )
    for i, ltype in enumerate(types):
        if not isinstance(ltype, LogicalType):
            fail(f"output column {i} has unresolved type {ltype!r}")

    if isinstance(op, LogicalFilter):
        cond_type = op.condition.ltype
        # An unresolved (non-LogicalType) condition type is reported by
        # the expression walk below with the offending node's class.
        if isinstance(cond_type, LogicalType) and cond_type not in (
            BOOLEAN, SQLNULL
        ):
            fail(
                f"filter condition has type {cond_type.name}, "
                f"expected BOOLEAN"
            )
    if isinstance(op, LogicalLimit):
        if op.limit is not None and op.limit < 0:
            fail(f"negative limit {op.limit}")
        if op.offset < 0:
            fail(f"negative offset {op.offset}")
    if isinstance(op, LogicalSetOp):
        left_arity = len(op.left.output_types())
        right_arity = len(op.right.output_types())
        if left_arity != right_arity:
            fail(
                f"set operation arity mismatch: {left_arity} vs "
                f"{right_arity} columns"
            )
    if isinstance(op, (LogicalGet, LogicalIndexScan)):
        # ascending table columns, the row id (one past them) only last
        ids = list(op.column_ids)
        if not ids or ids != sorted(set(ids)) or not (
                0 <= ids[0] <= ids[-1] <= len(op.table.column_types)):
            fail(f"scan columns {ids} are not ascending table columns")
    fault = _index_fault(op)
    if fault is not None:
        fail(fault[1])

    for expr, width in operator_exprs(op):
        _verify_expr(expr, width, functions, label, phase)

    for child in op.children():
        _verify_operator(child, functions, phase)


def _index_fault(op: LogicalOperator) -> tuple[str, str] | None:
    """``(rule, fault)`` of an index scan or index join whose index does
    not serve it, or of an index join without its recheck residual,
    naming the optimizer rule that builds it; None when sound."""
    if isinstance(op, LogicalIndexScan):
        rule, index, op_name, constant = (
            "index_scan_injection", op.index, op.op_name, op.constant
        )
    elif isinstance(op, LogicalJoin) and op.index_probe is not None:
        rule, (index, op_name, _), constant = (
            "index_nl_join", op.index_probe, None
        )
        if op.residual is None:
            return rule, "index nested-loop join without a recheck residual"
    else:
        return None
    if index.matches(op_name, index.column, constant):
        return None
    return rule, (f"index {index.name} does not advertise {op_name!r} on "
                  f"column {index.column!r}")


def _verify_expr(expr: BoundExpr, width: int, functions, label: str,
                 phase: str) -> None:
    def fail(message: str) -> None:
        raise VerificationError(f"[{phase}] {label}: {message}")

    ltype = getattr(expr, "ltype", None)
    if not isinstance(ltype, LogicalType):
        fail(
            f"{type(expr).__name__} carries no resolved type "
            f"(got {ltype!r})"
        )
    if isinstance(expr, BoundColumnRef):
        if not (0 <= expr.index < width):
            fail(
                f"dangling column binding #{expr.index} "
                f"({expr.name or 'unnamed'}): input has {width} columns"
            )
    elif isinstance(expr, BoundFunction):
        if expr.function is None:
            fail(f"function node {expr.name!r} has no bound function")
        if (
            functions is not None
            and not functions.has_scalar(expr.function.name)
            # The binder synthesizes ad-hoc functions (e.g. struct_pack
            # for struct literals) that carry their implementation inline
            # instead of living in the catalog.
            and expr.function.fn_scalar is None
            and expr.function.fn_vector is None
        ):
            fail(
                f"function {expr.function.name!r} is not in the catalog "
                f"and carries no implementation"
            )
    elif isinstance(expr, BoundCast):
        if expr.cast is not None:
            if expr.cast.target.name != expr.ltype.name:
                fail(
                    f"cast resolves to {expr.cast.target.name} but node "
                    f"is typed {expr.ltype.name}"
                )
            if functions is not None and functions.find_cast(
                expr.cast.source, expr.cast.target
            ) is None:
                fail(
                    f"cast {expr.cast.source.name} -> "
                    f"{expr.cast.target.name} is not in the catalog"
                )
    elif isinstance(expr, BoundConjunction):
        if expr.op not in ("AND", "OR"):
            fail(f"unknown conjunction operator {expr.op!r}")
    elif isinstance(expr, BoundParameterRef):
        if expr.param_index < 0:
            fail(f"negative parameter index {expr.param_index}")
    elif isinstance(expr, BoundSubqueryExpr):
        n_params = len(expr.outer_params_exprs)
        max_used = _max_param_index(expr.plan)
        if max_used >= n_params:
            fail(
                f"subquery references parameter #{max_used} but only "
                f"{n_params} outer parameter expressions are bound"
            )
        _verify_operator(expr.plan, functions, phase)
    for child in _children(expr):
        _verify_expr(child, width, functions, label, phase)


def _max_param_index(plan: LogicalOperator) -> int:
    """Largest ``BoundParameterRef`` index used by ``plan``'s own
    expressions (not descending into nested subquery plans, which have
    their own parameter spaces)."""
    best = -1

    def visit_expr(expr: BoundExpr) -> None:
        nonlocal best
        if isinstance(expr, BoundParameterRef):
            best = max(best, expr.param_index)
        for child in _children(expr):
            visit_expr(child)

    def visit_op(op: LogicalOperator) -> None:
        for expr, _ in operator_exprs(op):
            visit_expr(expr)
        for child in op.children():
            visit_op(child)

    visit_op(plan)
    return best


# ---------------------------------------------------------------------------
# Optimizer rewrite verification
# ---------------------------------------------------------------------------


class RewriteVerifier:
    """Checks one optimizer filter rewrite against its snapshot.

    The optimizer reports each rule through :meth:`note_fire`; the
    conjunction/schema checks blame the rule(s) that fired during the
    rewrite being checked."""

    def __init__(self):
        self.fired: list[str] = []

    def note_fire(self, rule: str) -> None:
        self.fired.append(rule)

    def snapshot_filter(self, op: LogicalOperator):
        """The schema and conjuncts of a filter, or of an inner join
        tree, before the optimizer plans it."""
        conjuncts: list[str] = []
        _collect_conjuncts(op, 0, conjuncts)
        return (
            list(op.output_names()),
            [t.name for t in op.output_types()],
            Counter(conjuncts),
        )

    def check_filter_rewrite(self, snapshot, result: LogicalOperator,
                             fired: list[str]) -> None:
        blame = ", ".join(sorted(set(fired))) or "(no rule fired)"
        names, type_names, before = snapshot
        new_names = list(result.output_names())
        new_types = [t.name for t in result.output_types()]
        if new_names != names or new_types != type_names:
            raise VerificationError(
                f"optimizer rule {blame}: schema-changing rewrite — "
                f"{list(zip(names, type_names))} became "
                f"{list(zip(new_names, new_types))}"
            )
        conjuncts: list[str] = []
        _collect_conjuncts(result, 0, conjuncts)
        after = Counter(conjuncts)
        missing = before - after
        invented = after - before
        if missing:
            raise VerificationError(
                f"optimizer rule {blame}: dropped predicate(s) "
                f"{sorted(missing.elements())}"
            )
        if invented:
            raise VerificationError(
                f"optimizer rule {blame}: invented predicate(s) "
                f"{sorted(invented.elements())}"
            )
        self._check_index_injections(result)

    def check_pruning(self, old: LogicalOperator, new: LogicalOperator,
                      certificate: dict[int, dict[int, int]]) -> None:
        """Check the required-columns rule's rewrite of ``old`` into
        ``new``.  ``certificate`` maps each narrowed operator (by id) to
        its map old output index → new output index.  Every dropped
        column must be unreferenced above its drop point, every
        expression must fingerprint the same after the binding remap,
        and the root must keep its whole schema."""
        remap = _check_pruned(old, new, certificate, {})
        if remap != _identity(len(old.output_types())):
            raise VerificationError(
                f"optimizer rule column_pruning: schema-changing rewrite "
                f"at the plan root ({old._explain_label()})"
            )

    def _check_index_injections(self, op: LogicalOperator) -> None:
        fault = _index_fault(op)
        if fault is not None:
            raise VerificationError(f"optimizer rule {fault[0]}: {fault[1]}")
        for child in op.children():
            self._check_index_injections(child)


def _identity(width: int) -> dict[int, int]:
    return {i: i for i in range(width)}


def _check_pruned(old: LogicalOperator, new: LogicalOperator,
                  certificate: dict[int, dict[int, int]],
                  cte_maps: dict[int, dict[int, int]]) -> dict[int, int]:
    """One operator of :meth:`RewriteVerifier.check_pruning`, children
    (CTE definitions first) before it; returns the operator's map."""
    if new is old:
        return _identity(len(old.output_types()))
    label = old._explain_label()

    def fail(message: str) -> None:
        raise VerificationError(
            f"optimizer rule column_pruning: {label}: {message}"
        )

    remap = certificate.get(id(new))
    if type(new) is not type(old) or remap is None:
        fail(f"rewritten into {new._explain_label()} without a certificate")
    ctes = getattr(old, "ctes", [])
    maps = []
    for k, (before, after) in enumerate(zip(old.children(), new.children())):
        maps.append(_check_pruned(before, after, certificate, cte_maps))
        if k < len(ctes):
            cte_maps[ctes[k][0]] = maps[-1]
    old_types, new_types = old.output_types(), new.output_types()
    kept = sorted(remap)
    if [remap[i] for i in kept] != list(range(len(new_types))) or any(
        old_types[i] != new_types[remap[i]] for i in kept
    ):
        fail(f"map {remap} does not carry the schema onto "
             f"{[t.name for t in new_types]}")
    join = _join_map(old, maps) if isinstance(old, LogicalJoin) else None
    if isinstance(old, (LogicalGet, LogicalIndexScan, LogicalJoin)):
        if any(new.column_ids[remap[i]] != (
            old.column_ids[i] if join is None
            else join.get(old.column_ids[i])
        ) for i in kept):
            fail(f"emits columns {list(new.column_ids)} its map does not "
                 f"name")
    elif isinstance(old, LogicalCTERef):
        if remap != cte_maps.get(old.cte_id, remap):
            fail("CTE scan disagrees with its narrowed definition")
    elif isinstance(old, (LogicalAggregate, LogicalDistinct, LogicalSetOp)):
        if remap != _identity(len(old_types)):
            fail("dropped an output it computes or compares")
    elif not isinstance(old, LogicalProject) and remap != maps[-1]:
        fail("output map disagrees with its child's")
    if isinstance(old, LogicalProject):
        befores = [(old.exprs[i], maps[0], old.child) for i in kept]
    elif join is not None:
        befores = [
            pair for lk, rk in old.equi_keys
            for pair in ((lk, maps[0], old.left), (rk, maps[1], old.right))
        ]
        if old.residual is not None:
            befores.append((old.residual, join, old))
        if old.index_probe is not None:
            befores.append((old.index_probe[2], maps[0], old.left))
    else:
        befores = [(expr, maps[0], old.children()[0])
                   for expr, _ in operator_exprs(old)]
    afters = [expr for expr, _ in operator_exprs(new)]
    if len(befores) != len(afters):
        fail(f"{len(befores)} expressions became {len(afters)}")
    for (before, mapping, source), after in zip(befores, afters):
        dropped = sorted(before.columns_used() - mapping.keys())
        if dropped:
            names = source.output_names()
            fail(f"reads column(s) {[f'#{i} {names[i]}' for i in dropped]} "
                 f"that {source._explain_label()} dropped")
        if fingerprint(before, mapping.__getitem__) != fingerprint(after):
            fail(f"expression {fingerprint(before)} is "
                 f"{fingerprint(after)} after the binding remap")
    return remap


def _join_map(old: LogicalJoin, maps: list[dict[int, int]]
              ) -> dict[int, int]:
    """A join's map of its combined (left ++ right) input columns: the
    left child's, then the right child's shifted past it."""
    left, right = maps
    width = len(old.left.output_types())
    out = dict(left)
    out.update((width + o, len(left) + n) for o, n in right.items())
    return out


# ---------------------------------------------------------------------------
# Chunk verification
# ---------------------------------------------------------------------------


def verify_chunk(op: LogicalOperator, chunk: DataChunk) -> None:
    """Check one operator output chunk's structural invariants."""
    label = op._explain_label()
    types = op.output_types()
    if len(chunk.vectors) != len(types):
        raise VerificationError(
            f"{label}: produced {len(chunk.vectors)} columns, schema "
            f"declares {len(types)}"
        )
    count = chunk.count
    for i, (vector, declared) in enumerate(zip(chunk.vectors, types)):
        if len(vector.data) != count:
            raise VerificationError(
                f"{label}: column {i} has {len(vector.data)} rows, "
                f"chunk cardinality is {count}"
            )
        if len(vector.validity) != len(vector.data):
            raise VerificationError(
                f"{label}: column {i} validity mask has "
                f"{len(vector.validity)} entries for {len(vector.data)} "
                f"rows"
            )
        if vector.validity.dtype != np.bool_:
            raise VerificationError(
                f"{label}: column {i} validity mask dtype is "
                f"{vector.validity.dtype}, expected bool"
            )
        _verify_vector_dtype(vector, declared, label, i)
        vector.verify_aux_fresh(f"{label} column {i}")


def _verify_vector_dtype(vector: Vector, declared: LogicalType,
                         label: str, i: int) -> None:
    if declared.name in ("ANY", "NULL") or vector.ltype.name == "NULL":
        return
    if vector.ltype.physical != declared.physical:
        raise VerificationError(
            f"{label}: column {i} is physically "
            f"{vector.ltype.physical}, schema declares "
            f"{declared.name} ({declared.physical})"
        )
    expected_dtype = _PHYSICAL_DTYPES[vector.ltype.physical]
    if vector.data.dtype != np.dtype(expected_dtype):
        raise VerificationError(
            f"{label}: column {i} array dtype {vector.data.dtype} does "
            f"not match physical type {vector.ltype.physical}"
        )


# ---------------------------------------------------------------------------
# Kernel-vs-fallback cross-check helpers
# ---------------------------------------------------------------------------


def _values_equal(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        # reduceat vs sequential summation may differ in rounding only.
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    try:
        if bool(a == b):
            return True
    except Exception:
        pass
    return repr(a) == repr(b)


def assert_vectors_match(actual: Vector, expected: Vector,
                         where: str) -> None:
    """Assert a kernel result vector equals its scalar-fallback result."""
    if len(actual) != len(expected):
        raise VerificationError(
            f"kernel/fallback divergence in {where}: kernel produced "
            f"{len(actual)} rows, fallback {len(expected)}"
        )
    for i, (a, b) in enumerate(zip(actual.to_list(), expected.to_list())):
        if not _values_equal(a, b):
            raise VerificationError(
                f"kernel/fallback divergence in {where}: row {i} — "
                f"kernel {a!r}, fallback {b!r}"
            )


def assert_rows_match(actual: list[tuple], expected: list[tuple],
                      where: str) -> None:
    if len(actual) != len(expected):
        raise VerificationError(
            f"kernel/fallback divergence in {where}: kernel produced "
            f"{len(actual)} rows, fallback {len(expected)}"
        )
    for i, (row_a, row_b) in enumerate(zip(actual, expected)):
        if len(row_a) != len(row_b) or not all(
            _values_equal(a, b) for a, b in zip(row_a, row_b)
        ):
            raise VerificationError(
                f"kernel/fallback divergence in {where}: row {i} — "
                f"kernel {row_a!r}, fallback {row_b!r}"
            )


def assert_join_pairs_match(kernel_pairs, fallback_pairs,
                            where: str) -> None:
    """Assert kernel join probe output equals the dict-probe fallback
    (exact: both emit probe-major pairs with build rows ascending)."""
    k_left, k_right = kernel_pairs
    f_left, f_right = fallback_pairs
    if len(k_left) != len(f_left) or not (
        np.array_equal(k_left, f_left) and np.array_equal(k_right, f_right)
    ):
        raise VerificationError(
            f"kernel/fallback divergence in {where}: kernel emitted "
            f"{len(k_left)} join pairs, fallback {len(f_left)} "
            f"(or pair order differs)"
        )


def assert_index_lists_match(actual: list[int], expected: list[int],
                             where: str) -> None:
    if list(map(int, actual)) != list(map(int, expected)):
        raise VerificationError(
            f"kernel/fallback divergence in {where}: kernel selected "
            f"rows {list(map(int, actual))[:16]}, fallback "
            f"{list(map(int, expected))[:16]}"
        )
