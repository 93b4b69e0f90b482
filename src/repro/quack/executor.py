"""Vectorized (chunk-at-a-time) plan executor.

Every operator consumes and produces :class:`DataChunk` batches; relational
work on numeric columns runs on NumPy arrays, extension functions run once
per distinct argument tuple among the rows of a batch whose verdict is
still open — the execution model of the paper's host engine.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..analysis import config as _verification
from ..observability import count as _count
from ..observability import gauge_max
from . import kernels
from . import storage as _storage
from .errors import ConversionError, ExecutionError
from .functions import _materialize as _pack_values
from .functions import row_loop, value_rows
from .kernels import hashable_key as _hashable
from .optimizer import _remap
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
    LogicalCTERef,
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
    LogicalTableFunction,
    membership,
)
from .profiler import ExecutionContext, _execute_profiled
from .types import BIGINT, BOOLEAN, LogicalType
from .vector import (
    _PHYSICAL_DTYPES,
    DataChunk,
    STANDARD_VECTOR_SIZE,
    Vector,
    boolean_selection,
    concat_chunks,
)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def evaluate(expr: BoundExpr, chunk: DataChunk,
             ctx: ExecutionContext) -> Vector:
    count = chunk.count
    if isinstance(expr, BoundConstant):
        return Vector.constant(expr.ltype, expr.value, count)
    if isinstance(expr, BoundColumnRef):
        try:
            return chunk.column(expr.index)
        except IndexError:
            raise ExecutionError(
                f"column index {expr.index} out of range"
            ) from None
    if isinstance(expr, BoundParameterRef):
        return Vector.constant(expr.ltype, ctx.params[expr.param_index],
                               count)
    if isinstance(expr, BoundFunction):
        args = [evaluate(a, chunk, ctx) for a in expr.args]
        result = expr.function.evaluate(args, count)
        if result.ltype != expr.ltype:
            if result.ltype.physical == expr.ltype.physical:
                result = result.with_type(expr.ltype)
            else:
                # ANY-returning functions (greatest, coalesce, …) come
                # back as object vectors; repack under the type the
                # binder resolved so downstream kernels see the declared
                # physical representation.
                result = Vector.from_values(expr.ltype, result.to_list())
        return result
    if isinstance(expr, BoundCast):
        return _evaluate_cast(expr, chunk, ctx)
    if isinstance(expr, BoundConjunction):
        return _evaluate_conjunction(expr, chunk, ctx)
    if isinstance(expr, BoundNot):
        child = evaluate(expr.child, chunk, ctx)
        data = np.logical_not(child.data.astype(np.bool_, copy=False))
        return Vector(BOOLEAN, data, child.validity.copy())
    if isinstance(expr, BoundIsNull):
        child = evaluate(expr.child, chunk, ctx)
        data = child.validity if expr.negated else ~child.validity
        return Vector(BOOLEAN, np.asarray(data, dtype=np.bool_),
                      np.ones(count, dtype=np.bool_))
    if isinstance(expr, BoundInList):
        return _evaluate_in_list(expr, chunk, ctx)
    if isinstance(expr, BoundCase):
        return _evaluate_case(expr, chunk, ctx)
    if isinstance(expr, BoundSubqueryExpr):
        return _evaluate_subquery(expr, chunk, ctx)
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _evaluate_cast(expr: BoundCast, chunk: DataChunk,
                   ctx: ExecutionContext) -> Vector:
    child = evaluate(expr.child, chunk, ctx)
    count = len(child)
    target = expr.ltype
    if expr.cast is not None:
        # Cast functions are pure: convert each distinct source value of
        # the chunk once and gather.
        apply = expr.cast.apply
        return kernels.per_distinct(
            lambda vectors, n: row_loop(apply, vectors, n, target),
            [child], count,
            f"cast to {target.name} distinct-argument evaluation",
        )
    # Builtin physical casts.
    if target.physical == child.ltype.physical:
        return child.with_type(target)
    if target.physical in ("int64", "float64", "bool"):
        dtype = {"int64": np.int64, "float64": np.float64,
                 "bool": np.bool_}[target.physical]
        if child.ltype.physical == "object":
            return _pack_values(target, child.data, child.validity.copy(),
                                count)
        if target.physical == "int64" and child.ltype.physical == "float64":
            return Vector(target, np.rint(child.data).astype(np.int64),
                          child.validity.copy())
        return Vector(target, child.data.astype(dtype),
                      child.validity.copy())
    return Vector.from_values(target, child.to_list())


def _crosscheck_vectors(result: Vector, reference: Vector,
                        what: str) -> None:
    """Verification mode: ``result`` must equal the plain evaluation."""
    from ..analysis.verifier import assert_vectors_match

    assert_vectors_match(result, reference, what)
    _count("verify.kernel_crosschecks")


def _evaluate_conjunction(expr: BoundConjunction, chunk: DataChunk,
                          ctx: ExecutionContext,
                          narrow: bool = True) -> Vector:
    """Three-valued AND/OR with a selection vector.

    A row is *decided* once an operand is FALSE (AND) or TRUE (OR): no
    later operand can change its verdict, so later operands run only on
    the undecided rows and their verdicts are scattered back.  NULL rows
    stay undecided, which keeps the three-valued result exactly that of
    evaluating every operand everywhere — except that, like the row
    engine, an operand never raises on a row an earlier one decided.
    The leading run of class-0 operands is total and whole-array, so it
    runs on the full chunk and plain relational filters never gather.
    ``narrow=False`` is the dense reference of verification mode."""
    count = chunk.count
    is_and = expr.op == "AND"
    decided = np.zeros(count, dtype=np.bool_)
    saw_null = np.zeros(count, dtype=np.bool_)
    evaluated = 0
    for k, arg in enumerate(expr.args):
        live = None
        if narrow and k >= expr.dense and decided.any():
            live = np.nonzero(~decided)[0]
            if not len(live):
                break
        part = evaluate(
            arg, chunk if live is None else chunk.slice(live), ctx
        )
        evaluated += len(part)
        truth = part.data.astype(np.bool_, copy=False)
        wins = np.logical_and(part.validity,
                              ~truth if is_and else truth)
        if live is None:
            decided |= wins
            saw_null |= ~part.validity
        else:
            decided[live[wins]] = True
            saw_null[live[~part.validity]] = True
    _count_skipped(len(expr.args) * count - evaluated)
    result = Vector(
        BOOLEAN, ~(decided | saw_null) if is_and else decided,
        decided | ~saw_null,
    )
    if narrow and _verification.VERIFICATION_ENABLED:
        _crosscheck_dense(_evaluate_conjunction, expr, chunk, ctx, result,
                          expr.op)
    return result


def _count_skipped(rows: int) -> None:
    if rows:
        _count("executor.conjunct_rows_skipped", rows)


def _crosscheck_dense(evaluator, expr: BoundExpr, chunk: DataChunk,
                      ctx: ExecutionContext, result: Vector,
                      what: str) -> None:
    """Verification mode: the narrowed result must equal evaluating every
    operand on every row — whenever that dense run does not raise (it may
    legitimately raise on rows narrowing never visits)."""
    try:
        reference = evaluator(expr, chunk, ctx, narrow=False)
    except (ExecutionError, ConversionError):
        return
    _crosscheck_vectors(result, reference, f"selection-narrowed {what}")


def _evaluate_in_list(expr: BoundInList, chunk: DataChunk,
                      ctx: ExecutionContext) -> Vector:
    count = chunk.count
    operand = evaluate(expr.operand, chunk, ctx)
    found = np.zeros(count, dtype=np.bool_)
    unknown = ~operand.validity
    for item in expr.items:
        eq = expr.eq_function.evaluate(
            [operand, evaluate(item, chunk, ctx)], count
        )
        found |= eq.validity & eq.data.astype(np.bool_, copy=False)
        unknown |= ~eq.validity
    truth, known = membership(found, unknown, expr.negated)
    return Vector(BOOLEAN, truth & known, known)


def _evaluate_case(expr: BoundCase, chunk: DataChunk,
                   ctx: ExecutionContext, narrow: bool = True) -> Vector:
    """CASE with a selection vector: each WHEN is tested only on the rows
    no earlier branch claimed, each THEN/ELSE arm runs only on its own
    rows, and arm results are scattered into place."""
    count = chunk.count
    physical = expr.ltype.physical
    out = np.empty(count, dtype=object) if physical == "object" else (
        np.zeros(count, dtype=_PHYSICAL_DTYPES[physical])
    )
    validity = np.zeros(count, dtype=np.bool_)
    pending = np.arange(count)
    evaluated = 0

    def on(rows: np.ndarray, part: BoundExpr) -> Vector:
        if not narrow:
            return evaluate(part, chunk, ctx).slice(rows)
        return evaluate(
            part, chunk if len(rows) == count else chunk.slice(rows), ctx
        )

    for cond, arm in [*expr.branches, (None, expr.else_result)]:
        if not len(pending):
            break
        rows = pending
        if cond is not None:
            evaluated += len(pending)
            hit = boolean_selection(on(pending, cond))
            rows, pending = pending[hit], pending[~hit]
        if arm is None or not len(rows):
            continue
        evaluated += len(rows)
        vec = on(rows, arm)
        data = vec.data
        if data.dtype != out.dtype:
            # Arms are not coerced by the binder: convert through Python
            # values, like the row engine's results.
            data = data.astype(object)
            if physical != "object":
                data = _pack_values(expr.ltype, data, vec.validity,
                                    len(rows)).data
        out[rows] = data
        validity[rows] = vec.validity
    if narrow:
        parts = 2 * len(expr.branches) + (expr.else_result is not None)
        _count_skipped(parts * count - evaluated)
    result = Vector(expr.ltype, out, validity)
    if narrow and _verification.VERIFICATION_ENABLED:
        _crosscheck_dense(_evaluate_case, expr, chunk, ctx, result, "CASE")
    return result


def _evaluate_subquery(expr: BoundSubqueryExpr, chunk: DataChunk,
                       ctx: ExecutionContext) -> Vector:
    count = chunk.count
    params = value_rows(
        [evaluate(p, chunk, ctx) for p in expr.outer_params_exprs], count
    )
    operands = [None] * count if expr.operand is None else (
        evaluate(expr.operand, chunk, ctx).to_list()
    )
    out = np.empty(count, dtype=object)
    for i, (values, operand) in enumerate(zip(params, operands)):
        out[i] = expr.result(
            operand, ctx.subquery_rows(expr.plan, values, _plan_rows)
        )
    validity = np.fromiter((v is not None for v in out), dtype=np.bool_,
                           count=count)
    return _pack_values(expr.ltype, out, validity, count)


def _plan_rows(plan: LogicalOperator, ctx: ExecutionContext) -> list[tuple]:
    """A plan's whole output as tuples."""
    return [row for chunk in execute_plan(plan, ctx) for row in chunk.rows()]


# ---------------------------------------------------------------------------
# Operator execution
# ---------------------------------------------------------------------------


def execute_plan(op: LogicalOperator,
                 ctx: ExecutionContext) -> Iterator[DataChunk]:
    """Execute one operator (and, recursively, its children).

    When the context carries a profiler, every operator — including
    those inside subqueries and CTEs — streams through an instrumented
    wrapper; there is no module-level state, so nested and concurrent
    profiled executions cannot corrupt each other.  Under verification
    mode every produced chunk additionally passes the chunk verifier."""
    return _instrumented(op, ctx, _execute_operator(op, ctx))


def _instrumented(op: LogicalOperator, ctx: ExecutionContext,
                  chunks: Iterator[DataChunk]) -> Iterator[DataChunk]:
    """``op``'s output stream under the profiler and the verifier."""
    if ctx.profiler is not None:
        chunks = _execute_profiled(op, ctx, chunks, _chunk_width)
    if _verification.VERIFICATION_ENABLED:
        return _execute_verified(op, chunks)
    return chunks


def _execute_verified(op: LogicalOperator,
                      chunks: Iterator[DataChunk]) -> Iterator[DataChunk]:
    """Stream an operator's output through the chunk verifier."""
    from ..analysis.verifier import verify_chunk

    for chunk in chunks:
        verify_chunk(op, chunk)
        _count("verify.chunks_checked")
        yield chunk


def _chunk_width(chunk: DataChunk) -> int:
    return chunk.count


def _execute_operator(op: LogicalOperator,
                      ctx: ExecutionContext) -> Iterator[DataChunk]:
    if isinstance(op, LogicalMaterializedCTE):
        ctx.define_ctes(op)
        yield from execute_plan(op.child, ctx)
        return
    if isinstance(op, LogicalGet):
        yield from _execute_get(op, ctx)
        return
    if isinstance(op, LogicalIndexScan):
        live = op.table.live_row_ids(ctx.index_scan_row_ids(op))
        for start in range(0, len(live), STANDARD_VECTOR_SIZE):
            ids = np.asarray(live[start : start + STANDARD_VECTOR_SIZE],
                             dtype=np.int64)
            chunk = op.table.fetch(ids, op.columns)
            if chunk.count:
                yield chunk
        return
    if isinstance(op, LogicalTableFunction):
        series = op.series()
        for start in range(0, len(series), STANDARD_VECTOR_SIZE):
            block = series[start : start + STANDARD_VECTOR_SIZE]
            yield DataChunk([Vector(op.types[0], np.arange(
                block.start, block.stop, block.step, dtype=np.int64
            ))])
        return
    if isinstance(op, LogicalCTERef):
        yield from ctx.cte_items(op, execute_plan)
        return
    if isinstance(op, (LogicalFilter, LogicalProject)):
        yield from _execute_streaming(op, ctx)
        return
    if isinstance(op, LogicalJoin):
        yield from _execute_join(op, ctx)
        return
    if isinstance(op, LogicalAggregate):
        yield from _execute_aggregate(op, ctx)
        return
    if isinstance(op, LogicalSort):
        yield from _execute_sort(op, ctx)
        return
    if isinstance(op, LogicalDistinct):
        yield from _execute_distinct(op, ctx)
        return
    if isinstance(op, LogicalSetOp):
        yield from _execute_set_op(op, ctx)
        return
    if isinstance(op, LogicalLimit):
        remaining = op.limit
        to_skip = op.offset
        source = op.child
        if remaining is not None and isinstance(source, LogicalSort):
            # Top-N: the sort emits only the rows the limit can reach.
            chunks = _instrumented(source, ctx, _execute_sort(
                source, ctx, limit=remaining + to_skip
            ))
        else:
            chunks = execute_plan(source, ctx)
        for chunk in chunks:
            if to_skip:
                if chunk.count <= to_skip:
                    to_skip -= chunk.count
                    continue
                selection = np.arange(to_skip, chunk.count)
                chunk = chunk.slice(selection)
                to_skip = 0
            if remaining is None:
                yield chunk
                continue
            if remaining <= 0:
                return
            if chunk.count > remaining:
                chunk = chunk.slice(np.arange(remaining))
            remaining -= chunk.count
            yield chunk
            if remaining <= 0:
                return
        return
    raise ExecutionError(f"cannot execute {type(op).__name__}")


def _execute_get(op: LogicalGet,
                 ctx: ExecutionContext) -> Iterator[DataChunk]:
    """Base-table scan with optional zone-map row-group skipping.

    When the optimizer attached :class:`PrunePredicate`\\ s, row groups
    whose zone-map entries prove no row can satisfy a pushed conjunct
    are skipped before decompression.  Pruning is advisory — the exact
    filter still runs above the scan — so a miss costs decode time, not
    correctness; under verification the skipped groups are decoded
    anyway and cross-checked to hold no matching live row.
    """
    skip: set[int] | None = None
    if op.prune:
        columns = sorted({p.column for p in op.prune})
        maps = op.table.zone_maps(columns)
        if maps is not None:
            # Per segment: table column -> zone entry, for the pruned
            # columns only.
            maps = [dict(zip(columns, entries)) for entries in maps]
            skip = set()
            for seg, entries in enumerate(maps):
                if any(
                    _storage.zone_map_prunes(
                        entries[p.column], p.op_name, p.constant
                    )
                    for p in op.prune
                ):
                    skip.add(seg)
            scanned = len(maps) - len(skip)
            _count("storage.rowgroups_scanned", scanned)
            _count("storage.rowgroups_skipped", len(skip))
            ctx.annotate(op, "rowgroups", scanned)
            ctx.annotate(op, "rowgroups_skipped", len(skip))
            if skip and _verification.verification_enabled():
                _crosscheck_pruned_groups(op, skip, maps, ctx)
    for chunk, _ in op.table.scan(skip_groups=skip, columns=op.columns):
        if chunk.count:
            yield chunk


def _crosscheck_pruned_groups(op: LogicalGet, skip: set[int],
                              zone_maps: list[dict],
                              ctx: ExecutionContext) -> None:
    """Decode every zone-map-skipped row group and prove no live row
    satisfies a conjunct whose zone map claimed to prune it (the
    skip-vs-full-scan differential of the verification layer).  Only the
    conjuncts that *caused* the skip are checked — the others may well
    match rows in the group; the conjunction is still false there."""
    from ..analysis.errors import VerificationError

    table = op.table
    for seg, _, _, keep in table.segment_masks():
        if seg not in skip:
            continue
        chunk = DataChunk(
            [col.segment_vector(seg) for col in table._columns]
        )
        for pred in op.prune:
            if pred.expr is None or not _storage.zone_map_prunes(
                zone_maps[seg][pred.column], pred.op_name, pred.constant
            ):
                continue
            mask = boolean_selection(evaluate(pred.expr, chunk, ctx))
            if (mask if keep is None else mask & keep).any():
                raise VerificationError(
                    f"zone map pruned row group {seg} of "
                    f"{table.name}, but a live row satisfies "
                    f"{pred.op_name} on column {pred.column}"
                )
        _count("verify.zonemap_crosschecks")


# -- streaming fragments (filter/project chains) ------------------------------


def _execute_streaming(op: LogicalOperator,
                       ctx: ExecutionContext) -> Iterator[DataChunk]:
    """Run a Filter/Project one input chunk at a time."""
    if isinstance(op, LogicalFilter):
        for chunk in execute_plan(op.child, ctx):
            mask = boolean_selection(evaluate(op.condition, chunk, ctx))
            if mask.any():
                yield chunk.slice(mask)
        return
    for chunk in execute_plan(op.child, ctx):
        yield DataChunk([evaluate(e, chunk, ctx) for e in op.exprs])


# -- joins ---------------------------------------------------------------------


def _materialize(owner: LogicalOperator, op: LogicalOperator,
                 ctx: ExecutionContext,
                 chunks: list[DataChunk] | None = None
                 ) -> list[Vector] | None:
    """Materialize a plan into whole-relation column vectors, for the
    operator ``owner``.

    ``chunks`` short-circuits execution when the caller already drained
    the child (the spill watermark probe that stayed under the limit)."""
    if chunks is None:
        chunks = list(execute_plan(op, ctx))
    if not chunks:
        return None
    columns = concat_chunks(chunks).vectors
    _count_gathered(owner, ctx, len(columns[0]) * len(columns))
    _count("executor.materializations")
    _count("executor.materialized_chunks", len(chunks))
    gauge_max("executor.peak_materialized_rows", len(columns[0]))
    return columns


def _count_gathered(op: LogicalOperator, ctx: ExecutionContext,
                    cells: int) -> None:
    """Account ``cells`` (rows × columns) an operator copied."""
    _count("executor.gathered_cells", cells)
    ctx.annotate(op, "gathered_cells", cells)


def _count_dispatch(op: LogicalOperator, ctx: ExecutionContext,
                    from_kernel: bool, rows: int = 0) -> None:
    """Record one kernel-or-fallback dispatch of ``op`` over ``rows``
    input rows: the query's ``quack.kernel_ops``/``quack.fallback_ops``
    and the operator's annotations."""
    _count("quack.kernel_ops" if from_kernel else "quack.fallback_ops")
    ctx.annotate(op, "rows_in", rows)
    ctx.annotate(op, "kernel" if from_kernel else "fallback")


#: The pair batch of a left chunk that matches nothing.
_NO_PAIRS = np.zeros(0, dtype=np.int64)


def _execute_join(op: LogicalJoin, ctx: ExecutionContext
                  ) -> Iterator[DataChunk]:
    """Every join method runs one loop.  A pair source yields, per left
    chunk, the left and the right rows of its candidate pairs; the loop
    keeps the pairs ``op.residual`` passes, gathers the output columns
    for those alone and, for a LEFT join, pads the left rows none of
    them kept."""
    if op.index_probe is not None and not op.equi_keys:
        pairs = _index_pairs(op, ctx)
        table, ids = op.right.table, op.right.column_ids
        gather = _PairGather(op, ctx, lambda c, rows: table.fetch(
            rows, (ids[c],)).vectors[0])
    else:
        right_chunks: list[DataChunk] | None = None
        if (
            ctx.memory_limit_bytes is not None
            and op.equi_keys
            and op.join_type == "inner"
        ):
            buffered, overflow = _watermark_buffer(op.right, ctx)
            if overflow is not None:
                yield from _grace_hash_join(op, buffered, overflow, ctx)
                return
            right_chunks = buffered
        built = DataChunk(
            _materialize(op, op.right, ctx, chunks=right_chunks) or []
        )
        source = _hash_pairs if op.equi_keys else _nested_loop_pairs
        pairs = source(op, built, ctx)
        gather = _PairGather(op, ctx, _taker(built))
    for left_chunk, left_rows, right_rows in pairs:
        left_rows, right_rows = gather.matches(left_chunk, left_rows,
                                               right_rows)
        if op.join_type == "left":
            yield from _emit_left_padding(op, left_chunk, left_rows)
        if len(left_rows):
            yield DataChunk(gather(op.column_ids, left_chunk, left_rows,
                                   right_rows))


class _PairGather:
    """Late materialisation for one join: the residual, remapped once
    onto the columns it reads, runs over those columns gathered for the
    candidate pairs; each column the join emits is gathered once, for
    the pairs that survive.  ``right`` gathers the right side: column,
    rows → vector."""

    def __init__(self, op: LogicalJoin, ctx: ExecutionContext, right):
        self.op, self.ctx, self.right = op, ctx, right
        self.split = len(op.left.output_types())
        self.residual = None
        if op.residual is not None:
            # A column-free residual still needs a pair count to run on.
            self.read = sorted(op.residual.columns_used()) or [0]
            self.residual = _remap(op.residual, {
                c: k for k, c in enumerate(self.read)
            }.__getitem__)

    def __call__(self, columns, left_chunk: DataChunk,
                 left_rows: np.ndarray, right_rows: np.ndarray
                 ) -> list[Vector]:
        split = self.split
        vectors = [
            left_chunk.vectors[c].take(left_rows) if c < split
            else self.right(c - split, right_rows)
            for c in columns
        ]
        _count_gathered(self.op, self.ctx, len(left_rows) * len(vectors))
        return vectors

    def matches(self, left_chunk: DataChunk, left_rows: np.ndarray,
                right_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The candidate pairs the residual passes."""
        if self.residual is None or not len(left_rows):
            return left_rows, right_rows
        pairs = DataChunk(self(self.read, left_chunk, left_rows, right_rows))
        mask = boolean_selection(evaluate(self.residual, pairs, self.ctx))
        return left_rows[mask], right_rows[mask]


def _taker(chunk: DataChunk):
    """A join's in-memory right side as a gather: column, rows → vector."""
    return lambda column, rows: chunk.vectors[column].take(rows)


def _emit_left_padding(op: LogicalJoin, left_chunk: DataChunk,
                       matched_rows: np.ndarray) -> Iterator[DataChunk]:
    """Pad the rows of ``left_chunk`` not in ``matched_rows`` with NULL
    right columns (LEFT JOIN semantics)."""
    unmatched = np.ones(left_chunk.count, dtype=np.bool_)
    unmatched[matched_rows] = False
    if not unmatched.any():
        return
    split = len(left_chunk.vectors)
    rows = int(unmatched.sum())
    right_types = op.right.output_types()
    yield DataChunk([
        left_chunk.vectors[c].slice(unmatched) if c < split
        else Vector.constant(right_types[c - split], None, rows)
        for c in op.column_ids
    ])


def _nested_loop_pairs(op: LogicalJoin, right: DataChunk,
                       ctx: ExecutionContext):
    """Block nested-loop pair source (also cross products): every left
    row against every right row."""
    for left_chunk in execute_plan(op.left, ctx):
        left_rows = np.repeat(np.arange(left_chunk.count), right.count)
        right_rows = np.tile(np.arange(right.count), left_chunk.count)
        yield left_chunk, left_rows, right_rows


def _index_pairs(op: LogicalJoin, ctx: ExecutionContext):
    """Index nested-loop pair source: each left chunk probes the right
    table's index with one ``probe_batch`` call; the pairs' right rows
    are the live row ids of the candidates."""
    index, op_name, left_expr = op.index_probe
    table = index.table
    for left_chunk in execute_plan(op.left, ctx):
        probe_vector = evaluate(left_expr, left_chunk, ctx)
        id_lists = index.probe_batch(op_name, probe_vector.to_list())
        if _verification.VERIFICATION_ENABLED:
            _crosscheck_index_probe(op, index, op_name, probe_vector,
                                    id_lists)
        probes = int(probe_vector.validity.sum())
        if probes:
            _count("executor.join_index_probes", probes)
            _count("executor.join_index_batches")
            ctx.annotate(op, "index_probes", probes)
            ctx.annotate(op, "batches")
        left_rep: list[int] = []
        row_ids: list[int] = []
        for i, ids in enumerate(id_lists):
            if not ids:
                continue
            live = table.live_row_ids(sorted(ids))
            row_ids.extend(live)
            left_rep.extend([i] * len(live))
        yield (left_chunk, np.asarray(left_rep, dtype=np.int64),
               np.asarray(row_ids, dtype=np.int64))


def _crosscheck_index_probe(op: LogicalJoin, index, op_name: str,
                            probe_vector: Vector, id_lists) -> None:
    """Re-probe the index row-at-a-time and compare candidate sets
    against the batch traversal's output."""
    from ..analysis.errors import VerificationError

    where = f"{op._explain_label()} {index.name}.probe_batch"
    for i, ids in enumerate(id_lists):
        value = probe_vector.value(i)
        expected = index.probe(op_name, value) if value is not None else None
        got_set = set(map(int, ids)) if ids else set()
        expected_set = set(map(int, expected)) if expected else set()
        if got_set != expected_set:
            raise VerificationError(
                f"kernel/fallback divergence in {where}: probe row {i} — "
                f"batch candidates {sorted(got_set)[:16]}, per-row probe "
                f"{sorted(expected_set)[:16]}"
            )
    _count("verify.kernel_crosschecks")


def _hash_pairs(op: LogicalJoin, right: DataChunk, ctx: ExecutionContext):
    """Hash-join pair source: the right side's equi-keys are built into
    one :class:`kernels.JoinBuild` that every left chunk probes."""
    if not right.count:
        for left_chunk in execute_plan(op.left, ctx):
            yield left_chunk, _NO_PAIRS, _NO_PAIRS
        return
    probe = _hash_prober(op, right, ctx)
    _count("executor.join_build_rows", right.count)
    _count("executor.join_kernel_builds")
    ctx.annotate(op, "kernel")
    for left_chunk in execute_plan(op.left, ctx):
        _count("executor.join_probe_rows", left_chunk.count)
        _count("executor.join_kernel_probes")
        _count_dispatch(op, ctx, True, left_chunk.count)
        left_rows, right_rows = probe(left_chunk)
        yield left_chunk, left_rows, right_rows


def _hash_prober(op: LogicalJoin, right: DataChunk, ctx: ExecutionContext):
    """Build ``op``'s equi-keys over ``right``; the returned function maps
    a left chunk to its ``(left rows, right rows)`` pairs.  Under
    verification the row-wise dict reference, built once here, checks
    every probe."""
    build_keys = [evaluate(rk, right, ctx) for _, rk in op.equi_keys]
    build = kernels.JoinBuild(build_keys,
                              [lk.ltype for lk, _ in op.equi_keys])
    reference = None
    if _verification.VERIFICATION_ENABLED:
        reference = _hash_join_dict_build(build_keys, right.count)

    def probe(left: DataChunk) -> tuple[np.ndarray, np.ndarray]:
        probe_keys = [evaluate(lk, left, ctx) for lk, _ in op.equi_keys]
        pairs = build.probe(probe_keys, left.count)
        if reference is not None:
            from ..analysis.verifier import assert_join_pairs_match

            assert_join_pairs_match(
                pairs,
                _hash_join_dict_probe(reference, probe_keys, left.count),
                f"{op._explain_label()} JoinBuild.probe",
            )
            _count("verify.kernel_crosschecks")
        return pairs

    return probe


def _hash_join_dict_build(key_vectors: list[Vector],
                          right_count: int) -> dict[tuple, list[int]]:
    """Row-wise reference build for the verifier, keyed through
    ``hashable_key`` so NaN and -0.0 keys behave exactly like the kernel
    (and the pgsim engine)."""
    hash_table: dict[tuple, list[int]] = {}
    for i in range(right_count):
        if not all(kv.validity[i] for kv in key_vectors):
            continue
        key = tuple(_hashable(kv.value(i)) for kv in key_vectors)
        hash_table.setdefault(key, []).append(i)
    return hash_table


def _hash_join_dict_probe(
    hash_table: dict[tuple, list[int]], probe_vectors: list[Vector], n: int
) -> tuple[np.ndarray, np.ndarray]:
    left_idx: list[int] = []
    right_idx: list[int] = []
    for i in range(n):
        if not all(pv.validity[i] for pv in probe_vectors):
            continue
        key = tuple(_hashable(pv.value(i)) for pv in probe_vectors)
        bucket = hash_table.get(key)
        if not bucket:
            continue
        left_idx.extend([i] * len(bucket))
        right_idx.extend(bucket)
    return (np.asarray(left_idx, dtype=np.int64),
            np.asarray(right_idx, dtype=np.int64))


# -- aggregation --------------------------------------------------------------------


def _execute_aggregate(op: LogicalAggregate,
                       ctx: ExecutionContext) -> Iterator[DataChunk]:
    out_types = op.output_types()
    chunks: list[DataChunk] | None = None
    if ctx.memory_limit_bytes is not None:
        buffered, overflow = _watermark_buffer(op.child, ctx)
        if overflow is not None:
            yield from _spilled_aggregate(op, buffered, overflow, ctx)
            return
        chunks = buffered
    columns = _materialize(op, op.child, ctx, chunks=chunks)
    ctx.annotate(op, "rows_in", 0 if columns is None else len(columns[0]))
    if columns is None:
        if not op.groups:
            # Aggregates over an empty input produce one row of finals.
            finals = tuple(
                spec.function.final(spec.function.init())
                for spec in op.aggregates
            )
            yield from _rows_to_chunks([finals], out_types)
        return
    out, _ = _aggregate_reduce(op, DataChunk(columns), ctx)
    n_out = out.count
    for start in range(0, n_out, STANDARD_VECTOR_SIZE):
        yield out.slice(
            np.arange(start, min(start + STANDARD_VECTOR_SIZE, n_out))
        )


def _aggregate_reduce(op: LogicalAggregate, full: DataChunk,
                      ctx: ExecutionContext) -> tuple[DataChunk, np.ndarray]:
    """Kernel aggregation of ``full``: the group rows in first-appearance
    order, and each group's first row in ``full``.  The no-GROUP-BY case
    is one implicit group."""
    group_vectors = [evaluate(g, full, ctx) for g in op.groups]
    if group_vectors:
        codes, representatives = kernels.factorize(group_vectors,
                                                   full.count)
        if _verification.VERIFICATION_ENABLED:
            _crosscheck_factorize(op, group_vectors, codes,
                                  representatives)
    else:
        codes = np.zeros(full.count, dtype=np.int64)
        representatives = np.zeros(1, dtype=np.int64)
    result = [gv.take(representatives) for gv in group_vectors]
    arg_vectors = [
        [evaluate(arg, full, ctx) for arg in spec.args]
        for spec in op.aggregates
    ]
    result.extend(
        _aggregate_specs_reduce(op, arg_vectors, codes,
                                len(representatives), ctx)
    )
    return DataChunk(result), representatives


def _aggregate_specs_reduce(op: LogicalAggregate,
                            arg_vectors: list[list[Vector]],
                            codes: np.ndarray, n_groups: int,
                            ctx: ExecutionContext) -> list[Vector]:
    """Reduce every aggregate spec over pre-evaluated argument vectors
    (step_batch kernel with crosscheck, else the row loop).  DISTINCT is
    a selection, not a reducer feature: the spec reduces the first row
    of every distinct ``(group, arguments)`` tuple."""
    result: list[Vector] = []
    for a, spec in enumerate(op.aggregates):
        args, spec_codes = arg_vectors[a], codes
        if spec.distinct:
            keys = [Vector(BIGINT, codes), *args]
            tuple_codes, rows = kernels.factorize(keys, len(codes))
            if _verification.VERIFICATION_ENABLED:
                _crosscheck_factorize(op, keys, tuple_codes, rows)
            args, spec_codes = [v.slice(rows) for v in args], codes[rows]
        vec: Vector | None = None
        if spec.function.step_batch is not None:
            vec = spec.function.step_batch(args, spec_codes, n_groups,
                                           spec.ltype)
        _count_dispatch(op, ctx, vec is not None)
        if vec is None:
            vec = _aggregate_spec_row_loop(spec, args, spec_codes, n_groups)
        elif _verification.VERIFICATION_ENABLED:
            _crosscheck_vectors(
                vec,
                _aggregate_spec_row_loop(spec, args, spec_codes, n_groups),
                f"{op._explain_label()} {spec.function.name}.step_batch",
            )
        result.append(vec)
    return result


def _aggregate_spec_row_loop(spec, arg_vectors: list[Vector],
                             codes: np.ndarray, n_groups: int) -> Vector:
    """Row-wise fallback for one aggregate (extension-registered
    aggregates, or kernels that declined the payload type)."""
    fn = spec.function
    states = [fn.init() for _ in range(n_groups)]
    rows = value_rows(arg_vectors, len(codes))
    for group, values in zip(codes.tolist(), rows):
        if values and not fn.accepts_null and any(
            v is None for v in values
        ):
            continue
        states[group] = fn.step(states[group], *values)
    return Vector.from_values(spec.ltype, [fn.final(s) for s in states])


def _crosscheck_factorize(op: LogicalOperator, vectors: list[Vector],
                          codes: np.ndarray,
                          representatives: np.ndarray) -> None:
    """Re-derive the grouping with the row-wise seen-dict fallback and
    compare codes and representatives against the factorize kernel."""
    from ..analysis.verifier import assert_index_lists_match

    expected_codes: list[int] = []
    expected_reps: list[int] = []
    first: dict[tuple, int] = {}
    for i, row in enumerate(value_rows(vectors, len(codes))):
        key = tuple(map(_hashable, row))
        code = first.get(key)
        if code is None:
            code = len(first)
            first[key] = code
            expected_reps.append(i)
        expected_codes.append(code)
    where = f"{op._explain_label()} kernels.factorize"
    assert_index_lists_match(list(codes), expected_codes, where)
    assert_index_lists_match(list(representatives), expected_reps, where)
    _count("verify.kernel_crosschecks")


def _rows_to_chunks(rows: list[tuple],
                    types: list[LogicalType]) -> Iterator[DataChunk]:
    for start in range(0, len(rows), STANDARD_VECTOR_SIZE):
        block = rows[start : start + STANDARD_VECTOR_SIZE]
        yield DataChunk(
            [
                Vector.from_values(t, [row[c] for row in block])
                for c, t in enumerate(types)
            ]
        )


# -- spilling -----------------------------------------------------------------------
#
# ``SET memory_limit = <MB>`` arms a watermark on the three blocking
# sinks (sort, hash-join build, aggregation).  Each sink first streams
# its input while counting working-set bytes; inputs that stay under
# the watermark take the exact in-memory path (the buffered chunks are
# handed to ``_materialize``), so spill-off executions are untouched.
# Past the watermark the sink switches to a disk-backed algorithm over
# columnar ``SpillFile`` chunks, built from the in-memory operators'
# kernels and reproducing their row order bit-for-bit:
#
# * sort      — bounded runs sorted by the same permutation kernel and
#               spilled with their key columns, merged one block per run
#               by ``kernels.merge_sorted_runs`` (ties go to the lower
#               run, i.e. the earlier input row: the in-memory stable sort);
# * aggregate — hash partitioning on the group key with each row's
#               global index; every partition runs the in-memory kernel
#               aggregation, and the group rows sort by the global index
#               of their first row (== first-appearance order);
# * hash join — Grace partitioning of both sides tagged with global row
#               indices; each partition pair joins through the hash-join
#               kernels into a run sorted by (left, right) index, and the
#               sort's block merge over those runs reproduces the
#               in-memory probe-major order.  Only inner equi-joins
#               spill; LEFT joins and index nested-loop joins keep their
#               build side in memory (the documented scale ceiling).
#
# Partitions assume the classic Grace bound: each of the
# ``_SPILL_PARTITIONS`` partitions (~1/8 of the input) must fit in
# memory during its build/reduce — inputs needing recursive partitioning
# are out of scope.

_SPILL_PARTITIONS = 8


def _watermark_buffer(child: LogicalOperator, ctx: ExecutionContext
                      ) -> tuple[list[DataChunk], Iterator[DataChunk] | None]:
    """Stream ``child`` until the memory watermark.

    Returns ``(buffered, overflow)``: ``overflow`` is None when the
    whole input fit under ``ctx.memory_limit_bytes`` (take the
    in-memory path with ``buffered``), otherwise it continues the
    stream past the buffered prefix and the caller must spill."""
    source = execute_plan(child, ctx)
    limit = ctx.memory_limit_bytes
    if limit is None:
        return list(source), None
    buffered: list[DataChunk] = []
    used = 0
    for chunk in source:
        buffered.append(chunk)
        used += _storage.chunk_nbytes(chunk)
        if used > limit:
            return buffered, source
    return buffered, None


def _chain_chunks(buffered: list[DataChunk],
                  overflow: Iterator[DataChunk] | None
                  ) -> Iterator[DataChunk]:
    yield from buffered
    if overflow is not None:
        yield from overflow


def _bounded_batches(chunks: Iterator[DataChunk], limit: int
                     ) -> Iterator[list[DataChunk]]:
    """Cut a chunk stream into consecutive batches that each just pass
    ``limit`` working-set bytes (the last may fall short)."""
    batch: list[DataChunk] = []
    used = 0
    for chunk in chunks:
        if not chunk.count:
            continue
        batch.append(chunk)
        used += _storage.chunk_nbytes(chunk)
        if used > limit:
            yield batch
            batch = []
            used = 0
    if batch:
        yield batch


def _spill_blocks(run: _storage.SpillFile, chunk: DataChunk,
                  order: np.ndarray) -> None:
    """Write ``chunk``'s rows in ``order``, one ``STANDARD_VECTOR_SIZE``
    block at a time — the unit the merge loads per run."""
    for start in range(0, len(order), STANDARD_VECTOR_SIZE):
        run.write_chunk(
            chunk.slice(order[start : start + STANDARD_VECTOR_SIZE])
        )


def _scatter(chunk: DataChunk, key_vectors: list[Vector], base: int,
             parts: list[_storage.SpillFile], drop_null_keys: bool) -> None:
    """Append each row of ``chunk``, tagged with its global row index
    (``base`` + position), to the partition its key hashes to."""
    part_of = kernels.partition_codes(key_vectors, chunk.count, len(parts))
    if drop_null_keys:
        for kv in key_vectors:
            part_of[~kv.validity] = -1
    tagged = DataChunk(chunk.vectors + [
        Vector(BIGINT, np.arange(base, base + chunk.count, dtype=np.int64))
    ])
    for p in np.unique(part_of[part_of >= 0]):
        parts[p].write_chunk(tagged.slice(part_of == p))


def _spill_sorted_run(op: LogicalSort, chunks: list[DataChunk], key_specs,
                      ctx: ExecutionContext
                      ) -> tuple[_storage.SpillFile, bool]:
    """Sort ``chunks`` into a spilled run: the rows in sorted order, each
    followed by its evaluated key columns.  Returns the run and whether
    the sort kernel (not the comparator) ordered it."""
    full = concat_chunks(chunks)
    key_vectors = [evaluate(k, full, ctx) for k, _, _ in op.keys]
    perm, from_kernel = kernels.order_permutation(key_vectors, key_specs)
    keyed = DataChunk(full.vectors + key_vectors)
    run = _storage.SpillFile([v.ltype for v in keyed.vectors])
    try:
        _spill_blocks(run, keyed, perm)
    except BaseException:
        run.close()
        raise
    return run, from_kernel


def _external_sort(op: LogicalSort, buffered: list[DataChunk],
                   overflow: Iterator[DataChunk],
                   ctx: ExecutionContext) -> Iterator[DataChunk]:
    """Past-watermark ORDER BY: bounded sorted runs spilled to disk,
    merged one ``STANDARD_VECTOR_SIZE`` block per run."""
    key_specs = [(asc, nf) for _, asc, nf in op.keys]
    verify = _verification.VERIFICATION_ENABLED
    seen: list[DataChunk] = []
    emitted: list[DataChunk] = []
    runs: list[_storage.SpillFile] = []
    try:
        from_kernel = True
        for batch in _bounded_batches(_chain_chunks(buffered, overflow),
                                      ctx.memory_limit_bytes):
            if verify:
                seen.extend(batch)
            run, kernel_sorted = _spill_sorted_run(op, batch, key_specs,
                                                   ctx)
            runs.append(run)
            from_kernel &= kernel_sorted
        _count_dispatch(op, ctx, from_kernel, sum(run.rows for run in runs))
        _count("storage.spilled_sorts")
        _count("storage.spill_runs", len(runs))
        ctx.annotate(op, "spill_runs", len(runs))
        for chunk in kernels.merge_sorted_runs(
            [(run.read_chunks(), run.chunks) for run in runs],
            len(op.keys), key_specs,
        ):
            if verify:
                emitted.append(chunk)
            yield chunk
        if verify and seen:
            full = concat_chunks(seen)
            _crosscheck_sort(
                op, full, [evaluate(k, full, ctx) for k, _, _ in op.keys],
                key_specs, concat_chunks(emitted),
            )
    finally:
        for run in runs:
            run.close()


def _spilled_aggregate(op: LogicalAggregate, buffered: list[DataChunk],
                       overflow: Iterator[DataChunk],
                       ctx: ExecutionContext) -> Iterator[DataChunk]:
    """Past-watermark GROUP BY: hash-partition rows on the group key,
    aggregate each partition with the in-memory kernels, order the group
    rows by the global index of their first input row."""
    # Partitions are allocated inside the try: extend() appends each
    # spill file as it is created, so a failure partway through still
    # leaves every opened handle in the list the finally closes.
    parts: list[_storage.SpillFile] = []
    try:
        parts.extend(
            _storage.SpillFile(op.child.output_types() + [BIGINT])
            for _ in range(_SPILL_PARTITIONS)
        )
        base = 0
        for chunk in _chain_chunks(buffered, overflow):
            if not chunk.count:
                continue
            _scatter(chunk, [evaluate(g, chunk, ctx) for g in op.groups],
                     base, parts, drop_null_keys=False)
            base += chunk.count
        ctx.annotate(op, "rows_in", base)
        _count("storage.spilled_aggregates")
        _count("storage.spill_partitions", len(parts))
        ctx.annotate(op, "spill_partitions", len(parts))
        outs: list[DataChunk] = []
        firsts: list[np.ndarray] = []
        for part in parts:
            if not part.rows:
                continue
            tagged = concat_chunks(list(part.read_chunks()))
            out, representatives = _aggregate_reduce(
                op, DataChunk(tagged.vectors[:-1]), ctx
            )
            outs.append(out)
            firsts.append(tagged.vectors[-1].data[representatives])
        # First-occurrence global index order == the first-appearance
        # group order of the in-memory paths.
        out = concat_chunks(outs)
        order = np.argsort(np.concatenate(firsts), kind="stable")
        for start in range(0, len(order), STANDARD_VECTOR_SIZE):
            yield out.slice(order[start : start + STANDARD_VECTOR_SIZE])
    finally:
        for part in parts:
            part.close()


def _grace_hash_join(op: LogicalJoin, right_buffered: list[DataChunk],
                     right_overflow: Iterator[DataChunk],
                     ctx: ExecutionContext) -> Iterator[DataChunk]:
    """Past-watermark inner equi-join: Grace hash partitioning of both
    sides with global row indices; every partition pair joins into a
    spilled run sorted by (left, right) index, and the runs merge back
    into the in-memory probe-major order."""
    left_types = op.left.output_types()
    right_types = op.right.output_types()
    left_keys = [lk for lk, _ in op.equi_keys]
    right_keys = [rk for _, rk in op.equi_keys]
    # Allocated inside the try below (not here): creating the temp files
    # can fail partway, and handles created before a try are orphaned
    # when a later allocation raises.
    spills: list[_storage.SpillFile] = []
    try:
        spills.extend(_storage.SpillFile(right_types + [BIGINT])
                      for _ in range(_SPILL_PARTITIONS))
        spills.extend(_storage.SpillFile(left_types + [BIGINT])
                      for _ in range(_SPILL_PARTITIONS))
        build_parts = spills[:_SPILL_PARTITIONS]
        probe_parts = spills[_SPILL_PARTITIONS:]
        base = 0
        for chunk in _chain_chunks(right_buffered, right_overflow):
            if not chunk.count:
                continue
            _count("executor.join_build_rows", chunk.count)
            # NULL keys never match an inner equi-join; drop them at
            # partitioning time exactly like the in-memory build/probe.
            _scatter(chunk, [evaluate(k, chunk, ctx) for k in right_keys],
                     base, build_parts, drop_null_keys=True)
            base += chunk.count
        base = 0
        for chunk in execute_plan(op.left, ctx):
            if not chunk.count:
                continue
            _count("executor.join_probe_rows", chunk.count)
            _scatter(chunk, [evaluate(k, chunk, ctx) for k in left_keys],
                     base, probe_parts, drop_null_keys=True)
            base += chunk.count
        ctx.annotate(op, "rows_in", base)
        _count("storage.spilled_joins")
        _count("storage.spill_partitions", 2 * _SPILL_PARTITIONS)
        ctx.annotate(op, "spill_partitions", _SPILL_PARTITIONS)
        runs: list[_storage.SpillFile] = []
        gather = _PairGather(op, ctx, None)
        for build_part, probe_part in zip(build_parts, probe_parts):
            if not build_part.rows or not probe_part.rows:
                continue
            run = _storage.SpillFile(op.output_types() + [BIGINT, BIGINT])
            spills.append(run)
            runs.append(run)
            _join_partition(op, gather, build_part, probe_part, run, ctx)
        yield from kernels.merge_sorted_runs(
            [(run.read_chunks(), run.chunks) for run in runs],
            2, [(True, None), (True, None)],
        )
    finally:
        for spill in spills:
            spill.close()


def _join_partition(op: LogicalJoin, gather: _PairGather,
                    build_part: _storage.SpillFile,
                    probe_part: _storage.SpillFile,
                    run: _storage.SpillFile, ctx: ExecutionContext) -> None:
    """Join one Grace partition pair into ``run``: matched rows passing
    the residual, followed by their (left, right) global indices.  Probe
    rows replay in global left order and the probe emits build rows
    ascending, so the run is sorted by that index pair."""
    right = concat_chunks(list(build_part.read_chunks()))
    right_index = right.vectors.pop()
    probe = _hash_prober(op, right, ctx)
    gather.right = _taker(right)
    for left in probe_part.read_chunks():
        left_index = left.vectors.pop()
        left_rows, right_rows = gather.matches(left, *probe(left))
        matched = DataChunk(
            gather(op.column_ids, left, left_rows, right_rows)
            + [left_index.take(left_rows), right_index.take(right_rows)]
        )
        _spill_blocks(run, matched, np.arange(matched.count))


# -- sort / distinct ------------------------------------------------------------------


def _execute_sort(op: LogicalSort, ctx: ExecutionContext,
                  limit: int | None = None) -> Iterator[DataChunk]:
    """ORDER BY; with ``limit``, the in-memory path emits only the first
    ``limit`` rows of the stable sort (DuckDB's TOP_N).  The spilling
    path sorts everything."""
    chunks: list[DataChunk] | None = None
    if ctx.memory_limit_bytes is not None:
        buffered, overflow = _watermark_buffer(op.child, ctx)
        if overflow is not None:
            yield from _external_sort(op, buffered, overflow, ctx)
            return
        chunks = buffered
    columns = _materialize(op, op.child, ctx, chunks=chunks)
    if columns is None:
        return
    full = DataChunk(columns)
    key_specs = [(asc, nf) for _, asc, nf in op.keys]
    key_vectors = [evaluate(k, full, ctx) for k, _, _ in op.keys]
    perm, from_kernel = kernels.order_permutation(key_vectors, key_specs,
                                                  limit)
    _count_dispatch(op, ctx, from_kernel, full.count)
    if from_kernel and _verification.VERIFICATION_ENABLED:
        _crosscheck_sort(op, full, key_vectors, key_specs,
                         full.slice(perm))
    for start in range(0, len(perm), STANDARD_VECTOR_SIZE):
        yield full.slice(perm[start : start + STANDARD_VECTOR_SIZE])


def _crosscheck_sort(op: LogicalSort, full: DataChunk,
                     key_vectors: list[Vector], key_specs,
                     actual: DataChunk) -> None:
    """Re-sort ``full`` row-wise with the comparator fallback and compare
    the row sequence against ``actual``, the kernel-sorted (in-memory,
    top-N or externally merged) output: the sorted rows, or their first
    ``actual.count``."""
    from ..analysis.verifier import assert_rows_match

    reference = kernels.comparator_permutation(
        key_vectors, key_specs)[:actual.count]
    assert_rows_match(
        actual.rows(), full.slice(reference).rows(),
        f"{op._explain_label()} kernels.sort_permutation",
    )
    _count("verify.kernel_crosschecks")


def _execute_set_op(op: LogicalSetOp,
                    ctx: ExecutionContext) -> Iterator[DataChunk]:
    types = op.output_types()
    if op.concatenates:
        yield from execute_plan(op.left, ctx)
        for chunk in execute_plan(op.right, ctx):
            # Reinterpret right columns under the left's types.
            yield DataChunk(
                [v.with_type(t) for v, t in zip(chunk.vectors, types)]
            )
        return
    rows = op.combine(_plan_rows(op.left, ctx), _plan_rows(op.right, ctx))
    yield from _rows_to_chunks(list(rows), types)


def _execute_distinct(op: LogicalDistinct,
                      ctx: ExecutionContext) -> Iterator[DataChunk]:
    columns = _materialize(op, op.child, ctx)
    if columns is None:
        ctx.annotate(op, "rows_in", 0)
        return
    full = DataChunk(columns)
    _count_dispatch(op, ctx, True, full.count)
    codes, representatives = kernels.factorize(full.vectors, full.count)
    if _verification.VERIFICATION_ENABLED:
        _crosscheck_factorize(op, full.vectors, codes, representatives)
    for start in range(0, len(representatives), STANDARD_VECTOR_SIZE):
        yield full.slice(representatives[start : start + STANDARD_VECTOR_SIZE])
