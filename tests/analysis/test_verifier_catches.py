"""Seeded-defect tests: each test corrupts a plan, a rewrite, or an
operator output in a distinct way and asserts the verifier not only
catches it but *names the guilty optimizer rule or operator*."""

import numpy as np
import pytest

from repro import core
from repro.analysis import VerificationError
from repro.analysis.verifier import verify_chunk, verify_plan
from repro.quack import Database
from repro.quack.catalog import Table
from repro.quack.functions import ScalarFunction
from repro.quack.optimizer import _Optimizer
from repro.quack.plan import (
    BoundColumnRef,
    BoundConstant,
    BoundFunction,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalProject,
)
from repro.quack.types import DOUBLE, INTEGER, VARCHAR
from repro.quack.vector import DataChunk, Vector


@pytest.fixture
def con():
    db = Database()
    con = db.connect()
    con.execute("CREATE TABLE a(x INTEGER, y INTEGER)")
    con.execute("CREATE TABLE b(x INTEGER, z INTEGER)")
    con.execute("INSERT INTO a VALUES (1, 10), (2, 20)")
    con.execute("INSERT INTO b VALUES (1, 100), (3, 300)")
    return con


@pytest.fixture
def spatial_con():
    con = core.connect()
    con.execute("CREATE TABLE geo(id INTEGER, box STBOX)")
    con.execute("CREATE INDEX rt ON geo USING TRTREE(box)")
    con.execute(
        "INSERT INTO geo SELECT i, ('STBOX X((' || i || ',' || i ||"
        " '),(' || (i + 1) || ',' || (i + 1) || '))')"
        " FROM generate_series(1, 50) AS t(i)"
    )
    return con


JOIN_QUERY = "SELECT * FROM a, b WHERE a.x = b.x AND a.y > 5"


class TestRewriteCorruption:
    """Optimizer rewrites are snapshot-checked; the blame names the
    rule(s) that fired during the corrupted rewrite."""

    def test_dropped_predicate_names_rule(
        self, con, verification, monkeypatch
    ):
        inner = _Optimizer._rewrite_filter_inner

        def strip_leaf_filter(op):
            if isinstance(op, LogicalFilter) and isinstance(
                op.child, LogicalGet
            ):
                return op.child  # the pushed-down conjunct vanishes
            for name in ("left", "right", "child"):
                if hasattr(op, name):
                    setattr(op, name, strip_leaf_filter(getattr(op, name)))
            return op

        def corrupt(self, op):
            return strip_leaf_filter(inner(self, op))

        monkeypatch.setattr(_Optimizer, "_rewrite_filter_inner", corrupt)
        with pytest.raises(VerificationError) as err:
            con.execute(JOIN_QUERY)
        assert "dropped predicate" in str(err.value)
        assert "filter_pushdown" in str(err.value)

    def test_invented_predicate_names_rule(
        self, con, verification, monkeypatch
    ):
        inner = _Optimizer._rewrite_filter_inner

        def corrupt(self, op):
            # Re-apply the original condition on top: every conjunct is
            # now counted twice.
            return LogicalFilter(op.condition, inner(self, op))

        monkeypatch.setattr(_Optimizer, "_rewrite_filter_inner", corrupt)
        with pytest.raises(VerificationError) as err:
            con.execute(JOIN_QUERY)
        assert "invented predicate" in str(err.value)
        assert "optimizer rule" in str(err.value)

    def test_schema_changing_rewrite(self, con, verification, monkeypatch):
        inner = _Optimizer._rewrite_filter_inner

        def corrupt(self, op):
            result = inner(self, op)
            first = result.output_types()[0]
            return LogicalProject(
                exprs=[BoundColumnRef(0, first, result.output_names()[0])],
                names=[result.output_names()[0]],
                child=result,
            )

        monkeypatch.setattr(_Optimizer, "_rewrite_filter_inner", corrupt)
        with pytest.raises(VerificationError) as err:
            con.execute(JOIN_QUERY)
        assert "schema-changing rewrite" in str(err.value)

    def test_bad_index_scan_injection(
        self, spatial_con, verification, monkeypatch
    ):
        from repro.quack.plan import LogicalIndexScan

        inner = _Optimizer._try_push_into_leaf

        def corrupt(self, leaf, conjuncts):
            leaf, remaining = inner(self, leaf, conjuncts)
            if isinstance(leaf, LogicalIndexScan):
                leaf.op_name = "<<broken>>"  # index never advertised this
            return leaf, remaining

        monkeypatch.setattr(_Optimizer, "_try_push_into_leaf", corrupt)
        with pytest.raises(VerificationError) as err:
            spatial_con.execute(
                "SELECT id FROM geo WHERE box && "
                "stbox('STBOX X((10,10),(20,20))')"
            )
        message = str(err.value)
        assert "index_scan_injection" in message
        assert "does not advertise" in message
        assert "rt" in message


class TestPlanCorruption:
    """Hand-corrupted plans fed straight to verify_plan; errors carry the
    operator's EXPLAIN label."""

    def test_dangling_column_binding(self, con):
        table = con.database.catalog.get_table("a")
        plan = LogicalProject(
            exprs=[BoundColumnRef(7, INTEGER, "ghost")],
            names=["ghost"],
            child=LogicalGet(table),
        )
        with pytest.raises(VerificationError) as err:
            verify_plan(plan)
        assert "PROJECTION" in str(err.value)
        assert "dangling column binding #7" in str(err.value)

    def test_unresolved_expression_type(self, con):
        table = con.database.catalog.get_table("a")
        # The filter's own output schema stays valid (it is the child's),
        # so this exercises the per-expression type check.
        plan = LogicalFilter(
            BoundColumnRef(0, None, "x"), LogicalGet(table)
        )
        with pytest.raises(VerificationError) as err:
            verify_plan(plan)
        assert "carries no resolved type" in str(err.value)

    def test_function_missing_from_catalog(self, con):
        table = con.database.catalog.get_table("a")
        ghost = ScalarFunction(
            name="no_such_fn", arg_types=(), return_type=INTEGER
        )
        plan = LogicalProject(
            exprs=[BoundFunction(ghost, [], INTEGER, "no_such_fn")],
            names=["v"],
            child=LogicalGet(table),
        )
        with pytest.raises(VerificationError) as err:
            verify_plan(plan, con.database.functions)
        assert "'no_such_fn' is not in the catalog" in str(err.value)

    def test_non_boolean_filter_condition(self, con):
        table = con.database.catalog.get_table("a")
        plan = LogicalFilter(
            BoundConstant(1, INTEGER), LogicalGet(table)
        )
        with pytest.raises(VerificationError) as err:
            verify_plan(plan)
        assert "filter condition has type INTEGER" in str(err.value)

    def test_index_join_lost_recheck_residual(self, spatial_con):
        table = spatial_con.database.catalog.get_table("geo")
        index = table.indexes[0]
        box_type = table.column_types[1]
        join = LogicalJoin(
            LogicalGet(table),
            LogicalGet(table),
            "inner",
            residual=None,  # the exact recheck is gone
            index_probe=(index, "&&", BoundColumnRef(1, box_type, "box")),
        )
        with pytest.raises(VerificationError) as err:
            verify_plan(join)
        assert "without a recheck residual" in str(err.value)


class TestChunkCorruption:
    """Runtime chunk invariants: every message names the operator."""

    @pytest.fixture
    def get_op(self):
        table = Table("t", [("x", INTEGER), ("y", INTEGER)])
        return LogicalGet(table)

    def test_column_count_mismatch(self, get_op):
        chunk = DataChunk([Vector.from_values(INTEGER, [1, 2])])
        with pytest.raises(VerificationError) as err:
            verify_chunk(get_op, chunk)
        assert "produced 1 columns, schema declares 2" in str(err.value)
        assert "SEQ_SCAN" in str(err.value)

    def test_cardinality_mismatch(self, get_op):
        chunk = DataChunk([
            Vector.from_values(INTEGER, [1, 2, 3]),
            Vector.from_values(INTEGER, [4, 5, 6]),
        ])
        chunk.vectors[1] = Vector.from_values(INTEGER, [4])
        with pytest.raises(VerificationError) as err:
            verify_chunk(get_op, chunk)
        assert "chunk cardinality is 3" in str(err.value)

    def test_validity_mask_length(self, get_op):
        chunk = DataChunk([
            Vector.from_values(INTEGER, [1, 2, 3]),
            Vector.from_values(INTEGER, [4, 5, 6]),
        ])
        chunk.vectors[0].validity = np.ones(2, dtype=np.bool_)
        with pytest.raises(VerificationError) as err:
            verify_chunk(get_op, chunk)
        assert "validity mask has 2 entries for 3 rows" in str(err.value)

    def test_physical_type_mismatch(self, get_op):
        chunk = DataChunk([
            Vector.from_values(DOUBLE, [1.0, 2.0]),
            Vector.from_values(INTEGER, [4, 5]),
        ])
        with pytest.raises(VerificationError) as err:
            verify_chunk(get_op, chunk)
        assert "physically float64, schema declares INTEGER" in str(
            err.value
        )

    def test_stale_aux_cache_detected(self, verification):
        vector = Vector.from_values(VARCHAR, ["a", "b", "c"])
        vector.cached_aux("upper", lambda v: [s.upper() for s in v.data])
        vector.data[1] = "z"  # in-place mutation stales the cached view
        with pytest.raises(VerificationError) as err:
            vector.verify_aux_fresh("test site")
        assert "stale _aux cache in test site" in str(err.value)

    def test_fresh_aux_cache_passes(self, verification):
        vector = Vector.from_values(VARCHAR, ["a", "b"])
        vector.cached_aux("upper", lambda v: [s.upper() for s in v.data])
        vector.verify_aux_fresh("test site")  # no mutation: fine


class TestKernelCrosscheck:
    def test_divergent_batch_kernel_names_function(self, verification):
        broken = ScalarFunction(
            name="broken_batch",
            arg_types=(INTEGER,),
            return_type=INTEGER,
            fn_scalar=lambda x: x + 1,
            evaluate_batch=lambda args, count, row_loop: Vector.from_values(
                INTEGER, [0] * count
            ),
        )
        with pytest.raises(VerificationError) as err:
            broken.evaluate([Vector.from_values(INTEGER, [1, 2, 3])], 3)
        message = str(err.value)
        assert "kernel/fallback divergence" in message
        assert "'broken_batch' evaluate_batch" in message

    def test_honest_batch_kernel_passes(self, verification):
        honest = ScalarFunction(
            name="honest_batch",
            arg_types=(INTEGER,),
            return_type=INTEGER,
            fn_scalar=lambda x: x + 1,
            evaluate_batch=lambda args, count, row_loop: Vector.from_values(
                INTEGER, [int(v) + 1 for v in args[0].data]
            ),
        )
        result = honest.evaluate([Vector.from_values(INTEGER, [1, 2])], 2)
        assert result.to_list() == [2, 3]


class TestCounterRegistry:
    def test_undeclared_counter_rejected(self, verification):
        from repro.observability import QueryStatistics

        stats = QueryStatistics()
        stats.bump("verify.plans")  # declared: fine
        stats.bump("optimizer.rule.whatever")  # declared prefix: fine
        with pytest.raises(VerificationError) as err:
            stats.bump("verify.bogus_counter")
        assert "verify.bogus_counter" in str(err.value)
