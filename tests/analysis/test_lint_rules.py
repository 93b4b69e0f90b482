"""Unit tests for the custom AST lint rules, fed synthetic sources."""

import ast
import textwrap

import pytest

from repro.analysis.lint.rules import check_module


def run(source, module="repro.quack.executor", filename="executor.py"):
    tree = ast.parse(textwrap.dedent(source))
    return check_module(tree, module, filename)


def codes(source, **kwargs):
    return [code for _, _, code, _ in run(source, **kwargs)]


class TestBareExcept:
    def test_flagged(self):
        src = """
            try:
                x = 1
            except:
                pass
        """
        assert codes(src) == ["ANL001"]

    def test_typed_except_clean(self):
        src = """
            try:
                x = 1
            except ValueError:
                pass
        """
        assert codes(src) == []


class TestKernelFallbackProvenance:
    SRC = """
        from .errors import KernelFallback

        def f():
            raise KernelFallback("unsupported payload")
    """

    def test_flagged_outside_kernel_modules(self):
        assert "ANL002" in codes(self.SRC)

    def test_allowed_in_kernel_modules(self):
        assert "ANL002" not in codes(
            self.SRC, module="repro.quack.kernels", filename="kernels.py"
        )

    def test_attribute_form_flagged(self):
        src = """
            import errors

            def f():
                raise errors.KernelFallback
        """
        assert "ANL002" in codes(src)


class TestEngineImportBoundaries:
    def test_pgsim_importing_quack_internals_flagged(self):
        src = "from ..quack.kernels import sort_rows\nuse(sort_rows)\n"
        assert codes(
            src, module="repro.pgsim.executor", filename="executor.py"
        ) == ["ANL004"]

    def test_pgsim_importing_shared_frontend_clean(self):
        src = (
            "from ..quack.keys import hashable_key, sort_comparator\n"
            "use(hashable_key, sort_comparator)\n"
        )
        assert codes(
            src, module="repro.pgsim.executor", filename="executor.py"
        ) == []

    @pytest.mark.parametrize("src", [
        "import pickle\nuse(pickle)\n",
        "from pickle import loads\nuse(loads)\n",
    ])
    def test_pgsim_importing_pickle_flagged(self, src):
        assert codes(
            src, module="repro.pgsim.table", filename="table.py"
        ) == ["ANL004"]

    def test_pickle_outside_pgsim_clean(self):
        assert codes(
            "import pickle\nuse(pickle)\n",
            module="repro.quack.storage", filename="storage.py",
        ) == []

    def test_quack_importing_pgsim_flagged(self):
        src = "from ..pgsim.table import Varlena\nuse(Varlena)\n"
        assert codes(
            src, module="repro.quack.executor", filename="executor.py"
        ) == ["ANL004"]

    @pytest.mark.parametrize("src", [
        "from ..core.boxkernels import BoxSoA\nuse(BoxSoA)\n",
        "from ..index import BoxIndex\nuse(BoxIndex)\n",
        "from .. import geo\nuse(geo)\n",
        "import repro.geo.kernels\nuse(repro)\n",
        "from ..meos import STBox\nuse(STBox)\n",
    ])
    def test_quack_importing_an_extension_package_flagged(self, src):
        assert codes(
            src, module="repro.quack.stats", filename="stats.py"
        ) == ["ANL004"]

    def test_quack_importing_meos_time_io_clean(self):
        src = ("from ..meos.timetypes import format_date\n"
               "use(format_date)\n")
        assert codes(src, module="repro.quack.io", filename="io.py") == []

    def test_observability_importing_engine_flagged(self):
        src = "from repro.quack.vector import Vector\nuse(Vector)\n"
        assert codes(
            src, module="repro.observability.stats", filename="stats.py"
        ) == ["ANL004"]

    def test_unrelated_module_clean(self):
        src = "from repro.quack.kernels import sort_rows\nuse(sort_rows)\n"
        assert codes(
            src, module="repro.core.functions.boxes", filename="boxes.py"
        ) == []


class TestVectorOwnership:
    def test_foreign_payload_write_flagged(self):
        assert codes("vec.data[0] = 1") == ["ANL005"]
        assert codes("vec.validity = mask") == ["ANL005"]

    def test_self_write_clean(self):
        src = """
            class Vector:
                def reset(self):
                    self.data = None
        """
        assert codes(src) == []

    def test_owner_module_clean(self):
        assert codes(
            "vec.data[0] = 1",
            module="repro.quack.vector",
            filename="vector.py",
        ) == []


class TestEvaluateBatchFallback:
    def test_batch_without_scalar_flagged(self):
        src = """
            ScalarFunction(
                name="f", arg_types=(), return_type=T,
                evaluate_batch=kernel,
            )
        """
        violations = run(src)
        assert [c for _, _, c, _ in violations] == ["ANL006"]
        assert "no reachable scalar fallback" in violations[0][3]

    def test_batch_with_scalar_clean(self):
        src = """
            ScalarFunction(
                name="f", arg_types=(), return_type=T,
                fn_scalar=impl, evaluate_batch=kernel,
            )
        """
        assert codes(src) == []

    def test_batch_shadowed_by_vector_flagged(self):
        src = """
            ScalarFunction(
                name="f", arg_types=(), return_type=T,
                fn_scalar=impl, fn_vector=vec, evaluate_batch=kernel,
            )
        """
        violations = run(src)
        assert [c for _, _, c, _ in violations] == ["ANL006"]
        assert "dead code" in violations[0][3]


class TestUnusedImports:
    def test_unused_flagged(self):
        violations = run("import os\n")
        assert [c for _, _, c, _ in violations] == ["ANL007"]
        assert "'os'" in violations[0][3]

    def test_used_clean(self):
        assert codes("import os\nprint(os.sep)\n") == []

    def test_string_annotation_counts_as_use(self):
        src = """
            from stats import QueryStatistics

            def absorb(stats: "QueryStatistics") -> None:
                pass
        """
        assert codes(src) == []

    def test_explicit_reexport_idiom_clean(self):
        assert codes("from mod import thing as thing\n") == []

    def test_all_export_counts_as_use(self):
        src = """
            from mod import thing

            __all__ = ["thing"]
        """
        assert codes(src) == []

    def test_init_py_exempt(self):
        assert codes(
            "from mod import thing\n",
            module="repro.quack",
            filename="__init__.py",
        ) == []


class TestModuleMutableState:
    def test_lowercase_dict_flagged(self):
        violations = run("cache = {}\n")
        assert [c for _, _, c, _ in violations] == ["ANL008"]
        assert "'cache'" in violations[0][3]

    def test_constructor_calls_flagged(self):
        assert codes("memo = dict()\n") == ["ANL008"]
        assert codes("pending = list()\n") == ["ANL008"]
        assert codes("seen = set()\n") == ["ANL008"]

    def test_comprehension_flagged(self):
        assert codes("index = {k: [] for k in KEYS}\n") == ["ANL008"]

    def test_annotated_assignment_flagged(self):
        assert codes("cache: dict = {}\n") == ["ANL008"]

    def test_upper_case_registry_clean(self):
        assert codes("CAST_MEMO = {}\n") == []
        assert codes("_SNAPSHOT_STACK = []\n") == []

    def test_dunder_all_clean(self):
        assert codes('__all__ = ["thing"]\n') == []

    def test_immutable_values_clean(self):
        assert codes("timeout = 5\n") == []
        assert codes("names = ('a', 'b')\n") == []
        assert codes("empty = frozenset()\n") == []

    def test_function_local_mutables_clean(self):
        src = """
            def f():
                cache = {}
                return cache
        """
        assert codes(src) == []

    def test_outside_quack_clean(self):
        assert codes(
            "cache = {}\n",
            module="repro.pgsim.executor",
            filename="executor.py",
        ) == []


class TestTraceEmitGuard:
    def test_unguarded_emit_flagged(self):
        src = """
            def f(ctx, t0, dt):
                ctx.trace.emit("scan", "operator", t0, dt)
        """
        assert codes(src) == ["ANL009"]

    def test_is_not_none_guard_clean(self):
        src = """
            def f(ctx, t0, dt):
                if ctx.trace is not None:
                    ctx.trace.emit("scan", "operator", t0, dt)
        """
        assert codes(src) == []

    def test_local_alias_guard_clean(self):
        src = """
            def f(ctx, t0, dt):
                trace = ctx.trace
                if trace is not None:
                    trace.emit("scan", "operator", t0, dt)
        """
        assert codes(src) == []

    def test_collection_enabled_guard_clean(self):
        src = """
            def f(ctx, t0, dt):
                if collection_enabled():
                    ctx.trace.emit("scan", "operator", t0, dt)
        """
        assert codes(src) == []

    def test_guard_does_not_leak_into_else(self):
        src = """
            def f(ctx, t0, dt):
                if ctx.trace is not None:
                    pass
                else:
                    ctx.trace.emit("scan", "operator", t0, dt)
        """
        assert codes(src) == ["ANL009"]

    def test_guard_resets_at_function_boundary(self):
        src = """
            def f(ctx, t0, dt):
                if ctx.trace is not None:
                    def g():
                        ctx.trace.emit("scan", "operator", t0, dt)
        """
        assert codes(src) == ["ANL009"]

    def test_wrong_receiver_guard_still_flagged(self):
        src = """
            def f(ctx, other, t0, dt):
                if other.trace is not None:
                    ctx.trace.emit("scan", "operator", t0, dt)
        """
        assert codes(src) == ["ANL009"]

    def test_non_trace_emit_ignored(self):
        src = """
            def f(bus, t0):
                bus.emit("event", t0)
        """
        assert codes(src) == []

    def test_observability_modules_exempt(self):
        src = """
            def f(collector, t0, dt):
                collector.emit("scan", "operator", t0, dt)
        """
        assert codes(
            src,
            module="repro.observability.trace",
            filename="trace.py",
        ) == []


class TestSelectivityClamped:
    def test_unclamped_return_flagged(self):
        src = """
            def comparison_selectivity(stats, op, value):
                return 1.0 / max(stats.distinct_count, 1)
        """
        assert codes(src, module="repro.quack.stats",
                     filename="stats.py") == ["ANL010"]

    def test_clamped_return_clean(self):
        src = """
            def comparison_selectivity(stats, op, value):
                return clamp01(1.0 / max(stats.distinct_count, 1))
        """
        assert codes(src, module="repro.quack.stats",
                     filename="stats.py") == []

    def test_attribute_clamp_counts(self):
        src = """
            def overlap_selectivity(stats, probe):
                return table_stats.clamp01(0.5)
        """
        assert codes(src, module="repro.quack.optimizer",
                     filename="optimizer.py") == []

    def test_bare_return_flagged(self):
        src = """
            def between_selectivity(stats, lo, hi):
                if stats is None:
                    return
                return clamp01(0.3)
        """
        assert codes(src, module="repro.quack.stats",
                     filename="stats.py") == ["ANL010"]

    def test_every_return_checked(self):
        src = """
            def equi_join_selectivity(left, right):
                if left is None:
                    return clamp01(0.005)
                return 1.0 / max(left.distinct_count, 1)
        """
        assert codes(src, module="repro.quack.stats",
                     filename="stats.py") == ["ANL010"]

    def test_nested_helper_not_subject(self):
        src = """
            def overlap_selectivity(stats, probe):
                def width(axis):
                    return axis.hi - axis.lo
                return clamp01(width(probe) * 0.1)
        """
        assert codes(src, module="repro.quack.stats",
                     filename="stats.py") == []

    def test_other_function_names_ignored(self):
        src = """
            def estimate_rows(stats):
                return stats.row_count * 3.0
        """
        assert codes(src, module="repro.quack.stats",
                     filename="stats.py") == []


class TestOneRecordingChannel:
    def test_handle_bump_flagged(self):
        src = """
            def probe(ctx, rows):
                if ctx.stats is not None:
                    ctx.stats.bump("executor.index_scans")
                    ctx.stats.gauge_max("executor.peak_materialized_rows",
                                        rows)
        """
        assert codes(src) == ["ANL012", "ANL012"]

    def test_ambient_recorder_clean(self):
        src = """
            from ..observability import count as _count
            from ..observability import gauge_max

            def probe(rows):
                _count("executor.index_scans")
                gauge_max("executor.peak_materialized_rows", rows)
        """
        assert codes(src) == []

    def test_recorder_and_connection_exempt(self):
        src = """
            def finish(stats):
                stats.bump("querylog.records")
        """
        assert codes(src, module="repro.quack.database",
                     filename="database.py") == []
        assert codes(src, module="repro.observability.context",
                     filename="context.py") == []
        assert codes(src, module="repro.pgsim.database",
                     filename="database.py") == ["ANL012"]


class TestOneDistinctArgumentEvaluation:
    def test_calls_outside_the_helper_flagged(self):
        src = """
            from . import kernels
            from .kernels import distinct_rows

            def evaluate(args, count):
                first, inverse = distinct_rows(args, count)
                return kernels.distinct_rows(args, count)
        """
        assert codes(src) == ["ANL014", "ANL014"]
        assert codes(src, module="repro.core.boxkernels",
                     filename="boxkernels.py") == ["ANL014", "ANL014"]

    def test_only_per_distinct_calls_it(self):
        src = """
            def distinct_rows(vectors, count):
                return None

            def per_distinct(run, vectors, count, check=None):
                distinct = distinct_rows(vectors, count)
                return run(vectors, count) if distinct is None else distinct

            def factorize(vectors, count):
                return distinct_rows(vectors, count)
        """
        assert codes(src, module="repro.quack.kernels",
                     filename="kernels.py") == ["ANL014"]


class TestOneExecutorPath:
    def test_context_outside_connections_flagged(self):
        src = """
            from .profiler import ExecutionContext
            from . import profiler

            def delete(table, where):
                ctx = ExecutionContext()
                other = profiler.ExecutionContext(profiler=None)
                return ctx, other
        """
        assert codes(src) == ["ANL013", "ANL013"]
        assert codes(src, module="repro.core.extension",
                     filename="extension.py") == ["ANL013", "ANL013"]

    def test_connections_build_contexts(self):
        src = """
            from .profiler import ExecutionContext

            def run(plan, profiler):
                return ExecutionContext(profiler=profiler)
        """
        assert codes(src, module="repro.quack.database",
                     filename="database.py") == []
        assert codes(src, module="repro.pgsim.database",
                     filename="database.py") == []
