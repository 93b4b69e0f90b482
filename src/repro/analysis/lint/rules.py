"""The individual AST checks behind :mod:`repro.analysis.lint`.

Each rule is a method on :class:`_Checker`; :func:`check_module` runs all
of them over one parsed module and returns ``(line, col, code, message)``
tuples.  The checks encode *engine invariants* — boundaries and
conventions the stock linters have no way to know about.
"""

from __future__ import annotations

import ast
from typing import Iterator

#: Modules allowed to raise KernelFallback — the kernels themselves plus
#: the vector sort-key encoder and the columnar box kernels.  Everyone
#: else must *catch* it (taking the fallback path), never signal it.
_KERNEL_FALLBACK_MODULES = frozenset({
    "repro.quack.kernels",
    "repro.quack.vector",
    "repro.core.boxkernels",
})

#: quack submodules the pgsim row engine imports: the shared connection
#: layer (``database``, which owns parsing, binding and optimizing), the
#: plan it executes, the profiler both executors report to, the catalog's
#: index-type registration, errors, types, the shared key helpers and
#: the one box rule.
#: Executor internals — kernels, vectors, the chunk executor — are
#: quack-private.
_PGSIM_ALLOWED_QUACK = frozenset({
    "errors",
    "types",
    "plan",
    "catalog",
    "database",
    "profiler",
    "keys",
    "boxes",
})

#: Module owning the Vector payload (may mutate data/validity freely).
_VECTOR_OWNER_MODULES = frozenset({"repro.quack.vector"})
#: What the engine may not import (``repro.meos.timetypes`` aside, the
#: date and time I/O): the payload types live outside it.
_EXTENSION_PACKAGES = frozenset({"repro.core", "repro.index", "repro.geo",
                                 "repro.meos"})

#: The one quack module allowed to touch the filesystem (ANL011).  All
#: persistence, spill, and CSV I/O routes through its ``open_path`` /
#: ``SpillFile`` seams so on-disk concerns stay in one place.
_STORAGE_MODULES = frozenset({"repro.quack.storage"})

#: Callables that open files / map memory / create temp artifacts.
#: Bare names and the final attribute of dotted calls are both checked
#: (``open``, ``os.open``, ``tempfile.TemporaryFile``, ``mmap.mmap``,
#: ``np.memmap``, …).
_FILE_IO_CALLS = frozenset({
    "open",
    "mmap",
    "memmap",
    "TemporaryFile",
    "NamedTemporaryFile",
    "TemporaryDirectory",
    "mkstemp",
    "mkdtemp",
})

#: Modules that may record on a statistics handle (ANL012): the
#: recorder itself, and the connection's end-of-statement bookkeeping,
#: which runs after the query's statistics are no longer active.
_STATISTICS_HANDLE_MODULES = ("repro.observability", "repro.quack.database")

#: ``QueryStatistics`` recording methods (ANL012).
_RECORDING_METHODS = frozenset({"bump", "gauge_max"})

#: The modules that build an ``ExecutionContext`` (ANL013): the two
#: connections, whose run hooks are the one way a statement's plan runs.
_EXECUTION_CONTEXT_MODULES = ("repro.quack.database", "repro.pgsim.database")

#: ``kernels.distinct_rows`` and the one function that may call it
#: (ANL014): every distinct-argument evaluation goes through
#: ``per_distinct``, which counts the rows saved and cross-checks.
_DISTINCT_ROWS_HOME = ("repro.quack.kernels", "per_distinct")


def _module_in(module: str | None, owners) -> bool:
    """Whether ``module`` is one of the allow-listed ``owners`` or a
    submodule of one (ANL011-ANL013)."""
    return module is not None and any(
        module == owner or module.startswith(owner + ".")
        for owner in owners
    )


def check_module(tree: ast.Module, module: str | None,
                 filename: str) -> list[tuple[int, int, str, str]]:
    checker = _Checker(module, filename)
    checker.visit_module(tree)
    return checker.findings


class _Checker:
    def __init__(self, module: str | None, filename: str):
        self.module = module
        self.filename = filename
        self.findings: list[tuple[int, int, str, str]] = []

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            (node.lineno, node.col_offset, code, message)
        )

    def visit_module(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                self.check_bare_except(node)
            elif isinstance(node, ast.Raise):
                self.check_kernel_fallback_raise(node)
            elif isinstance(node, ast.Call):
                self.check_evaluate_batch(node)
                self.check_file_io_boundary(node)
                self.check_recording_channel(node)
                self.check_execution_context(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self.check_engine_imports(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self.check_vector_mutation(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.check_selectivity_clamped(node)
        self.check_unused_imports(tree)
        self.check_module_mutables(tree)
        self.check_trace_guards(tree)
        self.check_distinct_rows_calls(tree)

    # -- ANL001: bare except ------------------------------------------------------

    def check_bare_except(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node, "ANL001",
                "bare 'except:' swallows engine errors and KeyboardInterrupt"
                " — catch a concrete exception type",
            )

    # -- ANL002: KernelFallback provenance ---------------------------------------

    def check_kernel_fallback_raise(self, node: ast.Raise) -> None:
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name != "KernelFallback":
            return
        if self.module is None or self.module in _KERNEL_FALLBACK_MODULES:
            return
        self.report(
            node, "ANL002",
            f"KernelFallback raised outside the kernel modules "
            f"({self.module}): operators must catch it and take the "
            f"fallback path, only kernels may signal it",
        )

    # -- ANL004: engine import boundaries ----------------------------------------

    def check_engine_imports(self, node: ast.Import | ast.ImportFrom) -> None:
        if self.module is None:
            return
        for target in self._import_targets(node):
            reason = self._boundary_violation(target)
            if reason:
                # One report per import statement: the base module and
                # its aliases would word the same breach differently.
                self.report(node, "ANL004", reason)
                return

    def _import_targets(
        self, node: ast.Import | ast.ImportFrom
    ) -> Iterator[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
            return
        if node.level == 0:
            base = node.module or ""
        else:
            parts = (self.module or "").split(".")
            if self.filename != "__init__.py":
                parts = parts[:-1]
            parts = parts[: len(parts) - (node.level - 1)]
            base = ".".join(parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if base:
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"

    def _boundary_violation(self, target: str) -> str | None:
        module = self.module or ""
        if module.startswith("repro.pgsim"):
            if target == "pickle" or target.startswith("pickle."):
                return (
                    "pgsim imports pickle: a heap datum has one "
                    "serialization, its type's codec (LogicalType.codec)"
                )
            if target.startswith("repro.quack."):
                segment = target.split(".")[2]
                if segment not in _PGSIM_ALLOWED_QUACK:
                    return (
                        f"pgsim imports quack internal "
                        f"'repro.quack.{segment}': the row engine may "
                        f"only use the shared connection layer "
                        f"(database/plan/profiler/keys/…)"
                    )
        elif module.startswith("repro.quack"):
            if target == "repro.pgsim" or target.startswith("repro.pgsim."):
                return (
                    f"quack imports pgsim ({target}): the columnar "
                    f"engine must not depend on the row engine"
                )
            package = ".".join(target.split(".")[:2])
            if package in _EXTENSION_PACKAGES and not target.startswith(
                    "repro.meos.timetypes"):
                return (
                    f"quack imports an extension package ({target}): "
                    f"the engine reads payloads duck-typed"
                )
        elif module.startswith("repro.observability"):
            for engine in ("repro.quack", "repro.pgsim"):
                if target == engine or target.startswith(engine + "."):
                    return (
                        f"observability imports engine code ({target}): "
                        f"the metrics layer must stay engine-neutral"
                    )
        return None

    # -- ANL005: Vector payload ownership ----------------------------------------

    def check_vector_mutation(
        self, node: ast.Assign | ast.AugAssign
    ) -> None:
        if self.module in _VECTOR_OWNER_MODULES:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            attr = self._payload_attribute(target)
            if attr is not None:
                self.report(
                    node, "ANL005",
                    f"mutation of a Vector's .{attr} payload outside "
                    f"repro.quack.vector: build a new Vector instead "
                    f"(in-place writes stale the _aux caches)",
                )

    @staticmethod
    def _payload_attribute(target: ast.expr) -> str | None:
        """Return 'data'/'validity' when ``target`` writes through such an
        attribute of a non-``self`` object (directly or via subscript)."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return None
        if target.attr not in ("data", "validity"):
            return None
        owner = target.value
        if isinstance(owner, ast.Name) and owner.id == "self":
            return None
        return target.attr

    # -- ANL006: evaluate_batch needs a reachable scalar fallback -----------------

    def check_evaluate_batch(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "ScalarFunction":
            return
        keywords = {
            kw.arg: kw.value for kw in node.keywords if kw.arg is not None
        }
        batch = keywords.get("evaluate_batch")
        if batch is None or _is_none(batch):
            return
        # Positional layout: name, arg_types, return_type, fn_scalar,
        # fn_vector, …
        has_scalar = len(node.args) >= 4 or (
            "fn_scalar" in keywords and not _is_none(keywords["fn_scalar"])
        )
        has_vector = len(node.args) >= 5 or (
            "fn_vector" in keywords and not _is_none(keywords["fn_vector"])
        )
        if not has_scalar:
            self.report(
                node, "ANL006",
                "ScalarFunction registers evaluate_batch without "
                "fn_scalar: the kernel has no reachable scalar fallback "
                "when it declines a chunk (or kernels are disabled)",
            )
        if has_vector:
            self.report(
                node, "ANL006",
                "ScalarFunction registers both evaluate_batch and "
                "fn_vector: fn_vector takes precedence, the batch kernel "
                "is dead code",
            )

    # -- ANL007: unused imports ---------------------------------------------------

    def check_unused_imports(self, tree: ast.Module) -> None:
        seen: set[str] = set()
        for stmt, _, binding in unused_import_aliases(tree,
                                                      self.filename):
            if binding in seen:
                continue
            seen.add(binding)
            self.report(
                stmt, "ANL007",
                f"unused import {binding!r}",
            )

    # -- ANL008: module-level mutable state in quack ------------------------------

    def check_module_mutables(self, tree: ast.Module) -> None:
        """Client threads sharing a database share module globals: a
        module-level mutable container in ``repro.quack`` is cross-thread
        state.  UPPER_CASE names mark the deliberate import-time
        registries (populated once, then read-only, or guarded by an
        explicit lock); anything else is presumed accidental shared
        state."""
        if not (self.module or "").startswith("repro.quack"):
            return
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if value is None or not _is_mutable_container(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.isupper():
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue  # __all__ and friends
                self.report(
                    node, "ANL008",
                    f"module-level mutable {name!r}: client threads "
                    f"sharing a database share module globals — make it "
                    f"an UPPER_CASE registry with synchronized writes, "
                    f"or move it into per-query state "
                    f"(ExecutionContext/Connection)",
                )


    # -- ANL011: file I/O stays inside repro.quack.storage -------------------------

    def check_file_io_boundary(self, node: ast.Call) -> None:
        """Only :mod:`repro.quack.storage` may perform file I/O inside
        ``repro.quack``: every other module routes through its
        ``open_path``/``StorageFile``/``SpillFile`` seams, so the
        on-disk format, spill lifecycle, and byte accounting live in
        one place."""
        module = self.module or ""
        if not module.startswith("repro.quack"):
            return
        if _module_in(module, _STORAGE_MODULES):
            return
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            receiver = _dotted_name(func.value)
            # storage.open_path(...) and self-method calls are the
            # sanctioned seams, not raw I/O.
            if receiver is not None and receiver.split(".")[-1] in (
                "storage", "_storage", "self"
            ):
                return
        if name in _FILE_IO_CALLS:
            self.report(
                node, "ANL011",
                f"file I/O call {name!r} outside repro.quack.storage: "
                f"route it through storage.open_path / SpillFile so "
                f"persistence stays behind the storage seam",
            )

    # -- ANL012: one way to record a figure ------------------------------------------

    def check_recording_channel(self, node: ast.Call) -> None:
        """Engine code records through the ambient ``count`` /
        ``gauge_max`` / ``span`` of :mod:`repro.observability`, which
        no-op when no query is active; a ``.bump(...)`` or
        ``.gauge_max(...)`` on a held statistics handle is a second
        channel that a caller without the handle silently bypasses."""
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _RECORDING_METHODS):
            return
        if self.module is None or _module_in(self.module,
                                             _STATISTICS_HANDLE_MODULES):
            return
        self.report(
            node, "ANL012",
            f"'.{func.attr}(...)' on a statistics handle outside "
            f"repro.observability: record through the ambient "
            f"count()/gauge_max() instead",
        )

    # -- ANL013: a statement runs through its connection ---------------------------

    def check_execution_context(self, node: ast.Call) -> None:
        """Only the connections build an ``ExecutionContext``, so every
        statement runs its plan through their run hooks: a second
        executor path drifts (it skips the optimizer, or the counters)."""
        name = _dotted_name(node.func)
        if name is None or name.split(".")[-1] != "ExecutionContext":
            return
        if self.module is None or _module_in(self.module,
                                             _EXECUTION_CONTEXT_MODULES):
            return
        self.report(
            node, "ANL013",
            "ExecutionContext(...) built outside the connection modules: "
            "run the statement's plan through the connection's run hooks",
        )

    # -- ANL014: one distinct-argument evaluation ---------------------------------

    def check_distinct_rows_calls(self, tree: ast.Module) -> None:
        """``distinct_rows`` is called only by ``per_distinct``
        beside it: a second caller would repeat the factorize/gather
        rule without its counter or its verification cross-check."""
        module, caller = _DISTINCT_ROWS_HOME
        allowed: set[int] = set()
        if self.module == module:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == caller:
                    allowed = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            name = _dotted_name(node.func)
            if name is None or name.split(".")[-1] != "distinct_rows":
                continue
            self.report(
                node, "ANL014",
                "distinct_rows called outside kernels.per_distinct: "
                "run the function through per_distinct instead",
            )

    # -- ANL010: selectivity estimators must clamp to [0, 1] -----------------------

    def check_selectivity_clamped(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """A function named ``*_selectivity`` feeds cardinality math that
        multiplies its results together; one value outside [0, 1] (from a
        histogram edge case, a division, NaN) silently corrupts every
        downstream estimate.  Every return must therefore go through
        ``clamp01(...)`` as the outermost call."""
        if not node.name.endswith("_selectivity"):
            return
        for ret in _own_returns(node):
            if ret.value is not None and _is_clamp_call(ret.value):
                continue
            self.report(
                ret, "ANL010",
                f"selectivity estimator {node.name!r} returns an "
                f"unclamped value: wrap the result in clamp01(...) so "
                f"estimates stay in [0, 1]",
            )

    # -- ANL009: trace emission must be guarded -----------------------------------

    def check_trace_guards(self, tree: ast.Module) -> None:
        """Every ``<collector>.emit(...)`` call must sit inside an ``if``
        that checks the collector (``if ctx.trace is not None:`` /
        ``if trace is not None:``) or ``collection_enabled()``.  The
        collector only exists when collection is on; an unguarded emit
        either crashes on None or — worse — pays event-building cost on
        the collection-off path, breaking the ~0% overhead guarantee.
        The observability package itself (where collectors live and are
        always non-None by construction) is exempt."""
        if (self.module or "").startswith("repro.observability"):
            return
        self._trace_walk(tree.body, frozenset())

    def _trace_walk(self, stmts: list[ast.stmt],
                    guards: frozenset[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function runs later, under conditions the
                # definition site's guards don't constrain.
                self._trace_walk(stmt.body, frozenset())
                continue
            if isinstance(stmt, ast.If):
                self._check_emits_in(stmt.test, guards)
                self._trace_walk(
                    stmt.body, guards | self._guards_from_test(stmt.test)
                )
                self._trace_walk(stmt.orelse, guards)
                continue
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, ast.expr):
                    self._check_emits_in(value, guards)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.stmt):
                            self._trace_walk([item], guards)
                        elif isinstance(item, ast.expr):
                            self._check_emits_in(item, guards)
                        elif isinstance(item, ast.excepthandler):
                            self._trace_walk(item.body, guards)
                        elif isinstance(item, ast.withitem):
                            self._check_emits_in(
                                item.context_expr, guards
                            )

    def _guards_from_test(self, test: ast.expr) -> frozenset[str]:
        """Collector receivers an ``if`` test establishes as non-None
        (any mention counts — ``x is not None``, truthiness, ``and``
        chains); ``collection_enabled()`` guards everything (``*``)."""
        out: set[str] = set()
        for node in ast.walk(test):
            dotted = _dotted_name(node)
            if dotted is not None and _is_trace_receiver(dotted):
                out.add(dotted)
            if isinstance(node, ast.Call):
                func = _dotted_name(node.func)
                if func and func.split(".")[-1] == "collection_enabled":
                    out.add("*")
        return frozenset(out)

    def _check_emits_in(self, expr: ast.expr,
                        guards: frozenset[str]) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "emit"):
                continue
            receiver = _dotted_name(func.value)
            if receiver is None or not _is_trace_receiver(receiver):
                continue
            if "*" in guards or receiver in guards:
                continue
            self.report(
                node, "ANL009",
                f"unguarded trace emission {receiver}.emit(...): wrap it "
                f"in 'if {receiver} is not None:' (or a "
                f"collection_enabled() check) so the collection-off path "
                f"stays free",
            )


def _own_returns(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Return]:
    """Return statements belonging to ``func`` itself (nested function
    definitions have their own contract and are skipped)."""
    stack: list[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.Return):
            yield stmt
            continue
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        stack.append(item)
                    elif isinstance(item, ast.excepthandler):
                        stack.extend(item.body)


def _is_clamp_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "clamp01"
    if isinstance(func, ast.Attribute):
        return func.attr == "clamp01"
    return False


#: Name segments that identify a trace-collector receiver.
_TRACE_SEGMENTS = frozenset({"trace", "_trace", "collector", "_collector"})


def _is_trace_receiver(dotted: str) -> bool:
    return any(seg in _TRACE_SEGMENTS for seg in dotted.split("."))


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


#: Constructors whose result is a shared-mutable container.
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray",
    "defaultdict", "deque", "Counter", "OrderedDict",
})


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _names_in_string_annotations(tree: ast.Module) -> set[str]:
    """Names referenced by forward-reference (string) annotations, e.g.
    ``stats: "QueryStatistics"`` — those count as uses of an import."""
    out: set[str] = set()

    def handle(annotation: ast.expr | None) -> None:
        if annotation is None:
            return
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for name in ast.walk(parsed):
                    if isinstance(name, ast.Name):
                        out.add(name.id)

    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            handle(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            handle(node.returns)
            arguments = node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if arg is not None:
                    handle(arg.annotation)
    return out


def _all_exports(tree: ast.Module) -> list[str]:
    """Names listed in a module-level ``__all__`` literal."""
    out: list[str] = []
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    out.append(element.value)
    return out


def unused_import_aliases(
    tree: ast.Module, filename: str,
) -> list[tuple[ast.stmt, ast.alias, str]]:
    """Every unused import binding as ``(statement, alias, binding)``.

    Shared by the ANL007 check and ``--fix``: the rule reports one
    violation per binding, the fixer deletes the exact alias spans.
    ``__init__.py`` re-export surfaces, ``__future__`` imports, ``*``
    imports, the ``x as x`` re-export idiom and ``_``-prefixed bindings
    are all exempt, exactly as the rule has always treated them.
    """
    if filename == "__init__.py":
        return []
    entries: list[tuple[ast.stmt, ast.alias, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                binding = (alias.asname or alias.name).split(".")[0]
                entries.append((node, alias, binding))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname == alias.name:
                    continue  # explicit re-export idiom
                entries.append((node, alias, alias.asname or alias.name))
    if not entries:
        return []
    used: set[str] = set()
    for node in ast.walk(tree):
        # Import statements bind through alias objects, not Name
        # nodes, so every Name occurrence is a genuine use.
        if isinstance(node, ast.Name):
            used.add(node.id)
    used |= _names_in_string_annotations(tree)
    used.update(_all_exports(tree))
    return [
        (stmt, alias, binding)
        for stmt, alias, binding in entries
        if not binding.startswith("_") and binding not in used
    ]
