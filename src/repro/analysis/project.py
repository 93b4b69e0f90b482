"""Shared whole-program project model for the static analyses.

Both analysis heads — the per-module AST lint (:mod:`repro.analysis.lint`)
and the whole-program flow analyzer (:mod:`repro.analysis.flow`) — consume
this model, so every source file is read and parsed **exactly once** per
run even when both heads execute.

:meth:`ProjectModel.parse` is the cheap half: it loads and parses files
and is all the lint needs.
:meth:`ProjectModel.resolve` builds the expensive whole-program layers on
top, lazily and at most once:

* a **symbol table** of every function, method, nested function, and
  lambda, keyed by dotted qualname (nested scopes use the runtime
  ``<locals>`` convention, e.g. ``pkg.module.outer.<locals>.inner``);
* the **class hierarchy** with name-resolved bases and a per-class method
  table, plus a project-wide method index used for receiver-blind call
  resolution;
* a **call graph** whose edges cover direct calls, ``self``/``cls``
  method dispatch through the hierarchy (including subclass overrides),
  module-attribute calls through the import table, and *references* to
  known functions (a function passed as a value runs later — reachability
  must flow through the reference).

Known unsoundness (documented, deliberate): dynamic dispatch through
``getattr``/``functools`` indirection is invisible; attribute calls on
unknown receivers resolve by method name only when the name is rare in
the project (common names like ``get``/``close`` would connect everything
to everything); C-extension callbacks and strings evaluated at runtime
are out of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "iter_python_files",
    "module_name_for",
]

#: Method names too common to resolve receiver-blind: connecting every
#: ``x.get(...)`` to every class defining ``get`` would make the call
#: graph one giant cycle.  ``self.<name>`` calls still resolve precisely.
_COMMON_METHOD_NAMES = frozenset({
    "get", "set", "add", "pop", "close", "open", "read", "write", "run",
    "append", "extend", "update", "clear", "remove", "discard", "copy",
    "items", "keys", "values", "join", "split", "format", "count",
    "result", "cancel", "put", "start", "stop", "wait", "emit", "bump",
    "value", "rows", "name", "scan", "fetch", "merge", "lower", "upper",
})

#: Receiver-blind resolution only fires when at most this many classes
#: define the method — beyond that the name is effectively generic.
_MAX_BLIND_TARGETS = 8

#: Keyword-argument names excluded from the callback registry: generic
#: enough that linking them by name would invent edges (``key=`` on every
#: ``sorted`` call, …).
_CALLBACK_KEYWORD_SKIP = frozenset({
    "key", "default", "reverse", "stats", "trace", "args",
})


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``.

    Files under a ``src/`` root get their real package path (matching the
    runtime import name); anything else falls back to the file stem so
    fixture corpora and scratch trees still model cleanly.
    """
    resolved = path.resolve()
    parts = resolved.parts
    if "src" in parts:
        rel = parts[parts.index("src") + 1:]
        if rel and rel[-1].endswith(".py"):
            rel = rel[:-1] + (rel[-1][: -len(".py")],)
            if rel[-1] == "__init__":
                rel = rel[:-1]
            if rel:
                return ".".join(rel)
    stem = resolved.stem
    return resolved.parent.name + "." + stem if stem == "__init__" else stem


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    name: str
    filename: str
    source: str
    tree: ast.Module
    #: raw source lines, for suppression-comment lookups
    lines: list[str] = field(default_factory=list)
    #: the SyntaxError that emptied ``tree``, if the file didn't parse
    error: SyntaxError | None = None

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclass
class FunctionInfo:
    """A function, method, nested function, or lambda."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    #: qualname of the owning class for methods, else None
    owner_class: str | None
    #: qualname of the enclosing function for closures, else None
    parent: str | None
    path: Path = field(default=Path("."))

    @property
    def is_method(self) -> bool:
        return self.owner_class is not None

    @property
    def is_nested(self) -> bool:
        return self.parent is not None


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    #: base-class names as written (dotted), resolved where possible
    bases: list[str] = field(default_factory=list)
    #: method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)


def _parse_one(path: Path) -> ModuleInfo | None:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError:
        return None
    error: SyntaxError | None = None
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        # The lint reports syntax errors per-file (ANL000); the model
        # keeps the error and an empty tree so resolution can proceed.
        error = exc
        tree = ast.Module(body=[], type_ignores=[])
    return ModuleInfo(
        path=path,
        name=module_name_for(path),
        filename=path.name,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        error=error,
    )


class ProjectModel:
    """Parse-once project model shared by lint and flow."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = modules
        self.by_name: dict[str, ModuleInfo] = {m.name: m for m in modules}
        self._resolved = False
        # Whole-program layers, built by resolve():
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.imports: dict[str, dict[str, str]] = {}
        self.module_functions: dict[str, dict[str, str]] = {}
        self.module_classes: dict[str, dict[str, str]] = {}
        self.method_index: dict[str, list[str]] = {}
        self.calls: dict[str, set[str]] = {}

    # -- construction -----------------------------------------------------------

    @classmethod
    def parse(cls, paths: Iterable[str | Path]) -> "ProjectModel":
        """Read and parse every file once; no whole-program resolution."""
        parsed = [_parse_one(f) for f in iter_python_files(paths)]
        return cls([m for m in parsed if m is not None])

    @classmethod
    def load(cls, paths: Iterable[str | Path]) -> "ProjectModel":
        """Parse and fully resolve (symbols, hierarchy, call graph)."""
        model = cls.parse(paths)
        model.resolve()
        return model

    # -- symbol collection ------------------------------------------------------

    def resolve(self) -> "ProjectModel":
        if self._resolved:
            return self
        self._resolved = True
        for module in self.modules:
            self._collect_symbols(module)
        self._children: dict[str, dict[str, str]] = {}
        for qualname, info in self.functions.items():
            if info.parent is not None and \
                    qualname.startswith(f"{info.parent}.<locals>."):
                self._children.setdefault(info.parent, {})[info.name] = \
                    qualname
        self._resolve_bases()
        self._build_callback_registry()
        for info in self.functions.values():
            self.calls[info.qualname] = self._edges_for(info)
        return self

    def _build_callback_registry(self) -> None:
        """Link keyword-registered callbacks to same-named attribute calls.

        ``ScalarFunction(..., evaluate_batch=make_batch(...))`` stores a
        callable on a data attribute that is later invoked as
        ``fn.evaluate_batch(...)`` — dynamic dispatch a syntactic call
        graph cannot see.  The registry collects, per keyword name, every
        project function referenced in a keyword argument's value
        (including closures returned by factory calls); attribute calls
        that resolve no other way pick these up as callees.
        """
        self.callback_registry: dict[str, set[str]] = {}
        # Helper wrappers forward their own parameters into callback
        # keywords (``def scalar(..., batch=None): ScalarFunction(...,
        # evaluate_batch=batch)``).  Record (param -> keyword) pairs so
        # the argument bound to ``batch`` at each *call site* of the
        # helper lands in the ``evaluate_batch`` registry entry.
        forwards: dict[str, list[tuple[str, str]]] = {}
        for info in self.functions.values():
            params = set(_param_names(info.node))
            for node in iter_own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                for kw in node.keywords:
                    if kw.arg is None or kw.arg in _CALLBACK_KEYWORD_SKIP:
                        continue
                    if isinstance(kw.value, ast.Name) and \
                            kw.value.id in params:
                        forwards.setdefault(info.qualname, []).append(
                            (kw.value.id, kw.arg)
                        )
                        continue
                    targets = self._functions_in_expr(info, kw.value)
                    if targets:
                        self.callback_registry.setdefault(
                            kw.arg, set()
                        ).update(targets)
        if not forwards:
            return
        for info in self.functions.values():
            for node in iter_own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                for target in self.resolve_call(info, node.func):
                    for param, keyword in forwards.get(target, ()):
                        expr = self._argument_for(
                            self.functions[target], node, param
                        )
                        if expr is None:
                            continue
                        funcs = self._functions_in_expr(info, expr)
                        if funcs:
                            self.callback_registry.setdefault(
                                keyword, set()
                            ).update(funcs)

    def _argument_for(self, target: "FunctionInfo", call: ast.Call,
                      param: str) -> ast.expr | None:
        """The expression bound to ``param`` of ``target`` at ``call``,
        matching keywords first, then positionals by signature index
        (dropping ``self``/``cls`` for attribute calls)."""
        for kw in call.keywords:
            if kw.arg == param:
                return kw.value
        params = _param_names(target.node)
        if params and params[0] in ("self", "cls") and \
                isinstance(call.func, ast.Attribute):
            params = params[1:]
        try:
            index = params.index(param)
        except ValueError:
            return None
        if index < len(call.args) and \
                not isinstance(call.args[index], ast.Starred):
            return call.args[index]
        return None

    def _functions_in_expr(self, info: FunctionInfo,
                           expr: ast.expr) -> set[str]:
        """Project functions a value expression could evaluate to or
        close over: direct references, lambdas, and the returned nested
        functions of factory calls."""
        out: set[str] = set()
        call_funcs = {
            id(sub.func) for sub in ast.walk(expr)
            if isinstance(sub, ast.Call)
        }
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                resolved = self._lambda_qualname(info, node)
                if resolved is not None:
                    out.add(resolved)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                target = self.resolve_name(info, node.id)
                if target is None or target not in self.functions:
                    continue
                if id(node) in call_funcs:
                    # Invoked eagerly here: what flows onward is its
                    # return value — a factory's returned closure.
                    out.update(self._returned_nested(target))
                else:
                    out.add(target)
        return out

    def _lambda_qualname(self, info: FunctionInfo,
                         node: ast.Lambda) -> str | None:
        for scope in self._scope_chain(info):
            qualname = (
                f"{scope.qualname}.<locals>.<lambda:{node.lineno}:"
                f"{node.col_offset}>"
            )
            if qualname in self.functions:
                return qualname
        qualname = f"{info.module}.<lambda:{node.lineno}:{node.col_offset}>"
        return qualname if qualname in self.functions else None

    def _collect_symbols(self, module: ModuleInfo) -> None:
        imports: dict[str, str] = {}
        self.imports[module.name] = imports
        self.module_functions.setdefault(module.name, {})
        self.module_classes.setdefault(module.name, {})

        def record_import(node: ast.Import | ast.ImportFrom) -> None:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    binding = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    imports[binding] = target
                return
            if node.level == 0:
                base = node.module or ""
            else:
                parts = module.name.split(".")
                if module.filename != "__init__.py":
                    parts = parts[:-1]
                parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                binding = alias.asname or alias.name
                imports[binding] = f"{base}.{alias.name}" if base \
                    else alias.name

        def record_lambdas(stmt: ast.stmt, prefix: str,
                           parent_fn: str | None) -> None:
            """Register lambdas in this statement's own expressions.

            Nested def/class bodies are separate scopes, and nested
            *statements* (compound bodies) are skipped too — ``visit``
            recurses into those and calls this on each one, so walking
            them here would re-scan every block once per ancestor.
            """
            stack: list[ast.AST] = [stmt]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Lambda):
                    qualname = (
                        f"{prefix}.<lambda:{node.lineno}:"
                        f"{node.col_offset}>"
                    )
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname, module=module.name,
                        name="<lambda>", node=node,
                        owner_class=None, parent=parent_fn,
                        path=module.path,
                    )
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef, ast.stmt)):
                        continue
                    stack.append(child)

        def visit(nodes: list[ast.stmt], prefix: str,
                  owner_class: str | None, parent_fn: str | None) -> None:
            for node in nodes:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    record_import(node)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{node.name}"
                    info = FunctionInfo(
                        qualname=qualname, module=module.name,
                        name=node.name, node=node,
                        owner_class=owner_class, parent=parent_fn,
                        path=module.path,
                    )
                    self.functions[qualname] = info
                    if owner_class is not None:
                        cls_info = self.classes[owner_class]
                        cls_info.methods.setdefault(node.name, qualname)
                        self.method_index.setdefault(
                            node.name, []
                        ).append(qualname)
                    elif parent_fn is None:
                        self.module_functions[module.name][node.name] = \
                            qualname
                    visit(node.body, f"{qualname}.<locals>", None, qualname)
                elif isinstance(node, ast.ClassDef):
                    qualname = f"{prefix}.{node.name}"
                    self.classes[qualname] = ClassInfo(
                        qualname=qualname, module=module.name,
                        name=node.name, node=node,
                        bases=[d for d in map(_dotted, node.bases)
                               if d is not None],
                    )
                    if owner_class is None and parent_fn is None:
                        self.module_classes[module.name][node.name] = \
                            qualname
                    visit(node.body, qualname, qualname, parent_fn)
                else:
                    record_lambdas(node, prefix, parent_fn)
                    # Recurse into compound-statement bodies so defs
                    # inside if/for/while/with/try blocks are collected.
                    for _, value in ast.iter_fields(node):
                        if isinstance(value, list) and any(
                            isinstance(item, ast.stmt) for item in value
                        ):
                            visit([item for item in value
                                   if isinstance(item, ast.stmt)],
                                  prefix, owner_class, parent_fn)
                        elif isinstance(value, list):
                            for item in value:
                                if isinstance(item, ast.excepthandler):
                                    visit(item.body, prefix, owner_class,
                                          parent_fn)

        visit(module.tree.body, module.name, None, None)

    def _resolve_bases(self) -> None:
        """Rewrite class base names to project qualnames where resolvable
        and build the subclass closure used for override dispatch."""
        self.subclasses: dict[str, list[str]] = {}
        for cls_info in self.classes.values():
            resolved = []
            imports = self.imports.get(cls_info.module, {})
            local = self.module_classes.get(cls_info.module, {})
            for base in cls_info.bases:
                head, _, rest = base.partition(".")
                target = None
                if base in local:
                    target = local[base]
                elif head in imports:
                    dotted = imports[head] + (f".{rest}" if rest else "")
                    target = self._class_by_dotted(dotted)
                if target is not None:
                    resolved.append(target)
                    self.subclasses.setdefault(target, []).append(
                        cls_info.qualname
                    )
                else:
                    resolved.append(base)
            cls_info.bases = resolved

    def _class_by_dotted(self, dotted: str) -> str | None:
        if dotted in self.classes:
            return dotted
        # "package.module.Class" imported as "package.module" + attribute
        head, _, tail = dotted.rpartition(".")
        if head in self.by_name:
            return self.module_classes.get(head, {}).get(tail)
        return None

    # -- call-graph edges -------------------------------------------------------

    def _mro(self, cls_qualname: str) -> Iterator[str]:
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            yield current
            stack.extend(self.classes[current].bases)

    def _resolve_method(self, cls_qualname: str, name: str) -> list[str]:
        """``self.name`` dispatch: the MRO definition plus every subclass
        override (the static receiver type is a lower bound)."""
        out: list[str] = []
        for klass in self._mro(cls_qualname):
            method = self.classes[klass].methods.get(name)
            if method is not None:
                out.append(method)
                break
        for sub in self._all_subclasses(cls_qualname):
            method = self.classes[sub].methods.get(name)
            if method is not None and method not in out:
                out.append(method)
        return out

    def _all_subclasses(self, cls_qualname: str) -> Iterator[str]:
        seen: set[str] = set()
        stack = list(self.subclasses.get(cls_qualname, []))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            yield current
            stack.extend(self.subclasses.get(current, []))

    def _scope_chain(self, info: FunctionInfo) -> list[FunctionInfo]:
        chain = [info]
        while chain[-1].parent is not None:
            parent = self.functions.get(chain[-1].parent)
            if parent is None:
                break
            chain.append(parent)
        return chain

    def _nested_defs(self, info: FunctionInfo) -> dict[str, str]:
        """Function definitions directly visible in ``info``'s scope."""
        return self._children.get(info.qualname, {})

    def resolve_name(self, info: FunctionInfo, name: str) -> str | None:
        """Resolve a bare name in ``info``'s scope to a function or class
        qualname (``None`` for locals, builtins, and unknowns)."""
        for scope in self._scope_chain(info):
            nested = self._nested_defs(scope)
            if name in nested:
                return nested[name]
        module_fns = self.module_functions.get(info.module, {})
        if name in module_fns:
            return module_fns[name]
        module_classes = self.module_classes.get(info.module, {})
        if name in module_classes:
            return module_classes[name]
        imports = self.imports.get(info.module, {})
        if name in imports:
            target = imports[name]
            resolved = self._function_by_dotted(target)
            if resolved is not None:
                return resolved
            klass = self._class_by_dotted(target)
            if klass is not None:
                return klass
        return None

    def _function_by_dotted(self, dotted: str) -> str | None:
        if dotted in self.functions:
            return dotted
        head, _, tail = dotted.rpartition(".")
        if head in self.by_name:
            return self.module_functions.get(head, {}).get(tail)
        return None

    def resolve_call(self, info: FunctionInfo,
                     func: ast.expr) -> list[str]:
        """Resolve a call's callee expression to function/class qualnames."""
        if isinstance(func, ast.Name):
            target = self.resolve_name(info, func.id)
            if target is None:
                return []
            if target in self.classes:
                ctor = self.classes[target].methods.get("__init__")
                return [ctor] if ctor is not None else []
            return [target]
        if not isinstance(func, ast.Attribute):
            return []
        receiver = func.value
        # self.method(...) / cls.method(...)
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls") \
                and info.owner_class is not None:
            resolved = self._resolve_method(info.owner_class, func.attr)
            if resolved:
                return resolved
            # No such method anywhere in the hierarchy: a callable stored
            # on a data attribute (``self.evaluate_batch(...)``).
            return list(self.callback_registry.get(func.attr, ()))
        # module.function(...) through the import table
        dotted = _dotted(receiver)
        if dotted is not None:
            head = dotted.split(".")[0]
            imports = self.imports.get(info.module, {})
            if head in imports:
                base = imports[head] + dotted[len(head):]
                target = self._function_by_dotted(f"{base}.{func.attr}")
                if target is not None:
                    return [target]
                klass = self._class_by_dotted(base)
                if klass is not None:
                    method = self.classes[klass].methods.get(func.attr)
                    if method is not None:
                        return [method]
            # ClassName.method(...) on a locally known class
            local_cls = self.module_classes.get(info.module, {}).get(dotted)
            if local_cls is not None:
                method = self.classes[local_cls].methods.get(func.attr)
                if method is not None:
                    return [method]
        # Receiver-blind: only for method names rare enough to be
        # meaningful, and only toward modules the caller can actually
        # see — a class the caller's module never imports cannot be the
        # receiver's type, and unscoped matching would weld unrelated
        # subsystems together (executor -> analysis tooling via
        # ``.parse``, quack -> pgsim via ``.append_rows``).
        if func.attr in _COMMON_METHOD_NAMES:
            return []
        candidates = self.method_index.get(func.attr, [])
        if candidates:
            visible = self._visible_modules(info.module)
            candidates = [c for c in candidates
                          if self.functions[c].module in visible]
        if 0 < len(candidates) <= _MAX_BLIND_TARGETS:
            return list(candidates)
        if not candidates:
            # Keyword-registered callbacks invoked through a data
            # attribute of the same name (evaluate_batch, fn_scalar, …).
            registered = self.callback_registry.get(func.attr)
            if registered:
                return list(registered)
        return []

    def _visible_modules(self, module: str) -> frozenset[str]:
        """The module itself plus every project module its import table
        references (directly, or as the home of an imported symbol)."""
        if not hasattr(self, "_visible_cache"):
            self._visible_cache: dict[str, frozenset[str]] = {}
        cached = self._visible_cache.get(module)
        if cached is not None:
            return cached
        visible = {module}
        for target in self.imports.get(module, {}).values():
            if target in self.by_name:
                visible.add(target)
                continue
            head = target.rsplit(".", 1)[0]
            if head in self.by_name:
                visible.add(head)
        result = frozenset(visible)
        self._visible_cache[module] = result
        return result

    def _edges_for(self, info: FunctionInfo) -> set[str]:
        edges: set[str] = set()
        nested_names: dict[str, str] = {}
        for scope in self._scope_chain(info):
            for name, qualname in self._nested_defs(scope).items():
                nested_names.setdefault(name, qualname)
        for node in iter_own_nodes(info.node):
            if isinstance(node, ast.Call):
                edges.update(self.resolve_call(info, node.func))
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                # A *reference* to a known function: it may run later
                # (callbacks, task lists) — reachability flows through.
                if node.id in nested_names:
                    edges.add(nested_names[node.id])
                else:
                    target = self.resolve_name(info, node.id)
                    if target is not None and target in self.functions:
                        edges.add(target)
        edges.discard(info.qualname)
        return edges

    def _returned_nested(self, qualname: str) -> list[str]:
        """Nested functions a factory returns (the ``make_batch(...)``
        idiom)."""
        info = self.functions.get(qualname)
        if info is None or isinstance(info.node, ast.Lambda):
            return []
        nested = self._nested_defs(info)
        out = []
        for node in iter_own_nodes(info.node):
            if isinstance(node, ast.Return) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in nested:
                out.append(nested[node.value.id])
        return out

    # -- queries -----------------------------------------------------------------

    def incoming_calls(self, qualname: str) -> set[str]:
        out: set[str] = set()
        for caller, callees in self.calls.items():
            if qualname in callees:
                out.add(caller)
        return out

    def module_for_path(self, path: str | Path) -> ModuleInfo | None:
        """Look a module up by the path string findings carry."""
        if not hasattr(self, "_path_index"):
            self._path_index = {str(m.path): m for m in self.modules}
        return self._path_index.get(str(path))

    def module_globals(self, module: str) -> frozenset[str]:
        """Names assigned at a module's top level (module-global
        mutable state candidates)."""
        if not hasattr(self, "_module_globals"):
            self._module_globals: dict[str, frozenset[str]] = {}
        cached = self._module_globals.get(module)
        if cached is not None:
            return cached
        info = self.by_name.get(module)
        names: set[str] = set()
        if info is not None:
            for stmt in info.tree.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name):
                                names.add(sub.id)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(stmt.target, ast.Name):
                        names.add(stmt.target.id)
        result = frozenset(names)
        self._module_globals[module] = result
        return result


def own_nodes(
    fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda | ast.Module,
) -> tuple[ast.AST, ...]:
    """Every AST node belonging to ``fn`` itself — nested function,
    lambda, and class bodies are skipped (they are separate scopes).

    Memoized on the AST node: every resolution layer and flow pass
    iterates the same scopes, and re-walking them dominated the profile.
    The model owns its trees for its whole lifetime, so stashing the
    tuple on the node is safe.
    """
    cached = getattr(fn, "_own_nodes_cache", None)
    if cached is not None:
        return cached
    if isinstance(fn, ast.Lambda):
        stack: list[ast.AST] = [fn.body]
    else:
        stack = list(fn.body)
    out: list[ast.AST] = []
    scope_types = (ast.FunctionDef, ast.AsyncFunctionDef,
                   ast.Lambda, ast.ClassDef)
    while stack:
        node = stack.pop()
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, scope_types):
                stack.append(child)
    result = tuple(out)
    fn._own_nodes_cache = result  # type: ignore[union-attr]
    return result


def iter_own_nodes(
    fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda | ast.Module,
) -> Iterator[ast.AST]:
    """Iterator form of :func:`own_nodes` (kept for call-site brevity)."""
    return iter(own_nodes(fn))


def _param_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> list[str]:
    """Positional-then-keyword parameter names of ``fn`` in order."""
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None

