"""The pluggable analysis passes run over a :class:`ProjectModel`.

Each pass is a function ``(model, tests_dir) -> list[Finding]``.  The
catalog:

RACE002  guarded-by inference — an attribute written under a lock at
         one site but bare at another — plus lock-ordering cycle
         detection across the project's known locks.
FLOW001  resource leaks: ``SpillFile``/``StorageFile``/``open_path``/
         mmap handles not closed on all paths and not under a context
         manager.
FLOW002  counter/gauge drift: names incremented but never declared,
         declared but never incremented, or never asserted in tests.
FLOW003  dead kill switches: ``SET`` flag attributes no execution path
         reads, and env toggles read only from unreachable functions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from ..project import (
    FunctionInfo,
    ProjectModel,
    _dotted,
    iter_own_nodes,
)


@dataclass(frozen=True)
class Finding:
    """One analyzer result.

    ``fingerprint`` (rule + blamed symbol + key) deliberately excludes
    the line number so baselines survive unrelated edits to the file.
    ``symbol`` and ``key`` therefore must not contain whitespace.
    """

    rule: str
    symbol: str
    key: str
    message: str
    path: str
    line: int
    col: int = 0

    @property
    def fingerprint(self) -> str:
        return f"{self.rule} {self.symbol} {self.key}"


#: Container mutators that modify the receiver in place.
MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "update",
    "discard", "remove", "pop", "popitem", "clear", "setdefault",
})

#: Mutators recognized as atomic single-call publish idioms: a racing
#: ``setdefault`` returns one winner and never corrupts the dict, which
#: is exactly the lock-free memo-publish pattern ``Vector.cached_aux``
#: uses outside its lock.
ATOMIC_MUTATORS = frozenset({"setdefault"})

#: Constructors/factories whose return value owns an OS resource.
HANDLE_CALLS = frozenset({
    "SpillFile", "StorageFile", "open", "open_path", "TemporaryFile",
    "NamedTemporaryFile", "mkstemp", "mkdtemp", "mmap", "memmap",
})

#: Functions excluded from race passes: they run before the object is
#: published to other threads (happens-before via construction).
CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

#: Functions named ``*_locked`` declare (by convention, RacerD-style
#: trusted annotation) that every caller already holds the relevant
#: lock; their writes count as locked under a synthetic guard name.
CALLER_HELD = "<caller-held>"


def _assumed_held(info: FunctionInfo) -> tuple[str, ...]:
    return (CALLER_HELD,) if info.name.endswith("_locked") else ()


# --------------------------------------------------------------------------
# Shared traversal helpers


def lock_name(expr: ast.expr, info: FunctionInfo,
              model: ProjectModel) -> str | None:
    """Normalize a ``with`` context expression into a lock identity, or
    ``None`` when the expression is not lock-like (dotted path whose
    last segment mentions "lock", case-insensitively)."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    dotted = _dotted(expr)
    if dotted is None:
        return None
    if "lock" not in dotted.split(".")[-1].lower():
        return None
    parts = dotted.split(".")
    if parts[0] in ("self", "cls"):
        owner = info.owner_class or info.module
        return f"{owner.rsplit('.', 1)[-1]}.{'.'.join(parts[1:])}"
    if len(parts) == 1:
        # A module-level lock: qualify by module for cross-file identity.
        resolved = model.resolve_name(info, parts[0])
        if resolved is None:
            return f"{info.module.rsplit('.', 1)[-1]}.{parts[0]}"
    return dotted


def scan_statements(
    info: FunctionInfo, model: ProjectModel,
) -> Iterator[tuple[ast.stmt, tuple[str, ...], tuple[str, ...]]]:
    """Yield ``(stmt, locks_held, locks_acquired_here)`` for every own
    statement of ``info`` in source order, tracking the stack of
    lock-like ``with`` blocks.  Nested function/class bodies are other
    functions' problems and are skipped."""

    def walk(stmts: list[ast.stmt],
             held: tuple[str, ...]) -> Iterator[
                 tuple[ast.stmt, tuple[str, ...], tuple[str, ...]]]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = tuple(
                    name for item in stmt.items
                    if (name := lock_name(item.context_expr, info, model))
                )
                yield stmt, held, acquired
                yield from walk(stmt.body, held + acquired)
                continue
            yield stmt, held, ()
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, list):
                    nested = [v for v in value if isinstance(v, ast.stmt)]
                    if nested:
                        yield from walk(nested, held)
                    for handler in value:
                        if isinstance(handler, ast.excepthandler):
                            yield from walk(handler.body, held)

    if isinstance(info.node, ast.Lambda):
        return
    yield from walk(list(info.node.body), ())


def _expr_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """All nodes of a statement's expressions, not descending into
    nested statement lists or function/class definitions."""
    stack: list[ast.AST] = []
    for name, value in ast.iter_fields(stmt):
        if isinstance(value, ast.AST):
            stack.append(value)
        elif isinstance(value, list):
            stack.extend(v for v in value
                         if isinstance(v, ast.AST)
                         and not isinstance(v, (ast.stmt,
                                                ast.excepthandler)))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, or ``None``
    when the chain passes through a call or other opaque expression."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _write_key(target: ast.expr) -> str | None:
    """A compact, space-free rendering of a write target for finding
    keys: ``self._aux[]`` for subscripts, ``self.closed`` for plain
    attributes."""
    if isinstance(target, ast.Subscript):
        base = _dotted(target.value)
        return f"{base}[]" if base is not None else None
    return _dotted(target)


def _declared_globals(fn: ast.AST) -> set[str]:
    out: set[str] = set()
    for node in iter_own_nodes(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            out.update(node.names)
    return out


def _has_suppression(model: ProjectModel, finding: Finding) -> bool:
    """True when the finding's source line carries a
    ``# flow: ignore`` or ``# flow: ignore[RULE]`` comment."""
    module = model.module_for_path(finding.path)
    if module is None:
        return False
    text = module.line(finding.line)
    marker = "# flow: ignore"
    idx = text.find(marker)
    if idx < 0:
        return False
    rest = text[idx + len(marker):].strip()
    if not rest.startswith("["):
        return True
    rules = rest[1:rest.index("]")] if "]" in rest else rest[1:]
    return finding.rule in {r.strip() for r in rules.split(",")}


# --------------------------------------------------------------------------
# RACE002 — guarded-by inference + lock-ordering cycles


def _shared_writes(
    stmt: ast.stmt, globals_declared: set[str],
) -> Iterator[tuple[str, str, ast.AST]]:
    """Yield ``(root, key, node)`` for each attribute, subscript,
    container-mutator or declared-global write in ``stmt``."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        nested = [target]
        while nested:
            t = nested.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                nested.extend(t.elts)
                continue
            if isinstance(t, ast.Starred):
                nested.append(t.value)
                continue
            if isinstance(t, ast.Name):
                # Plain rebinding is local unless declared global/nonlocal.
                if t.id in globals_declared:
                    yield t.id, t.id, t
                continue
            if isinstance(t, (ast.Attribute, ast.Subscript)):
                root = _root_name(t)
                if root is None:
                    continue
                key = _write_key(t)
                if key is not None:
                    yield root, key, t
    for node in _expr_nodes(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in MUTATORS or func.attr in ATOMIC_MUTATORS:
            continue
        root = _root_name(func.value)
        if root is None:
            continue
        base = _dotted(func.value)
        if base is None:
            continue
        yield root, f"{base}.{func.attr}()", node


def _attr_write_sites(
    model: ProjectModel,
) -> dict[str, list[tuple[bool, str, str, int, tuple[str, ...]]]]:
    """Map a stable attribute key (``Class.attr`` or ``module.global``)
    to its write sites ``(locked, qualname, path, line, locks)``."""
    sites: dict[str, list[tuple[bool, str, str, int,
                                tuple[str, ...]]]] = {}
    for qualname, info in model.functions.items():
        if info.name in CONSTRUCTION_METHODS:
            continue
        globals_declared = _declared_globals(info.node)
        assumed = _assumed_held(info)
        for stmt, held, _ in scan_statements(info, model):
            held = held + assumed
            for root, key, node in _shared_writes(stmt, globals_declared):
                if root in ("self", "cls") and info.owner_class:
                    owner = info.owner_class.rsplit(".", 1)[-1]
                    attr = key.split(".", 1)[1] if "." in key else key
                    stable = f"{owner}.{attr}"
                elif root == key.split(".")[0] and \
                        model.resolve_name(info, root) is None and \
                        root in model.module_globals(info.module):
                    stable = f"{info.module}.{key}"
                else:
                    continue
                sites.setdefault(stable, []).append((
                    bool(held), qualname, str(info.path),
                    getattr(node, "lineno", stmt.lineno), held,
                ))
    return sites


def _transitive_locks(model: ProjectModel) -> dict[str, frozenset[str]]:
    """For every function, the set of locks it may acquire directly or
    through any callee (cycle-safe fixpoint)."""
    direct: dict[str, set[str]] = {}
    for qualname, info in model.functions.items():
        acquired: set[str] = set()
        for _, _, got in scan_statements(info, model):
            acquired.update(got)
        direct[qualname] = acquired
    result = {q: set(v) for q, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for qualname in result:
            before = len(result[qualname])
            for callee in model.calls.get(qualname, ()):
                result[qualname] |= result.get(callee, set())
            if len(result[qualname]) != before:
                changed = True
    return {q: frozenset(v) for q, v in result.items()}


def race002(model: ProjectModel,
            tests_dir: Path | None) -> list[Finding]:
    findings: list[Finding] = []

    # Guarded-by: a key locked at one write site and bare at another.
    for key, sites in sorted(_attr_write_sites(model).items()):
        locked = [s for s in sites if s[0]]
        bare = [s for s in sites if not s[0]]
        if not locked or not bare:
            continue
        guard = sorted({name for s in locked for name in s[4]})[0]
        for _, qualname, path, line, _ in bare:
            findings.append(Finding(
                rule="RACE002",
                symbol=qualname,
                key=key,
                message=(
                    f"{key!r} is written under {guard!r} at "
                    f"{locked[0][1]}:{locked[0][3]} but bare here — "
                    "either the lock is required (add it) or it is not "
                    "(remove it and document why)"
                ),
                path=path,
                line=line,
            ))

    # Lock-ordering cycles across the whole call graph.
    transitive = _transitive_locks(model)
    edges: dict[tuple[str, str], tuple[str, str, int]] = {}
    for qualname, info in model.functions.items():
        for stmt, held, acquired in scan_statements(info, model):
            inner: set[str] = set(acquired)
            for node in _expr_nodes(stmt):
                if isinstance(node, ast.Call):
                    for callee in model.resolve_call(info, node.func):
                        inner |= transitive.get(callee, frozenset())
            for h in held:
                for a in inner:
                    if a != h:
                        edges.setdefault((h, a), (
                            qualname, str(info.path), stmt.lineno))

    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
    seen_cycles: set[tuple[str, ...]] = set()
    for start in sorted(graph):
        stack = [(start, (start,))]
        while stack:
            current, trail = stack.pop()
            for succ in sorted(graph.get(current, ())):
                if succ == start:
                    cycle = trail
                    rotated = min(
                        tuple(cycle[i:] + cycle[:i])
                        for i in range(len(cycle))
                    )
                    if rotated in seen_cycles:
                        continue
                    seen_cycles.add(rotated)
                    where = edges[(cycle[-1], start)]
                    chain = "->".join(cycle + (start,))
                    findings.append(Finding(
                        rule="RACE002",
                        symbol=where[0],
                        key=f"lock-order:{chain}",
                        message=(
                            f"lock-ordering cycle {chain}: acquired in "
                            "opposite orders on different paths — "
                            "deadlock when two threads interleave"
                        ),
                        path=where[1],
                        line=where[2],
                    ))
                elif succ not in trail and len(trail) < 6:
                    stack.append((succ, trail + (succ,)))
    return findings


# --------------------------------------------------------------------------
# FLOW001 — resource leaks


def _iter_blocks(fn: ast.AST) -> Iterator[list[ast.stmt]]:
    """Every statement list of ``fn``'s own body (nested defs skipped),
    so leak analysis can reason about statement order within a block."""
    if isinstance(fn, ast.Lambda):
        return
    stack: list[list[ast.stmt]] = [list(fn.body)]
    while stack:
        block = stack.pop()
        yield block
        for stmt in block:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, list):
                    nested = [v for v in value if isinstance(v, ast.stmt)]
                    if nested:
                        stack.append(nested)
                    for handler in value:
                        if isinstance(handler, ast.excepthandler):
                            stack.append(list(handler.body))


def _callee_last(func: ast.expr) -> str | None:
    dotted = _dotted(func)
    return dotted.rsplit(".", 1)[-1] if dotted else None


def _handle_calls_in(stmt: ast.stmt) -> list[ast.Call]:
    return [
        node for node in _expr_nodes(stmt)
        if isinstance(node, ast.Call)
        and _callee_last(node.func) in HANDLE_CALLS
    ]


def _parents_within(stmt: ast.stmt) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(stmt):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _escapes_in_statement(stmt: ast.stmt, call: ast.Call,
                          parents: dict[int, ast.AST]) -> bool:
    """The handle's ownership is transferred by its creating statement:
    returned/yielded, passed straight into another call, or stored into
    an attribute, subscript, or container literal."""
    node: ast.AST = call
    while True:
        parent = parents.get(id(node))
        if parent is None:
            break
        if isinstance(parent, ast.Call) and node is not parent.func:
            return True
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        node = parent
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        if any(isinstance(t, (ast.Attribute, ast.Subscript))
               for t in targets):
            return True
    return False


def _assigned_name(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
            isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                      ast.Name):
        return stmt.target.id
    return None


def _references_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        and isinstance(sub.ctx, ast.Load)
        for sub in ast.walk(node)
    )


def _closes_or_escapes(stmt: ast.stmt, name: str) -> bool:
    """True when ``stmt`` closes the named handle or transfers its
    ownership onward (argument position, return/yield, stored into a
    structure, bound into an assignment value)."""
    for node in _expr_nodes(stmt):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == name and \
                    func.attr in ("close", "__exit__", "release"):
                return True
            for arg in list(node.args) + [kw.value
                                          for kw in node.keywords]:
                if _references_name(arg, name):
                    return True
    if isinstance(stmt, (ast.Return, ast.Expr)) and \
            stmt.value is not None and \
            _references_name(stmt.value, name):
        if isinstance(stmt, ast.Return):
            return True
        if isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
            return True
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and \
            stmt.value is not None and _references_name(stmt.value, name):
        return True
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        if any(_references_name(item.context_expr, name)
               for item in stmt.items):
            return True
    return False


def _name_in_finally(stmt: ast.stmt, name: str) -> bool:
    """The statement is a ``try`` whose ``finally`` — or a cleanup
    ``except`` handler — references the handle name."""
    if not isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return False
    if any(_references_name(s, name) for s in stmt.finalbody):
        return True
    return any(
        _references_name(s, name)
        for handler in stmt.handlers
        for s in handler.body
    )


def _contains_call_or_raise(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    return any(isinstance(node, ast.Call) for node in _expr_nodes(stmt))


def flow001(model: ProjectModel,
            tests_dir: Path | None) -> list[Finding]:
    findings: list[Finding] = []
    for qualname, info in model.functions.items():
        for block in _iter_blocks(info.node):
            for index, stmt in enumerate(block):
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    managed = {
                        id(node)
                        for item in stmt.items
                        for node in ast.walk(item.context_expr)
                    }
                else:
                    managed = set()
                calls = _handle_calls_in(stmt)
                if not calls:
                    continue
                parents = _parents_within(stmt)
                for call in calls:
                    if id(call) in managed:
                        continue
                    kind = _callee_last(call.func) or "handle"
                    if _escapes_in_statement(stmt, call, parents):
                        continue
                    name = _assigned_name(stmt)
                    if name is None:
                        findings.append(Finding(
                            rule="FLOW001",
                            symbol=qualname,
                            key=f"{kind}:discarded",
                            message=(
                                f"{kind}() handle created and discarded "
                                "— it is never closed"
                            ),
                            path=str(info.path),
                            line=call.lineno,
                            col=call.col_offset,
                        ))
                        continue
                    verdict = _trace_handle(block[index + 1:], name)
                    if verdict is not None:
                        findings.append(Finding(
                            rule="FLOW001",
                            symbol=qualname,
                            key=f"{kind}:{name}",
                            message=(
                                f"{kind}() handle {name!r} {verdict} — "
                                "use a context manager or close it in "
                                "a finally block"
                            ),
                            path=str(info.path),
                            line=call.lineno,
                            col=call.col_offset,
                        ))
    return findings


def _trace_handle(rest: list[ast.stmt], name: str) -> str | None:
    """Walk the statements after a handle's creation.  ``None`` means
    the handle is safely handed off; otherwise an explanation of the
    leak path."""
    for stmt in rest:
        if _name_in_finally(stmt, name):
            return None
        if _closes_or_escapes(stmt, name):
            return None
        if _contains_call_or_raise(stmt):
            return (
                f"leaks if {ast.unparse(stmt)[:48]!r} raises before "
                "the handle is handed off"
            )
    return "is never closed on this path"


# --------------------------------------------------------------------------
# FLOW002 — counter/gauge drift


#: The ambient helper (``repro.observability.count``, imported bare or
#: as ``_count``) takes a counter name; so does ``QueryStatistics.bump``.
#: Matching is by call shape: a *method* named ``_count`` (the
#: optimizer's ``optimizer.cbo.`` wrapper) is not the ambient helper.
COUNTER_FUNCS = frozenset({"count", "_count"})
COUNTER_METHODS = frozenset({"bump"})
GAUGE_FUNCS = frozenset({"gauge_max"})


def _counter_call_kind(func: ast.expr) -> str | None:
    """``"counter"``/``"gauge"`` when the callee records a named
    counter/gauge, else ``None``."""
    if isinstance(func, ast.Name):
        name, counters = func.id, COUNTER_FUNCS
    elif isinstance(func, ast.Attribute):
        name, counters = func.attr, COUNTER_METHODS
    else:
        return None
    if name in counters:
        return "counter"
    return "gauge" if name in GAUGE_FUNCS else None


def _static_counter_names(node: ast.expr) -> list[tuple[str, bool]]:
    """``(name, is_prefix)`` for a string literal or the static prefix
    of an f-string, for each arm of a conditional expression; empty for
    fully dynamic names."""
    if isinstance(node, ast.IfExp):
        return _static_counter_names(node.body) + \
            _static_counter_names(node.orelse)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [(node.value, False)]
    if isinstance(node, ast.JoinedStr):
        prefix = []
        for part in node.values:
            if isinstance(part, ast.Constant) and \
                    isinstance(part.value, str):
                prefix.append(part.value)
            else:
                break
        if prefix:
            return [("".join(prefix), True)]
    return []


def _declared_sets(model: ProjectModel) -> tuple[
        set[str], tuple[str, ...], set[str], str | None]:
    """Literal-eval ``DECLARED_COUNTERS``/``DECLARED_PREFIXES``/
    ``DECLARED_GAUGES`` from whichever module defines them, so fixture
    corpora can carry their own registry.  A ``frozenset({...})``
    wrapper around the literal is unwrapped: ``literal_eval`` rejects
    the call, and the engine's registry is spelled that way."""
    counters: set[str] = set()
    prefixes: list[str] = []
    gauges: set[str] = set()
    source: str | None = None
    for module in model.modules:
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            literal = stmt.value
            if isinstance(literal, ast.Call) and \
                    _callee_last(literal.func) == "frozenset" and \
                    len(literal.args) == 1 and not literal.keywords:
                literal = literal.args[0]
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                try:
                    value = ast.literal_eval(literal)
                except (ValueError, SyntaxError):
                    continue
                if target.id == "DECLARED_COUNTERS":
                    counters.update(value)
                    source = module.name
                elif target.id == "DECLARED_PREFIXES":
                    prefixes.extend(value)
                elif target.id == "DECLARED_GAUGES":
                    gauges.update(value)
    return counters, tuple(prefixes), gauges, source


def flow002(model: ProjectModel,
            tests_dir: Path | None) -> list[Finding]:
    counters, prefixes, gauges, registry = _declared_sets(model)
    if registry is None:
        return []
    findings: list[Finding] = []
    used_exact: dict[str, tuple[str, str, int]] = {}
    used_prefix: dict[str, tuple[str, str, int]] = {}
    for qualname, info in model.functions.items():
        if info.module == registry:
            continue
        for node in iter_own_nodes(info.node):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            kind = _counter_call_kind(node.func)
            if kind is None:
                continue
            for name, is_prefix in _static_counter_names(node.args[0]):
                bucket = used_prefix if is_prefix else used_exact
                bucket.setdefault(name, (qualname, str(info.path),
                                         node.lineno))
                declared = gauges if kind == "gauge" else counters
                if is_prefix:
                    ok = any(name.startswith(p) or p.startswith(name)
                             for p in prefixes) or \
                        any(d.startswith(name) for d in declared)
                else:
                    ok = name in declared or \
                        any(name.startswith(p) for p in prefixes)
                if not ok:
                    findings.append(Finding(
                        rule="FLOW002",
                        symbol=qualname,
                        key=name,
                        message=(
                            f"{kind} {name!r} is emitted but not declared "
                            f"in {registry} — typo or missing declaration"
                        ),
                        path=str(info.path),
                        line=node.lineno,
                    ))

    for name in sorted(counters | gauges):
        if name in used_exact:
            continue
        if any(name.startswith(p) for p in used_prefix):
            continue
        findings.append(Finding(
            rule="FLOW002",
            symbol=registry,
            key=name,
            message=(
                f"{name!r} is declared in {registry} but no code path "
                "emits it — dead declaration or the emitter was removed"
            ),
            path=str(model.by_name[registry].path)
            if registry in model.by_name else "<registry>",
            line=1,
        ))

    if tests_dir is not None and tests_dir.is_dir():
        corpus = "\n".join(
            path.read_text(encoding="utf-8", errors="replace")
            for path in sorted(tests_dir.rglob("*.py"))
        )
        for name, (qualname, path, line) in sorted(used_exact.items()):
            if name in corpus:
                continue
            findings.append(Finding(
                rule="FLOW002",
                symbol=qualname,
                key=f"untested:{name}",
                message=(
                    f"counter {name!r} is emitted but never asserted "
                    f"anywhere under {tests_dir} — drift here "
                    "goes unnoticed"
                ),
                path=path,
                line=line,
            ))
    return findings


# --------------------------------------------------------------------------
# FLOW003 — dead kill switches


def flow003(model: ProjectModel,
            tests_dir: Path | None) -> list[Finding]:
    findings: list[Finding] = []

    # SET flags: attributes assigned by an _execute_set handler that no
    # other code path ever loads.
    setters = [info for q, info in model.functions.items()
               if info.name == "_execute_set"]
    for setter in setters:
        assigned: dict[str, int] = {}
        for node in iter_own_nodes(setter.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        assigned.setdefault(target.attr, node.lineno)
        for attr, line in sorted(assigned.items()):
            read = False
            for qualname, info in model.functions.items():
                if info is setter:
                    continue
                for node in iter_own_nodes(info.node):
                    if isinstance(node, ast.Attribute) and \
                            node.attr == attr and \
                            isinstance(node.ctx, ast.Load):
                        read = True
                        break
                if read:
                    break
            if not read:
                findings.append(Finding(
                    rule="FLOW003",
                    symbol=setter.qualname,
                    key=attr,
                    message=(
                        f"SET handler assigns {attr!r} but no execution "
                        "path reads it — the kill switch is dead"
                    ),
                    path=str(setter.path),
                    line=line,
                ))

    # Env toggles read only from functions nothing calls.
    for qualname, info in model.functions.items():
        if not info.name.startswith("_") or info.name.startswith("__"):
            continue
        if model.incoming_calls(qualname):
            continue
        for node in iter_own_nodes(info.node):
            env_name: str | None = None
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func) or ""
                if dotted.endswith(("environ.get", "getenv")) and \
                        node.args and \
                        isinstance(node.args[0], ast.Constant):
                    env_name = node.args[0].value
            elif isinstance(node, ast.Subscript):
                dotted = _dotted(node.value) or ""
                if dotted.endswith("environ") and \
                        isinstance(node.slice, ast.Constant):
                    env_name = node.slice.value
            if env_name:
                findings.append(Finding(
                    rule="FLOW003",
                    symbol=qualname,
                    key=str(env_name),
                    message=(
                        f"env toggle {env_name!r} is read only inside "
                        f"{info.name}(), which nothing calls — the "
                        "switch can never take effect"
                    ),
                    path=str(info.path),
                    line=node.lineno,
                ))
    return findings


PASSES: tuple[tuple[str, Callable[[ProjectModel, Path | None],
                                  list[Finding]]], ...] = (
    ("RACE002", race002),
    ("FLOW001", flow001),
    ("FLOW002", flow002),
    ("FLOW003", flow003),
)


def run_passes(model: ProjectModel,
               tests_dir: Path | None = None) -> list[Finding]:
    """Run the full pass catalog and return suppression-filtered
    findings sorted by location.  ``tests_dir`` is the test corpus for
    FLOW002's asserted-in-tests check; ``None`` disables that check."""
    findings: list[Finding] = []
    for _, pass_fn in PASSES:
        findings.extend(pass_fn(model, tests_dir))
    findings = [f for f in findings if not _has_suppression(model, f)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.key))
    return findings
