"""Rule ``spawn-safety``: worker payloads picklable by construction.

Motivated by the SIGKILL-mid-``put`` deadlock class PR 4 designed
around: everything that crosses a process boundary must survive
pickling *and* must not smuggle parent-only state.  A lambda in a task
payload fails at submit time on spawn platforms; an open handle, a
``Lock`` or a ``Connection`` inside a payload fails later and less
legibly; a worker entry reading a module global the parent mutates
after import silently computes with stale state under ``spawn``.

The checker applies to modules importing ``multiprocessing``, the
standard library's process-pool executors, or the worker-fleet core
(:mod:`repro.serve.fleet`) and enforces, conservatively:

1. **worker entries** (``Process(target=...)`` targets, the handler
   handed to ``Fleet(workers, handler, ...)`` — which the core runs in
   every worker — and the functions handed to
   ``executor.map``/``executor.submit``) must be module-level named
   functions — never lambdas or locally-defined closures — and must not
   read module globals that other functions rebind through ``global``;
2. **channel payloads** (arguments of ``.put()``/``.put_nowait()`` and
   ``.send()`` on queue/pipe-named receivers) must not contain lambdas,
   locally-defined functions, or names bound to synchronisation
   primitives, open files, connections or shared-memory handles;
3. **payload dataclasses** (the annotated parameter types of worker
   entries) must be built from types picklable by construction —
   primitives, containers of primitives, unions thereof.  A field typed
   with any richer class is flagged: it may well be picklable *by
   convention* (documented caveats), but that is a baseline-with-
   justification decision, not a silent default.

Rule 3 is deliberately strict: a payload that is picklable only by
documented contract belongs in the baseline with that contract as its
justification, which is exactly the visibility the rule exists to create.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, ModuleInfo, Project, terminal_name

RULE = "spawn-safety"

#: roots of the imports that put a module in scope; ``fleet`` is the
#: worker-fleet core, whose handler argument is a worker entry.
_SPAWNING_ROOTS = frozenset({"multiprocessing", "concurrent"})
_FLEET_MODULE = "fleet"
_FLEET_CLASS = "Fleet"
_CHANNEL_METHODS = frozenset({"put", "put_nowait", "send"})
_CHANNEL_RECEIVER = re.compile(r"(^|_)(q|queue|conn|pipe)s?$|_q$|_conn$", re.I)
_EXECUTORISH = re.compile(r"executor|pool", re.IGNORECASE)
_UNPICKLABLE_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Semaphore",
        "BoundedSemaphore",
        "Condition",
        "Event",
        "Barrier",
        "open",
        "Pipe",
        "SharedMemory",
        "socket",
    }
)
#: annotation atoms accepted as picklable by construction.
_PICKLABLE_ATOMS = frozenset(
    {
        "int",
        "float",
        "str",
        "bytes",
        "bool",
        "None",
        "NoneType",
        "tuple",
        "list",
        "dict",
        "set",
        "frozenset",
        "Tuple",
        "List",
        "Dict",
        "Set",
        "FrozenSet",
        "Optional",
        "Union",
        "Sequence",
        "Mapping",
        "Iterable",
        "Hashable",  # an alias used for atom labels; bare primitives in practice
    }
)


def _spawns_workers(module: ModuleInfo) -> bool:
    """The module imports process machinery or the worker-fleet core."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")
            names = [base] + [base + [alias.name] for alias in node.names]
        else:
            continue
        if any(
            parts[0] in _SPAWNING_ROOTS or parts[-1] == _FLEET_MODULE
            for parts in names
        ):
            return True
    return False


def _module_level_defs(module: ModuleInfo) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in module.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _local_defs(fn: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            names.add(node.name)
    return names


def _enclosing_function(module: ModuleInfo, node: ast.AST):
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


class SpawnSafetyChecker:
    rule = RULE
    description = (
        "worker entries and channel payloads must be picklable by "
        "construction and free of parent-only state"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if not _spawns_workers(module):
                continue
            yield from self._check_module(module)

    # ------------------------------------------------------------------ #
    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        top_defs = _module_level_defs(module)
        global_rebinders = self._global_rebound_names(module)
        entries: list[tuple[ast.AST, ast.expr]] = []

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._worker_entry_expr(node)
            if target is not None:
                entries.append((node, target))
            yield from self._check_payload_call(module, node)

        seen_entries: set[str] = set()
        for call, target in entries:
            if isinstance(target, ast.Lambda):
                yield module.finding(
                    self.rule,
                    target,
                    "worker entry is a lambda: unpicklable under spawn; "
                    "use a module-level function",
                )
                continue
            name = terminal_name(target)
            if name is None:
                continue
            enclosing = _enclosing_function(module, call)
            if enclosing is not None and name in _local_defs(enclosing):
                yield module.finding(
                    self.rule,
                    target,
                    f"worker entry '{name}' is a locally-defined function: "
                    "unpicklable under spawn; move it to module level",
                )
                continue
            if name in top_defs and name not in seen_entries:
                seen_entries.add(name)
                yield from self._check_entry_globals(
                    module, top_defs[name], global_rebinders
                )
                yield from self._check_payload_annotations(
                    module, top_defs[name]
                )

    # ------------------------------------------------------------------ #
    def _worker_entry_expr(self, call: ast.Call) -> ast.expr | None:
        """The function expression dispatched to a worker, if any."""
        name = terminal_name(call.func)
        if name == "Process":
            for kw in call.keywords:
                if kw.arg == "target":
                    return kw.value
            return None
        if name == _FLEET_CLASS:
            for kw in call.keywords:
                if kw.arg == "handler":
                    return kw.value
            return call.args[1] if len(call.args) > 1 else None
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("map", "submit")
            and (receiver := terminal_name(call.func.value)) is not None
            and _EXECUTORISH.search(receiver)
        ):
            return call.args[0] if call.args else None
        return None

    def _global_rebound_names(self, module: ModuleInfo) -> set[str]:
        """Module globals some function rebinds via ``global`` + assignment."""
        rebound: set[str] = set()
        for fn in module.functions():
            declared: set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    declared.update(node.names)
            if not declared:
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name) and target.id in declared:
                            rebound.add(target.id)
        return rebound

    def _check_entry_globals(
        self, module: ModuleInfo, fn: ast.FunctionDef, rebound: set[str]
    ) -> Iterator[Finding]:
        if not rebound:
            return
        bound_locally = {arg.arg for arg in fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                bound_locally.update(
                    t.id for t in targets if isinstance(t, ast.Name)
                )
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in rebound
                and node.id not in bound_locally
            ):
                yield module.finding(
                    self.rule,
                    node,
                    f"worker entry '{fn.name}' reads module global "
                    f"'{node.id}', which another function rebinds after "
                    "import; under spawn the worker sees the stale "
                    "import-time value",
                )

    # ------------------------------------------------------------------ #
    def _check_payload_call(
        self, module: ModuleInfo, call: ast.Call
    ) -> Iterator[Finding]:
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _CHANNEL_METHODS
        ):
            return
        receiver = terminal_name(call.func.value)
        if receiver is None or not _CHANNEL_RECEIVER.search(receiver):
            return
        enclosing = _enclosing_function(module, call)
        local_defs = _local_defs(enclosing) if enclosing is not None else set()
        handle_names = (
            self._handle_bound_names(enclosing) if enclosing is not None else set()
        )
        for arg in call.args:
            for node in ast.walk(arg):
                if isinstance(node, ast.Lambda):
                    yield module.finding(
                        self.rule,
                        node,
                        f"lambda inside a payload sent over '{receiver}': "
                        "unpicklable; dispatch a module-level function "
                        "plus data instead",
                    )
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in local_defs:
                        yield module.finding(
                            self.rule,
                            node,
                            f"locally-defined function '{node.id}' inside a "
                            f"payload sent over '{receiver}': closures are "
                            "unpicklable; move it to module level",
                        )
                    elif node.id in handle_names:
                        yield module.finding(
                            self.rule,
                            node,
                            f"'{node.id}' holds an unpicklable handle "
                            "(lock/file/pipe/segment) and is sent over "
                            f"'{receiver}'; pass a name or plain data "
                            "instead",
                        )

    def _handle_bound_names(self, fn: ast.AST) -> set[str]:
        """Names bound in ``fn`` to lock/file/pipe/segment constructors."""
        names: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            factory = None
            if isinstance(value, ast.Call):
                factory = terminal_name(value.func)
            if factory in _UNPICKLABLE_FACTORIES:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        names.update(
                            t.id for t in target.elts if isinstance(t, ast.Name)
                        )
        return names

    # ------------------------------------------------------------------ #
    def _check_payload_annotations(
        self, module: ModuleInfo, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        classes = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for arg in fn.args.args:
            if arg.annotation is None:
                continue
            cls = classes.get(terminal_name(arg.annotation) or "")
            if cls is None:
                continue
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                bad = self._unpicklable_atom(stmt.annotation)
                if bad is None:
                    continue
                field = (
                    stmt.target.id
                    if isinstance(stmt.target, ast.Name)
                    else "?"
                )
                yield Finding(
                    rule=self.rule,
                    path=module.rel,
                    line=stmt.lineno,
                    message=(
                        f"field '{field}' of worker payload '{cls.name}' is "
                        f"typed '{bad}', which is not picklable by "
                        "construction; if it is picklable by documented "
                        "contract, record that in the baseline"
                    ),
                    context=module.qualname(cls) + "." + field,
                )

    def _unpicklable_atom(self, annotation: ast.expr) -> str | None:
        """First annotation atom outside the picklable allowlist, or None."""
        if isinstance(annotation, ast.Name):
            return None if annotation.id in _PICKLABLE_ATOMS else annotation.id
        if isinstance(annotation, ast.Attribute):
            return (
                None if annotation.attr in _PICKLABLE_ATOMS else annotation.attr
            )
        if isinstance(annotation, ast.Constant):
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return annotation.value
                return self._unpicklable_atom(parsed)
            return None  # None / Ellipsis literals
        if isinstance(annotation, ast.Subscript):
            return self._unpicklable_atom(
                annotation.value
            ) or self._unpicklable_atom(annotation.slice)
        if isinstance(annotation, ast.BinOp):  # X | Y unions
            return self._unpicklable_atom(
                annotation.left
            ) or self._unpicklable_atom(annotation.right)
        if isinstance(annotation, (ast.Tuple, ast.List)):
            for elt in annotation.elts:
                bad = self._unpicklable_atom(elt)
                if bad is not None:
                    return bad
            return None
        return None
