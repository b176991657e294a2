"""The resource-lifecycle engine behind ``shm-lifecycle`` and ``span-lifecycle``.

Both rules police one shape of bug: a call hands the caller a handle
whose release the caller now owes on *every* control-flow path — a
shared-memory segment (``close()``/``unlink()``), a raw trace span
(``end()``/``abort()``) — and some path skips it.  The analysis does not
depend on the resource, so it lives here once, and a
:class:`LifecycleChecker` subclass names only its resource:

* ``acquirers`` — the calls that hand out a handle, by the callee's
  terminal name (``SharedMemory`` in ``shared_memory.SharedMemory(...)``,
  ``begin`` in ``tracer.begin(...)``);
* ``release_methods`` — the methods that release a handle;
* ``releaser_name`` — the names of helpers that release a handle passed
  to them (``unlink_quietly(segment)``);
* ``holder_name`` — the names of attributes that plausibly hold one.

What the engine enforces, per function that acquires a handle:

* the acquisition must be **secured**: used as a context manager,
  assigned inside (or immediately followed by) a ``try`` whose
  ``finally``/handlers release it, or its ownership must move out
  (returned, passed bare into a call, stored on an object attribute);
* the statements **between** acquisition and the securing point must
  not contain calls — a call can raise, and nothing would release the
  handle (this gap is how the two segment leaks that ``shm-lifecycle``
  found on its first run had gone unnoticed);
* a module that hands ownership into the object graph (bare
  call-argument or attribute store) must contain at least one release
  applied to an attribute-held handle (``unlink_quietly(inflight.segment)``,
  ``entry.span.end()``) — deleting the last such call site is flagged
  even though the store and the release live in different functions.

Known approximations: aliasing a handle to a second name counts as an
ownership move, and a handle smuggled through a container is not
tracked.  Both err on the quiet side for idiomatic code; the serve
stress suite and the crash-stitching tests pin the runtime behaviour.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, ModuleInfo, Project, terminal_name


def _contains_call(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Call) for sub in ast.walk(node))


def _following_statements(
    module: ModuleInfo, stmt: ast.stmt, scope: ast.AST
) -> Iterator[ast.stmt]:
    """Statements executing after ``stmt``, walking out to ``scope``.

    Yields the later siblings of ``stmt`` in its block, then the later
    siblings of each enclosing statement, stopping at the function body.
    """
    current: ast.AST = stmt
    while current is not scope:
        parent = module.parent(current)
        if parent is None:
            return
        for field_name in ("body", "orelse", "finalbody"):
            block = getattr(parent, field_name, None)
            if isinstance(block, list) and current in block:
                index = block.index(current)
                yield from block[index + 1 :]
        current = parent


class LifecycleChecker:
    """One resource's lifecycle rule; subclasses set the attributes below."""

    rule: str
    description: str
    #: the resource's noun in findings ("segment", "span").
    resource: str
    #: terminal names of the calls that hand out a handle.
    acquirers: frozenset[str]
    #: methods that release a handle, in the order findings name them.
    release_methods: tuple[str, ...]
    #: helpers whose name says they release a handle passed to them.
    releaser_name: re.Pattern[str]
    #: attribute names that plausibly hold a handle.
    holder_name: re.Pattern[str]

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if self._applies(module):
                yield from self._check_module(module)

    def _applies(self, module: ModuleInfo) -> bool:
        return any(self._acquires(node) for node in ast.walk(module.tree))

    def _acquires(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in self.acquirers
        )

    @property
    def _releases(self) -> str:
        return "/".join(f"{method}()" for method in self.release_methods)

    # ------------------------------------------------------------------ #
    def _is_release_of(self, call: ast.Call, var: str) -> bool:
        """True when ``call`` releases the handle bound to ``var``."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self.release_methods
            and isinstance(func.value, ast.Name)
            and func.value.id == var
        ):
            return True
        name = terminal_name(func)
        if name and self.releaser_name.search(name):
            return any(
                isinstance(arg, ast.Name) and arg.id == var for arg in call.args
            )
        return False

    def _contains_release(self, node: ast.AST, var: str) -> bool:
        return any(
            isinstance(sub, ast.Call) and self._is_release_of(sub, var)
            for sub in ast.walk(node)
        )

    def _try_protects(self, node: ast.stmt, var: str) -> bool:
        """``node`` is a try statement whose finally/handlers release ``var``."""
        if not isinstance(node, ast.Try):
            return False
        return any(
            self._contains_release(stmt, var)
            for block in [node.finalbody] + [h.body for h in node.handlers]
            for stmt in block
        )

    def _escape(self, module: ModuleInfo, stmt: ast.stmt, var: str) -> str | None:
        """How the bare name ``var`` first moves out inside ``stmt``.

        Returns ``"call"``, ``"store"``, ``"return"`` or ``"alias"``, or
        ``None`` when ``stmt`` only uses the handle: attribute access
        (``var.buf``, ``var.span_id``) and comparison (``var is None``)
        are uses, not moves.
        """
        for node in ast.walk(stmt):
            if not (
                isinstance(node, ast.Name)
                and node.id == var
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            # climb out of pure container literals
            child: ast.AST = node
            parent = module.parent(child)
            while isinstance(parent, (ast.Tuple, ast.List, ast.Set, ast.Starred)):
                child, parent = parent, module.parent(parent)
            if isinstance(parent, ast.Call):
                passed = child in parent.args or any(
                    kw.value is child for kw in parent.keywords
                )
                if passed and not self._is_release_of(parent, var):
                    return "call"
            elif isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return "return"
            elif isinstance(parent, ast.Assign):
                stored = any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in parent.targets
                )
                return "store" if stored else "alias"
            elif isinstance(parent, (ast.Dict, ast.keyword)):
                return "call"
        return None

    # ------------------------------------------------------------------ #
    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        ownership_moves: list[ast.AST] = []
        for fn in module.functions():
            yield from self._check_function(module, fn, ownership_moves)
        if ownership_moves and not self._module_releases_attribute(module):
            yield module.finding(
                self.rule,
                ownership_moves[0],
                f"{self.resource} ownership moves into the object graph here, "
                f"but no attribute-held {self.resource} reaches "
                f"{self._releases} in this module — the release call site "
                "appears to be missing",
            )

    def _check_function(
        self,
        module: ModuleInfo,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        ownership_moves: list[ast.AST],
    ) -> Iterator[Finding]:
        res = self.resource
        secured: list[str] = []
        for call in ast.walk(fn):
            if not self._acquires(call):
                continue
            if module.qualname(call).split(".")[-1] != fn.name:
                continue  # belongs to a nested def; handled there
            parent = module.parent(call)
            targets = parent.targets if isinstance(parent, ast.Assign) else []
            message = None
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                var = targets[0].id
                message = self._check_tracked(
                    module, fn, parent, call, var, ownership_moves
                )
                if message is None:
                    secured.append(var)
            elif isinstance(parent, (ast.Return, ast.withitem)):
                pass  # ownership transferred / context-managed
            elif isinstance(parent, ast.Call) or any(
                isinstance(t, ast.Attribute) for t in targets
            ):
                ownership_moves.append(call)
            elif targets:
                message = (
                    f"{res} acquired into a target the linter cannot track; "
                    "assign it to a single name or use a context manager"
                )
            elif isinstance(parent, ast.Expr):
                message = (
                    f"{res} acquired and immediately dropped — it can never "
                    f"reach {self._releases}"
                )
            else:
                message = (
                    f"{res} acquired in an expression position the linter "
                    "cannot track; bind it to a name under try/finally"
                )
            if message is not None:
                yield module.finding(self.rule, call, message)
        yield from self._check_secured(module, fn, secured)

    def _check_secured(
        self, module: ModuleInfo, fn: ast.AST, secured: list[str]
    ) -> Iterator[Finding]:
        """Rule-specific checks of ``fn``, given the names of its secured
        handles; the engine has none."""
        return iter(())

    def _check_tracked(
        self,
        module: ModuleInfo,
        fn: ast.AST,
        assign: ast.Assign,
        call: ast.Call,
        var: str,
        ownership_moves: list[ast.AST],
    ) -> str | None:
        """Why the handle bound to ``var`` may leak, or ``None`` if secured."""
        res = self.resource
        # already protected: the assignment sits inside a try whose
        # finally/handlers release the handle.
        for ancestor in module.ancestors(assign):
            if ancestor is fn:
                break
            if isinstance(ancestor, ast.stmt) and self._try_protects(ancestor, var):
                return None

        risky_gap = False
        for stmt in _following_statements(module, assign, fn):
            if self._try_protects(stmt, var):
                return (
                    f"statements between acquiring {res} '{var}' and the try "
                    "that releases it may raise, leaking it; move them inside "
                    "the protected region"
                    if risky_gap
                    else None
                )
            escape = self._escape(module, stmt, var)
            if escape is not None:
                if escape in ("call", "store"):
                    ownership_moves.append(call)
                return (
                    f"statements between acquiring {res} '{var}' and handing "
                    "it off may raise, leaking it; acquire it inside a try "
                    "that releases it on failure"
                    if risky_gap
                    else None
                )
            if self._contains_release(stmt, var):
                return (
                    f"{res} '{var}' reaches {self._releases} on the "
                    "straight-line path only; a raise in between skips the "
                    "cleanup — use try/finally or a context manager"
                )
            risky_gap = risky_gap or _contains_call(stmt)
        return (
            f"{res} '{var}' never reaches {self._releases} on some path "
            f"through {module.qualname(call)}"
        )

    def _module_releases_attribute(self, module: ModuleInfo) -> bool:
        """Some attribute-held handle is released somewhere in the module."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # inflight.segment.close() / entry.span.end()
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.release_methods
                and isinstance(func.value, ast.Attribute)
                and self.holder_name.search(func.value.attr)
            ):
                return True
            # unlink_quietly(inflight.segment)
            name = terminal_name(func)
            if name and self.releaser_name.search(name):
                if any(
                    isinstance(arg, ast.Attribute)
                    and self.holder_name.search(arg.attr)
                    for arg in node.args
                ):
                    return True
        return False
