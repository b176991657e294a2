"""Rule ``shm-lifecycle``: segments reach ``close()``/``unlink()`` on all paths.

Motivated by the PR-4 leak class (bpo-39959 and friends): a
``SharedMemory`` handle that misses its ``close()``/``unlink()`` on
*any* control-flow path pins kernel memory until process exit, and a
``memoryview`` of a segment buffer that outlives the scope closing the
segment raises ``BufferError`` at close time.

What the checker enforces, per function that *acquires* a segment
(calls ``SharedMemory(...)``, ``create_segment(...)`` or
``attach_segment(...)``):

* the acquisition must be **secured**: used as a context manager,
  assigned inside (or immediately followed by) a ``try`` whose
  ``finally``/handlers release it, released by an enclosing closer, or
  its ownership must move out (returned, passed bare into a call,
  stored on an object attribute);
* the statements **between** acquisition and the securing point must
  not contain calls — a call can raise, and nothing would release the
  segment (this gap is exactly how the two real leaks fixed alongside
  this rule survived four PRs);
* no ``.buf`` view of a locally-closed segment may be returned,
  yielded or stored on an attribute unless copied out via
  ``bytes()``/``bytearray()`` first.

Two companion invariants keep deletions of existing cleanup honest:

* a function whose *name* says it releases (contains ``close`` or
  ``unlink``) and that takes a ``SharedMemory``-annotated parameter
  must actually call ``.close()`` (and ``.unlink()`` when the name
  promises it) on that parameter;
* a module that hands segment ownership into the object graph (bare
  call-argument or attribute store) must contain at least one release
  applied to an attribute-held segment (e.g.
  ``unlink_quietly(inflight.segment)``) — deleting the last such call
  site is flagged even though the store and the release live in
  different functions.

Known approximations: aliasing a segment to a second name counts as an
ownership move, and a ``.buf`` view smuggled through a container is not
tracked.  Both directions err on the quiet side for idiomatic code and
are covered by the serve stress suite at runtime.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, ModuleInfo, Project, terminal_name

RULE = "shm-lifecycle"

#: calls that hand out a segment the caller then owns (or co-owns).
_ACQUIRERS = frozenset({"SharedMemory", "create_segment", "attach_segment"})
#: attribute methods that release a segment.
_RELEASE_ATTRS = frozenset({"close", "unlink"})
#: free functions whose name signals they release a segment passed to them.
_RELEASER_NAME = re.compile(r"close|unlink|release", re.IGNORECASE)
#: attribute names that plausibly hold a segment.
_SEGMENTISH = re.compile(r"seg|shm", re.IGNORECASE)
_COPIERS = frozenset({"bytes", "bytearray"})


def _is_release_of(call: ast.Call, var: str) -> bool:
    """True when ``call`` releases the segment bound to ``var``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _RELEASE_ATTRS
        and isinstance(func.value, ast.Name)
        and func.value.id == var
    ):
        return True
    name = terminal_name(func)
    if name and _RELEASER_NAME.search(name):
        return any(
            isinstance(arg, ast.Name) and arg.id == var for arg in call.args
        )
    return False


def _contains_release(node: ast.AST, var: str) -> bool:
    return any(
        isinstance(sub, ast.Call) and _is_release_of(sub, var)
        for sub in ast.walk(node)
    )


def _try_protects(node: ast.stmt, var: str) -> bool:
    """``node`` is a try statement whose finally/handlers release ``var``."""
    if not isinstance(node, ast.Try):
        return False
    if any(_contains_release(stmt, var) for stmt in node.finalbody):
        return True
    return any(
        _contains_release(stmt, var)
        for handler in node.handlers
        for stmt in handler.body
    )


def _contains_call(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Call) for sub in ast.walk(node))


class _Escape:
    """How a bare segment name leaves the acquiring scope."""

    def __init__(self, kind: str, node: ast.AST) -> None:
        self.kind = kind  # "return" | "yield" | "call" | "store" | "alias"
        self.node = node


def _bare_name_escape(module: ModuleInfo, stmt: ast.stmt, var: str) -> _Escape | None:
    """First ownership-moving use of the *bare* name ``var`` inside ``stmt``.

    Attribute access (``var.buf``, ``var.name``) is a use, not a move.
    """
    for node in ast.walk(stmt):
        if not (isinstance(node, ast.Name) and node.id == var):
            continue
        if not isinstance(node.ctx, ast.Load):
            continue
        # climb out of pure container literals
        child: ast.AST = node
        parent = module.parent(child)
        while isinstance(parent, (ast.Tuple, ast.List, ast.Set, ast.Starred)):
            child, parent = parent, module.parent(parent)
        if isinstance(parent, ast.Attribute):
            continue  # var.something — a use
        if isinstance(parent, ast.Call):
            if child in parent.args or any(
                kw.value is child for kw in parent.keywords
            ):
                if _is_release_of(parent, var):
                    continue
                return _Escape("call", node)
            continue  # var is the func position (can't happen for segments)
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return _Escape("return", node)
        if isinstance(parent, ast.Assign):
            targets = parent.targets
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
            ):
                return _Escape("store", node)
            return _Escape("alias", node)
        if isinstance(parent, (ast.Dict, ast.keyword)):
            return _Escape("call", node)
    return None


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


class ShmLifecycleChecker:
    rule = RULE
    description = (
        "shared-memory segments must be closed/unlinked on every "
        "control-flow path, and buffer views must not outlive them"
    )

    def _applies(self, module: ModuleInfo) -> bool:
        if "/serve/" in module.rel:
            return True
        return any(
            isinstance(node, ast.Call)
            and terminal_name(node.func) in _ACQUIRERS
            for node in ast.walk(module.tree)
        )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if not self._applies(module):
                continue
            yield from self._check_module(module)

    # ------------------------------------------------------------------ #
    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        ownership_moves: list[ast.AST] = []
        for fn in module.functions():
            yield from self._check_function(module, fn, ownership_moves)
            yield from self._check_closer(module, fn)
        if ownership_moves and not self._module_releases_attribute(module):
            yield module.finding(
                self.rule,
                ownership_moves[0],
                "segment ownership moves into the object graph here, but no "
                "attribute-held segment is ever closed/unlinked in this "
                "module — the release call site appears to be missing",
            )

    def _acquisitions(self, fn: ast.AST) -> Iterator[ast.Call]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and terminal_name(node.func) in _ACQUIRERS:
                yield node

    def _check_function(
        self,
        module: ModuleInfo,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        ownership_moves: list[ast.AST],
    ) -> Iterator[Finding]:
        closed_vars: list[str] = []
        for call in self._acquisitions(fn):
            if module.qualname(call).split(".")[-1] != fn.name:
                continue  # belongs to a nested def; handled there
            parent = module.parent(call)
            if isinstance(parent, (ast.Return, ast.withitem)):
                continue  # ownership transferred / context-managed
            if isinstance(parent, ast.Call):
                ownership_moves.append(call)
                continue
            if isinstance(parent, ast.Assign):
                targets = parent.targets
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    var = targets[0].id
                    finding = self._check_tracked(
                        module, fn, parent, call, var, ownership_moves
                    )
                    if finding is not None:
                        yield finding
                    elif _contains_release(fn, var):
                        closed_vars.append(var)
                    continue
                if any(isinstance(t, ast.Attribute) for t in targets):
                    ownership_moves.append(call)
                    continue
                yield module.finding(
                    self.rule,
                    call,
                    "segment acquired into a target the linter cannot track; "
                    "assign it to a single name or use a context manager",
                )
                continue
            if isinstance(parent, ast.Expr):
                yield module.finding(
                    self.rule,
                    call,
                    "segment acquired and immediately dropped — the handle "
                    "can never be closed or unlinked",
                )
                continue
            yield module.finding(
                self.rule,
                call,
                "segment acquired in an expression position the linter "
                "cannot track; bind it to a name under try/finally",
            )
        for var in closed_vars:
            yield from self._check_view_escape(module, fn, var)

    def _check_tracked(
        self,
        module: ModuleInfo,
        fn: ast.AST,
        assign: ast.Assign,
        call: ast.Call,
        var: str,
        ownership_moves: list[ast.AST],
    ) -> Finding | None:
        # already protected: the assignment sits inside a try whose
        # finally/handlers release the segment.
        for ancestor in module.ancestors(assign):
            if ancestor is fn:
                break
            if isinstance(ancestor, ast.stmt) and _try_protects(ancestor, var):
                return None

        risky_gap = False
        for stmt in _following_statements(module, assign, fn):
            if _try_protects(stmt, var):
                if risky_gap:
                    return module.finding(
                        self.rule,
                        call,
                        f"statements between acquiring '{var}' and the try "
                        "that releases it may raise, leaking the segment; "
                        "move them inside the protected region",
                    )
                return None
            escape = _bare_name_escape(module, stmt, var)
            if escape is not None:
                if escape.kind in ("call", "store"):
                    ownership_moves.append(call)
                if risky_gap:
                    return module.finding(
                        self.rule,
                        call,
                        f"statements between acquiring '{var}' and handing it "
                        "off may raise, leaking the segment; acquire inside a "
                        "try that releases it on failure",
                    )
                return None
            if _contains_release(stmt, var):
                return module.finding(
                    self.rule,
                    call,
                    f"'{var}' is released on the straight-line path only; a "
                    "raise in between skips the cleanup — use try/finally or "
                    "a context manager",
                )
            if _contains_call(stmt):
                risky_gap = True
        return module.finding(
            self.rule,
            call,
            f"segment '{var}' is never closed/unlinked on some path through "
            f"{module.qualname(call)}",
        )

    # ------------------------------------------------------------------ #
    def _check_closer(
        self, module: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        """A function *named* as a releaser must actually release."""
        name = fn.name.lower()
        wants_close = "close" in name or "unlink" in name or "release" in name
        if not wants_close:
            return
        params = [
            arg
            for arg in fn.args.args + fn.args.kwonlyargs
            if arg.annotation is not None
            and terminal_name(arg.annotation) == "SharedMemory"
        ]
        for param in params:
            var = param.arg
            has = {
                sub.func.attr
                for sub in ast.walk(fn)
                if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _RELEASE_ATTRS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == var
            }
            required = {"close"}
            if "unlink" in name:
                required.add("unlink")
            missing = required - has
            if missing:
                yield module.finding(
                    self.rule,
                    fn,
                    f"{fn.name}() promises to release its segment parameter "
                    f"'{var}' but never calls {sorted(missing)} on it",
                )

    def _module_releases_attribute(self, module: ModuleInfo) -> bool:
        """Some attribute-held segment is released somewhere in the module."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # inflight.segment.close() / x.seg.unlink()
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _RELEASE_ATTRS
                and isinstance(func.value, ast.Attribute)
                and _SEGMENTISH.search(func.value.attr)
            ):
                return True
            # unlink_quietly(inflight.segment)
            name = terminal_name(func)
            if name and _RELEASER_NAME.search(name):
                if any(
                    isinstance(arg, ast.Attribute)
                    and _SEGMENTISH.search(arg.attr)
                    for arg in node.args
                ):
                    return True
        return False

    # ------------------------------------------------------------------ #
    def _check_view_escape(
        self, module: ModuleInfo, fn: ast.AST, var: str
    ) -> Iterator[Finding]:
        """No ``var.buf`` view may outlive the scope that closes ``var``."""
        tainted: set[str] = set()
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr == "buf"
                and isinstance(node.value, ast.Name)
                and node.value.id == var
            ):
                continue
            copied = False
            escape_node: ast.AST | None = None
            for ancestor in module.ancestors(node):
                if ancestor is fn:
                    break
                if (
                    isinstance(ancestor, ast.Call)
                    and terminal_name(ancestor.func) in _COPIERS
                ):
                    copied = True
                    break
                if isinstance(ancestor, (ast.Return, ast.Yield, ast.YieldFrom)):
                    escape_node = ancestor
                    break
                if isinstance(ancestor, ast.Assign):
                    in_value = any(sub is node for sub in ast.walk(ancestor.value))
                    if not in_value:
                        break  # writing INTO the buffer, not leaking a view
                    if any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in ancestor.targets
                    ):
                        escape_node = ancestor
                    else:
                        tainted.update(
                            t.id
                            for t in ancestor.targets
                            if isinstance(t, ast.Name)
                        )
                    break
            if copied:
                continue
            if escape_node is not None:
                yield module.finding(
                    self.rule,
                    node,
                    f"a memoryview of '{var}.buf' escapes the scope that "
                    f"closes '{var}'; copy it out with bytes() first "
                    "(close() would raise BufferError, or the view would "
                    "dangle)",
                )
        if not tainted:
            return
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Name)
                and node.id in tainted
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            parent = module.parent(node)
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                yield module.finding(
                    self.rule,
                    node,
                    f"'{node.id}' derives from '{var}.buf' and escapes the "
                    f"scope that closes '{var}'; copy it out with bytes() "
                    "first",
                )
