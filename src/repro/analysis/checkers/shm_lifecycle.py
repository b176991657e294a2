"""Rule ``shm-lifecycle``: segments reach ``close()``/``unlink()`` on all paths.

Motivated by the PR-4 leak class (bpo-39959 and friends): a
``SharedMemory`` handle that misses its ``close()``/``unlink()`` on
*any* control-flow path pins kernel memory until process exit, and a
``memoryview`` of a segment buffer that outlives the scope closing the
segment raises ``BufferError`` at close time.

The path analysis is the shared lifecycle engine
(:mod:`~repro.analysis.checkers.lifecycle`), run on the calls that hand
out a segment — ``SharedMemory(...)``, ``create_segment(...)`` and
``attach_segment(...)`` — over every module that makes one and every
``serve/`` module.  Two checks are this rule's own:

* no ``.buf`` view of a locally-closed segment may be returned, yielded
  or stored on an attribute unless copied out via
  ``bytes()``/``bytearray()`` first (a view smuggled through a
  container is not tracked);
* a function whose *name* says it releases (contains ``close``,
  ``unlink`` or ``release``) and that takes a ``SharedMemory``-annotated
  parameter must actually call ``.close()`` (and ``.unlink()`` when the
  name promises it) on that parameter, so deleting existing cleanup
  stays visible.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, ModuleInfo, terminal_name
from .lifecycle import LifecycleChecker

_COPIERS = frozenset({"bytes", "bytearray"})


class ShmLifecycleChecker(LifecycleChecker):
    rule = "shm-lifecycle"
    description = (
        "shared-memory segments must be closed/unlinked on every "
        "control-flow path, and buffer views must not outlive them"
    )
    resource = "segment"
    acquirers = frozenset({"SharedMemory", "create_segment", "attach_segment"})
    release_methods = ("close", "unlink")
    releaser_name = re.compile(r"close|unlink|release", re.IGNORECASE)
    holder_name = re.compile(r"seg|shm", re.IGNORECASE)

    def _applies(self, module: ModuleInfo) -> bool:
        return "/serve/" in module.rel or super()._applies(module)

    def _check_secured(
        self, module: ModuleInfo, fn: ast.AST, secured: list[str]
    ) -> Iterator[Finding]:
        for var in secured:
            if self._contains_release(fn, var):
                yield from self._check_view_escape(module, fn, var)
        yield from self._check_closer(module, fn)

    def _check_closer(
        self, module: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        """A function *named* as a releaser must actually release."""
        if not self.releaser_name.search(fn.name):
            return
        required = {"close", "unlink"} if "unlink" in fn.name.lower() else {"close"}
        for param in fn.args.args + fn.args.kwonlyargs:
            if terminal_name(param.annotation) != "SharedMemory":
                continue
            var = param.arg
            has = {
                sub.func.attr
                for sub in ast.walk(fn)
                if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in self.release_methods
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == var
            }
            missing = required - has
            if missing:
                yield module.finding(
                    self.rule,
                    fn,
                    f"{fn.name}() promises to release its segment parameter "
                    f"'{var}' but never calls {sorted(missing)} on it",
                )

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
