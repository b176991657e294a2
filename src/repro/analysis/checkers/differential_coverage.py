"""Rule ``differential-coverage``: every fast path keeps its reference suite.

The repo's performance story is a ladder of fast paths, each introduced
with a differential campaign against an executable reference spec (the
indexed kernel vs. the label-level solver, the SPQR engine vs. the
split-pair engine, the wire format vs. pickling, witness extraction vs.
the brute-force certifier).  The suites survive; what rots is the
*binding* — a fast-path module can drift out of the differential suites
without any test failing.

The rule: every module on the fast-path list must be imported by at
least one test file whose name matches
``*differential* | *stress* | *fuzz* | *corpus*``.  Imports count when
they name the module exactly (``import repro.core.indexed`` /
``from repro.core.indexed import ...``), pull a member from it
(``from repro.core import indexed`` → covers ``repro.core.indexed``),
or go through a parent package whose ``__init__`` statically re-exports
the module (``from repro.serve import wire`` via ``from . import
wire``; ``import repro.certify`` does *not* blanket-cover every
submodule — only ones its ``__init__`` imports).  A bare ``import
repro`` never counts: coverage must be attributable.

Findings anchor on line 1 of the uncovered fast-path module, because
the defect is the module's missing binding, not any line of test code.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from ..core import Finding, ModuleInfo, Project

RULE = "differential-coverage"

#: the fast paths whose reference-spec binding the default rule enforces.
FAST_PATH_MODULES = (
    "repro.batch",
    "repro.core.indexed",
    "repro.core.bitset",
    "repro.core.merge",
    "repro.graph.spqr",
    "repro.serve.pool",
    "repro.serve.wire",
    "repro.certify.witness",
    "repro.parallel.solver",
    "repro.pqtree.pqtree",
    "repro.incremental.solver",
    "repro.incremental.canon",
    "repro.incremental.cache",
)

TEST_NAME_PATTERN = re.compile(r"differential|stress|fuzz|corpus")


def _imported_modules(module: ModuleInfo) -> set[str]:
    """Every dotted module name ``module`` imports, at any nesting level.

    ``from a.b import c`` contributes both ``a.b`` and ``a.b.c`` (``c``
    may be a submodule; if it is a function the extra name is harmless —
    it can never match a real fast-path module).
    """
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            for alias in node.names:
                if alias.name != "*":
                    names.add(f"{node.module}.{alias.name}")
    return names


def _package_reexports(package: ModuleInfo, leaf: str) -> bool:
    """``package/__init__.py`` statically imports its submodule ``leaf``."""
    for node in ast.walk(package.tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level > 0 and source in ("", leaf):
                if source == leaf:
                    return True  # from .leaf import ...
                if any(alias.name == leaf for alias in node.names):
                    return True  # from . import leaf
            if source == f"{package.name}.{leaf}":
                return True
            if source == package.name and any(
                alias.name == leaf for alias in node.names
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(
                alias.name == f"{package.name}.{leaf}" for alias in node.names
            ):
                return True
    return False


class DifferentialCoverageChecker:
    rule = RULE
    description = (
        "every fast-path module must be imported by a differential/"
        "stress/fuzz/corpus test file"
    )

    def __init__(
        self,
        modules: Sequence[str] = FAST_PATH_MODULES,
        pattern: re.Pattern = TEST_NAME_PATTERN,
    ) -> None:
        self.modules = tuple(modules)
        self.pattern = pattern

    def check(self, project: Project) -> Iterator[Finding]:
        suites = [
            test
            for test in project.tests
            if self.pattern.search(test.path.stem)
        ]
        covered: set[str] = set()
        for suite in suites:
            covered |= _imported_modules(suite)

        for target in self.modules:
            source = project.module_by_name(target)
            if source is None:
                continue  # listed module not in this tree (config drift)
            if target in covered:
                continue
            parent, _, leaf = target.rpartition(".")
            package = project.module_by_name(parent) if parent else None
            if (
                parent in covered
                and package is not None
                and _package_reexports(package, leaf)
            ):
                continue
            suite_names = ", ".join(s.path.name for s in suites) or "none found"
            yield Finding(
                rule=self.rule,
                path=source.rel,
                line=1,
                message=(
                    f"fast-path module '{target}' is not imported by any "
                    "differential/stress/fuzz/corpus test file (searched: "
                    f"{suite_names}); bind it back to its executable "
                    "reference spec or baseline the gap with justification"
                ),
                context="module",
            )
