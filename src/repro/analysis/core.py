"""Framework of the repo-native static-analysis pass.

Everything rule-agnostic lives here:

* :class:`Finding` — one diagnostic, carrying the rule id, the
  repo-relative file, the 1-indexed line, a severity and the enclosing
  *context* (dotted qualname of the surrounding def/class, or
  ``"module"``).  The context is part of a finding's identity so that
  baseline entries survive unrelated line drift.
* :class:`ModuleInfo` / :class:`Project` — parsed source files plus the
  cross-references checkers need (parent links, qualnames, pragmas).
* Pragma suppression — a ``# repro: lint-ok[rule]`` comment on (or one
  line above) the flagged line silences that rule there.  ``lint-ok[*]``
  silences every rule.  Pragmas are for *point* exemptions whose
  justification fits in the adjacent comment; anything needing a
  paragraph belongs in the baseline file instead.
* :class:`Baseline` — the committed suppression file
  (``lint-baseline.json``): a list of ``{rule, path, context,
  justification}`` entries.  A finding matching an entry is reported as
  *baselined*, not *new*; ``repro lint --strict`` fails only on new
  findings.  Entries matching nothing are reported as *stale* so the
  file cannot silently rot.

Checkers are objects with a ``rule`` id, a one-line ``description`` and
a ``check(project)`` method yielding findings; see
:mod:`repro.analysis.checkers`.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

from ..errors import LintError

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "Project",
    "load_project",
    "run_checkers",
    "run_lint",
    "terminal_name",
]

#: matches ``# repro: lint-ok[rule-a, rule-b]`` anywhere in a source line.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*lint-ok\[([^\]]*)\]")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a checker."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int  # 1-indexed
    message: str
    severity: str = "error"
    context: str = "module"  # enclosing dotted qualname, or "module"

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity used for baseline matching (line-drift tolerant)."""
        return (self.rule, self.path, self.context)

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def render_github(self) -> str:
        """One GitHub Actions workflow-command annotation line."""
        level = "error" if self.severity == "error" else "warning"
        # Annotation messages must be single-line; %0A is the escape.
        message = self.message.replace("%", "%25").replace("\n", "%0A")
        return (
            f"::{level} file={self.path},line={self.line},"
            f"title={self.rule}::{message}"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "context": self.context,
            "severity": self.severity,
            "message": self.message,
        }


class ModuleInfo:
    """One parsed source file plus the indexes checkers share.

    ``name`` is the dotted module name for files under ``src`` (e.g.
    ``repro.serve.pool``) and a ``tests.``-prefixed pseudo-name for test
    files; ``rel`` is the repo-relative posix path used in findings.
    """

    def __init__(self, path: Path, rel: str, name: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.name = name
        self.source = source
        try:
            self.tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            raise LintError(f"{rel}: cannot parse: {exc}") from exc
        self.pragmas = _parse_pragmas(source)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def qualname(self, node: ast.AST) -> str:
        """Dotted name of the innermost enclosing def/class, or "module"."""
        names: list[str] = []
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if isinstance(node, scopes):
            names.append(node.name)
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, scopes):
                names.append(ancestor.name)
        return ".".join(reversed(names)) or "module"

    def functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def suppressed(self, rule: str, line: int) -> bool:
        """True when a pragma on ``line`` (or the line above) covers ``rule``."""
        for lineno in (line, line - 1):
            rules = self.pragmas.get(lineno)
            if rules and ("*" in rules or rule in rules):
                return True
        return False

    def finding(
        self, rule: str, node: ast.AST, message: str, severity: str = "error"
    ) -> Finding:
        return Finding(
            rule=rule,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            message=message,
            severity=severity,
            context=self.qualname(node),
        )


def _parse_pragmas(source: str) -> dict[int, frozenset[str]]:
    pragmas: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if rules:
            pragmas[lineno] = rules
    return pragmas


@dataclass
class Project:
    """The analyzed tree: library modules plus test files."""

    root: Path
    modules: list[ModuleInfo] = field(default_factory=list)
    tests: list[ModuleInfo] = field(default_factory=list)

    def module_by_rel(self, rel: str) -> ModuleInfo | None:
        for module in self.modules + self.tests:
            if module.rel == rel:
                return module
        return None

    def module_by_name(self, name: str) -> ModuleInfo | None:
        for module in self.modules:
            if module.name == name:
                return module
        return None


def _module_name(rel_to_src: Path) -> str:
    parts = list(rel_to_src.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def load_project(root: Path | str) -> Project:
    """Parse ``<root>/src/repro`` and ``<root>/tests`` into a :class:`Project`."""
    root = Path(root).resolve()
    src = root / "src"
    pkg = src / "repro"
    if not pkg.is_dir():
        raise LintError(f"no src/repro package under {root}")
    project = Project(root=root)
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        project.modules.append(
            ModuleInfo(path, rel, _module_name(path.relative_to(src)), source)
        )
    tests_dir = root / "tests"
    if tests_dir.is_dir():
        for path in sorted(tests_dir.glob("*.py")):
            rel = path.relative_to(root).as_posix()
            source = path.read_text(encoding="utf-8")
            project.tests.append(
                ModuleInfo(path, rel, "tests." + path.stem, source)
            )
    return project


def terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---------------------------------------------------------------------- #
# baseline
# ---------------------------------------------------------------------- #
class Baseline:
    """The committed suppression file for intentional findings.

    Format (``lint-baseline.json``)::

        {"version": 1,
         "entries": [{"rule": ..., "path": ..., "context": ...,
                      "justification": "..."}, ...]}

    Matching ignores line numbers on purpose: an intentional exception
    should not need re-blessing every time unrelated code above it moves.
    Every entry must carry a non-empty justification.
    """

    VERSION = 1

    def __init__(self, entries: Sequence[dict] | None = None) -> None:
        self.entries: list[dict] = list(entries or [])
        for entry in self.entries:
            missing = {"rule", "path", "context", "justification"} - set(entry)
            if missing:
                raise LintError(
                    f"baseline entry {entry!r} lacks {sorted(missing)}"
                )
            if not str(entry["justification"]).strip():
                raise LintError(
                    f"baseline entry for {entry['rule']} at {entry['path']} "
                    "has an empty justification"
                )

    @classmethod
    def load(cls, path: Path | str | None) -> "Baseline":
        if path is None or not Path(path).exists():
            return cls()
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise LintError(f"malformed baseline file {path}: {exc}") from exc
        if not isinstance(payload, dict) or "entries" not in payload:
            raise LintError(f"baseline file {path} lacks an 'entries' list")
        return cls(payload["entries"])

    def matches(self, finding: Finding) -> bool:
        return any(
            (entry["rule"], entry["path"], entry["context"]) == finding.key
            for entry in self.entries
        )

    def stale_entries(
        self, findings: Sequence[Finding], rules: Collection[str] | None = None
    ) -> list[dict]:
        """Entries matching no finding; restricted to ``rules`` when given.

        The restriction keeps a ``--rules`` subset run from declaring every
        entry of an unselected rule stale.
        """
        keys = {finding.key for finding in findings}
        return [
            entry
            for entry in self.entries
            if (rules is None or entry["rule"] in rules)
            and (entry["rule"], entry["path"], entry["context"]) not in keys
        ]

    def to_json(self) -> dict[str, object]:
        return {"version": self.VERSION, "entries": self.entries}

    def regenerated(self, findings: Sequence[Finding]) -> "Baseline":
        """A baseline of exactly ``findings``.

        A finding that matches one of this baseline's entries keeps that
        entry's justification; any other gets a TODO to fill in.
        """
        kept = {
            (entry["rule"], entry["path"], entry["context"]): entry["justification"]
            for entry in self.entries
        }
        entries = [
            {
                "rule": finding.rule,
                "path": finding.path,
                "context": finding.context,
                "justification": kept.get(
                    finding.key, "TODO: justify this exception"
                ),
            }
            for finding in findings
        ]
        return Baseline(entries)


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #
@dataclass
class LintReport:
    """Outcome of one lint run, split by disposition."""

    new: list[Finding]
    baselined: list[Finding]
    suppressed: int  # pragma-silenced count
    stale: list[dict]  # baseline entries matching nothing

    @property
    def ok(self) -> bool:
        return not self.new


def run_checkers(project: Project, checkers: Iterable) -> tuple[list[Finding], int]:
    """All findings from ``checkers``, pragma-suppressed and sorted.

    Returns ``(findings, suppressed_count)``.
    """
    findings: list[Finding] = []
    suppressed = 0
    for checker in checkers:
        for finding in checker.check(project):
            module = project.module_by_rel(finding.path)
            if module is not None and module.suppressed(finding.rule, finding.line):
                suppressed += 1
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings, suppressed


def run_lint(
    root: Path | str,
    checkers: Iterable | None = None,
    baseline: Baseline | None = None,
) -> LintReport:
    """Run the full pass over a repo tree and fold in the baseline."""
    from .checkers import ALL_CHECKERS

    project = load_project(root)
    selected = list(ALL_CHECKERS if checkers is None else checkers)
    findings, suppressed = run_checkers(project, selected)
    baseline = baseline or Baseline()
    new = [f for f in findings if not baseline.matches(f)]
    baselined = [f for f in findings if baseline.matches(f)]
    return LintReport(
        new=new,
        baselined=baselined,
        suppressed=suppressed,
        stale=baseline.stale_entries(findings, {c.rule for c in selected}),
    )
