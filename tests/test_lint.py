"""Tests for the repo-native static-analysis pass (repro.analysis).

Three layers:

* **fixture twins** — each rule runs over a paired good/bad fixture tree
  under ``tests/fixtures/lint/``; the bad twin marks every expected
  finding line with a trailing ``# LINT`` comment and the test asserts
  the exact rule id and line set, the good twin must come back clean;
* **live-tree self-check** — the full pass over *this* repository with
  the committed baseline must be clean, with no stale baseline entries;
* **mutation checks** — re-introducing each motivating defect into a
  copy of the live tree (deleting a segment release, dropping a flag
  forward, adding a bare ``except``) must make the pass fail with the
  right rule at the right place.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    checker_for,
    load_project,
    run_checkers,
    run_lint,
)
from repro.analysis.checkers.differential_coverage import (
    DifferentialCoverageChecker,
)
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def marker_lines(text: str) -> list[int]:
    return sorted(
        lineno
        for lineno, line in enumerate(text.splitlines(), start=1)
        if "# LINT" in line
    )


def make_project(tmp_path: Path, files: dict[str, str]):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    return load_project(tmp_path)


def run_rule(tmp_path: Path, rule: str, files: dict[str, str], checker=None):
    project = make_project(tmp_path, files)
    findings, suppressed = run_checkers(
        project, [checker if checker is not None else checker_for(rule)]
    )
    return findings, suppressed


class TestFixtureTwins:
    @pytest.mark.parametrize(
        "rule,stem",
        [
            ("shm-lifecycle", "shm_lifecycle"),
            ("span-lifecycle", "span_lifecycle"),
            ("spawn-safety", "spawn_safety"),
            ("spawn-safety", "spawn_safety_fleet"),
            ("flag-parity", "flag_parity"),
            ("exception-contract", "exception_contract"),
        ],
    )
    def test_bad_twin_flags_exact_lines(self, tmp_path, rule, stem):
        source = fixture(f"{stem}_bad.py")
        expected = marker_lines(source)
        assert expected, f"fixture {stem}_bad.py has no # LINT markers"
        findings, _ = run_rule(
            tmp_path, rule, {f"src/repro/{stem}.py": source}
        )
        assert all(f.rule == rule for f in findings)
        assert sorted(f.line for f in findings) == expected

    @pytest.mark.parametrize(
        "rule,stem",
        [
            ("shm-lifecycle", "shm_lifecycle"),
            ("span-lifecycle", "span_lifecycle"),
            ("spawn-safety", "spawn_safety"),
            ("spawn-safety", "spawn_safety_fleet"),
            ("flag-parity", "flag_parity"),
            ("exception-contract", "exception_contract"),
        ],
    )
    def test_good_twin_is_clean(self, tmp_path, rule, stem):
        source = fixture(f"{stem}_good.py")
        findings, _ = run_rule(
            tmp_path, rule, {f"src/repro/{stem}.py": source}
        )
        assert findings == []

    def test_differential_coverage_bad_twin(self, tmp_path):
        checker = DifferentialCoverageChecker(modules=("repro.fastmod",))
        findings, _ = run_rule(
            tmp_path,
            "differential-coverage",
            {
                "src/repro/fastmod.py": "def solve():\n    return 'fast'\n",
                "tests/test_fastmod_stress.py": fixture(
                    "differential_coverage_bad_test.py"
                ),
            },
            checker=checker,
        )
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("differential-coverage", "src/repro/fastmod.py", 1)
        ]

    def test_differential_coverage_good_twin(self, tmp_path):
        checker = DifferentialCoverageChecker(modules=("repro.fastmod",))
        findings, _ = run_rule(
            tmp_path,
            "differential-coverage",
            {
                "src/repro/fastmod.py": "def solve():\n    return 'fast'\n",
                "tests/test_fastmod_stress.py": fixture(
                    "differential_coverage_good_test.py"
                ),
            },
            checker=checker,
        )
        assert findings == []

    def test_good_twin_pragma_counts_as_suppressed(self, tmp_path):
        source = fixture("exception_contract_good.py")
        _, suppressed = run_rule(
            tmp_path, "exception-contract", {"src/repro/fx.py": source}
        )
        assert suppressed == 1  # the pragmatic() swallow


#: each lifecycle rule's resource, substituted into ``ENGINE_CASES``:
#: (import line, acquiring expression, release method).
LIFECYCLE_RESOURCES = {
    "shm-lifecycle": (
        "from multiprocessing import shared_memory",
        "shared_memory.SharedMemory(create=True, size=8)",
        "close",
    ),
    "span-lifecycle": (
        "from repro.obs.trace import Tracer",
        "tracer.begin('phase')",
        "end",
    ),
}

#: the lifecycle engine's cases, one function each over ``{acquire}`` and
#: ``{release}``; the lines it must flag carry the ``# LINT`` marker.
ENGINE_CASES = {
    "dropped": """
def case(tracer):
    {acquire}  # LINT
""",
    "never_released": """
def case(tracer):
    handle = {acquire}  # LINT
    return handle.name
""",
    "released_on_straight_line_only": """
def case(tracer):
    handle = {acquire}  # LINT
    work()
    handle.{release}()
""",
    "call_before_protecting_try": """
def case(tracer):
    handle = {acquire}  # LINT
    prepared = work()
    try:
        return work(prepared)
    finally:
        handle.{release}()
""",
    "call_before_handoff": """
def case(tracer):
    handle = {acquire}  # LINT
    work()
    return handle
""",
    "tuple_target": """
def case(tracer):
    handle, extra = {acquire}  # LINT
    return extra
""",
    "expression_position": """
def case(tracer):
    handles = [{acquire}]  # LINT
    return handles
""",
    "attribute_store_never_released_in_module": """
def case(tracer, owner):
    owner.handle = {acquire}  # LINT
""",
    "try_finally": """
def case(tracer):
    handle = {acquire}
    try:
        return work()
    finally:
        handle.{release}()
""",
    "with": """
def case(tracer):
    with {acquire} as handle:
        return work(handle)
""",
    "return": """
def case(tracer):
    return {acquire}
""",
    "is_none_check_then_try_finally": """
def case(tracer):
    handle = {acquire}
    if handle is None:
        return None
    try:
        return work()
    finally:
        handle.{release}()
""",
}


class TestLifecycleEngine:
    """Both lifecycle rules run one engine: each case under each resource."""

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    @pytest.mark.parametrize("rule", sorted(LIFECYCLE_RESOURCES))
    def test_case_flags_exact_lines(self, tmp_path, rule, case):
        header, acquire, release = LIFECYCLE_RESOURCES[rule]
        source = header + "\n" + ENGINE_CASES[case].format(
            acquire=acquire, release=release
        )
        findings, _ = run_rule(tmp_path, rule, {"src/repro/engine_case.py": source})
        assert all(f.rule == rule for f in findings)
        assert sorted(f.line for f in findings) == marker_lines(source)


class TestFrameworkMechanics:
    def test_pragma_wildcard_silences_every_rule(self, tmp_path):
        source = (
            "def f(x):\n"
            "    assert x  # repro: lint-ok[*]\n"
            "    return x\n"
        )
        findings, suppressed = run_rule(
            tmp_path, "exception-contract", {"src/repro/m.py": source}
        )
        assert findings == [] and suppressed == 1

    def test_pragma_on_line_above(self, tmp_path):
        source = (
            "def f(x):\n"
            "    # repro: lint-ok[exception-contract]\n"
            "    assert x\n"
            "    return x\n"
        )
        findings, suppressed = run_rule(
            tmp_path, "exception-contract", {"src/repro/m.py": source}
        )
        assert findings == [] and suppressed == 1

    def test_unknown_rule_rejected(self):
        with pytest.raises(LintError):
            checker_for("no-such-rule")

    def test_unparseable_source_rejected(self, tmp_path):
        with pytest.raises(LintError):
            make_project(tmp_path, {"src/repro/broken.py": "def f(:\n"})

    def test_baseline_requires_justification(self):
        with pytest.raises(LintError):
            Baseline(
                [
                    {
                        "rule": "flag-parity",
                        "path": "src/repro/x.py",
                        "context": "f",
                        "justification": "   ",
                    }
                ]
            )

    def test_baseline_matching_ignores_lines_and_reports_stale(self):
        baseline = Baseline(
            [
                {
                    "rule": "r",
                    "path": "p.py",
                    "context": "f",
                    "justification": "known",
                },
                {
                    "rule": "r",
                    "path": "gone.py",
                    "context": "g",
                    "justification": "stale",
                },
            ]
        )
        finding = Finding(rule="r", path="p.py", line=99, message="m", context="f")
        assert baseline.matches(finding)
        assert [e["path"] for e in baseline.stale_entries([finding])] == [
            "gone.py"
        ]


class TestLiveTreeSelfCheck:
    def test_repo_is_lint_clean_under_committed_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        report = run_lint(REPO_ROOT, baseline=baseline)
        assert report.ok, "\n".join(f.render() for f in report.new)
        assert report.stale == [], f"stale baseline entries: {report.stale}"

    def test_every_baseline_entry_is_justified(self):
        payload = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8")
        )
        for entry in payload["entries"]:
            assert len(entry["justification"].strip()) > 40, entry
            assert "TODO" not in entry["justification"], entry


def _copy_tree(tmp_path: Path) -> Path:
    root = tmp_path / "repo"
    shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro")
    root.joinpath("tests").mkdir()
    for test_file in sorted((REPO_ROOT / "tests").glob("*.py")):
        shutil.copy(test_file, root / "tests" / test_file.name)
    shutil.copy(REPO_ROOT / "lint-baseline.json", root / "lint-baseline.json")
    return root


def _mutate(root: Path, rel: str, old: str, new: str) -> int:
    """Apply a unique textual mutation; return its 1-indexed line."""
    path = root / rel
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, f"mutation anchor not unique in {rel}"
    line = source[: source.index(old)].count("\n") + 1
    path.write_text(source.replace(old, new), encoding="utf-8")
    return line


def _lint(root: Path):
    return run_lint(root, baseline=Baseline.load(root / "lint-baseline.json"))


class TestMutationAcceptance:
    """Re-introducing each motivating defect must fail the strict pass."""

    def test_deleting_segment_unlink_is_caught(self, tmp_path):
        root = _copy_tree(tmp_path)
        _mutate(
            root,
            "src/repro/serve/fleet.py",
            "        segment.close()\n        segment.unlink()\n",
            "        segment.close()\n",
        )
        report = _lint(root)
        assert not report.ok
        finding = next(f for f in report.new if f.rule == "shm-lifecycle")
        assert finding.path == "src/repro/serve/fleet.py"
        source = (root / "src/repro/serve/fleet.py").read_text(encoding="utf-8")
        def_line = next(
            i
            for i, text in enumerate(source.splitlines(), start=1)
            if "def unlink_quietly" in text
        )
        assert finding.line == def_line

    def test_dropping_certify_forward_is_caught(self, tmp_path):
        root = _copy_tree(tmp_path)
        line = _mutate(
            root,
            "src/repro/batch.py",
            "            engine=engine,\n"
            "            certify=certify,\n",
            "            engine=engine,\n",
        )
        report = _lint(root)
        assert not report.ok
        finding = next(f for f in report.new if f.rule == "flag-parity")
        assert finding.path == "src/repro/batch.py"
        assert "certify" in finding.message
        # the finding anchors on the pool.solve_many(...) call just above
        assert abs(finding.line - line) < 10

    def test_adding_bare_except_is_caught(self, tmp_path):
        root = _copy_tree(tmp_path)
        line = _mutate(
            root,
            "src/repro/serve/wire.py",
            "    except Exception:  # pragma: no cover - platform without a "
            "tracker  # repro: lint-ok[exception-contract]\n",
            "    except:\n",
        )
        report = _lint(root)
        assert not report.ok
        finding = next(f for f in report.new if f.rule == "exception-contract")
        assert finding.path == "src/repro/serve/wire.py"
        assert finding.line == line

    def test_unmutated_copy_stays_clean(self, tmp_path):
        report = _lint(_copy_tree(tmp_path))
        assert report.ok and report.stale == []


class TestCli:
    def _bad_tree(self, tmp_path: Path) -> Path:
        root = tmp_path / "proj"
        (root / "src" / "repro").mkdir(parents=True)
        (root / "src" / "repro" / "m.py").write_text(
            "def f(x):\n    assert x\n    return x\n", encoding="utf-8"
        )
        return root

    def test_strict_exit_codes(self, tmp_path, capsys):
        from repro.cli import lint_main

        root = self._bad_tree(tmp_path)
        assert lint_main([str(root)]) == 0  # advisory mode reports only
        assert lint_main(["--strict", str(root)]) == 1
        out = capsys.readouterr().out
        assert "exception-contract" in out and "m.py:2" in out

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        from repro.cli import lint_main

        root = self._bad_tree(tmp_path)
        assert lint_main(["--strict", "--format", "github", str(root)]) == 1
        out = capsys.readouterr().out
        assert re.search(
            r"^::error file=src/repro/m\.py,line=2,title=exception-contract::",
            out,
            re.MULTILINE,
        )

    def test_update_baseline_then_strict_passes(self, tmp_path, capsys):
        from repro.cli import lint_main

        root = self._bad_tree(tmp_path)
        assert lint_main(["--update-baseline", str(root)]) == 0
        payload = json.loads(
            (root / "lint-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["entries"], "update-baseline wrote no entries"
        for entry in payload["entries"]:
            entry["justification"] = "fixture: intentionally baselined"
        (root / "lint-baseline.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )
        assert lint_main(["--strict", str(root)]) == 0
        capsys.readouterr()

    def test_update_baseline_keeps_justifications(self, tmp_path, capsys):
        # Regenerating a baseline must not overwrite the justification of
        # an entry that still matches a finding with a TODO placeholder.
        from repro.cli import lint_main

        root = self._bad_tree(tmp_path)
        baseline = root / "lint-baseline.json"
        justification = "fixture: the assert is the point of this module"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "exception-contract",
                            "path": "src/repro/m.py",
                            "context": "f",
                            "justification": justification,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert lint_main(["--strict", str(root)]) == 0  # the entry matches
        assert lint_main(["--update-baseline", str(root)]) == 0
        (entry,) = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        assert entry["justification"] == justification
        assert lint_main(["--strict", str(root)]) == 0
        capsys.readouterr()

    def test_rules_selection_and_unknown_rule(self, tmp_path, capsys):
        from repro.cli import lint_main

        root = self._bad_tree(tmp_path)
        assert lint_main(["--strict", "--rules", "flag-parity", str(root)]) == 0
        assert lint_main(["--rules", "bogus", str(root)]) == 2
        capsys.readouterr()
