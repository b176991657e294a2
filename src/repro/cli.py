"""Command-line interface: ``python -m repro``.

Reads a (0,1)-matrix from a file (CSV of 0/1 entries, ``#`` comments and
blank lines ignored), tests the consecutive-ones (or circular-ones) property
and prints a realizing row order plus the permuted matrix.  The ``batch``
subcommand solves many matrix files at once over a process pool and reports
throughput; the ``serve`` subcommand reads a stream of instances as JSON
lines and answers through a persistent shared-memory worker pool
(:mod:`repro.serve`), one result JSON line per instance; the ``certify``
subcommand solves one matrix and emits a machine-checkable certificate
either way (the realizing order, or a Tucker obstruction witness validated
by the independent checker).  ``--certify`` on the plain, batch and serve
modes attaches the same certificates inline.  The ``lint`` subcommand runs
the repo-native static-analysis pass (:mod:`repro.analysis`) that enforces
the codebase's concurrency and contract invariants — shared-memory
lifecycle, span lifecycle, spawn safety, solver-flag parity, the exception
contract and differential coverage of fast paths — against a committed
baseline of justified exceptions; ``--strict`` makes any non-baselined
finding fail the run (the CI gate).  The ``trace`` subcommand runs an
instrumented certified solve through both process pools and writes the
stitched trace, metrics snapshot and cost-model calibration report
(:mod:`repro.obs`); ``--trace FILE`` on the plain, batch and serve modes
dumps a JSON-lines trace of that run.

The mode word is the first argument; anything else is the plain mode's
matrix file.  A flag more than one mode takes is defined once, in
``_SHARED_FLAGS``, and every mode's parser adds the shared flags it takes.

Unusable input — a missing or unreadable file, a malformed matrix or JSON
line, and for ``lint`` an unknown rule, an unparseable source file or a
baseline that cannot be read, parsed or written — ends every mode with one
``repro: error: ...`` line on stderr and exit status 2; exit 1 keeps its
one meaning, "the property does not hold" (for ``lint --strict``: "new
findings").

Examples
--------
::

    python -m repro matrix.csv                 # consecutive-ones, row order
    python -m repro matrix.csv --columns       # permute columns instead
    python -m repro matrix.csv --circular      # circular-ones
    python -m repro matrix.csv --certify       # print a witness on rejection
    python -m repro --demo                     # run on a built-in example
    python -m repro batch a.csv b.csv --processes 0   # batch over all CPUs
    python -m repro certify matrix.csv --json cert.json   # certificate as JSON
    python -m repro serve instances.jsonl --processes 4   # JSONL in, JSONL out
    echo '{"id": 7, "matrix": [[1,1,0],[0,1,1]]}' | python -m repro serve -
    python -m repro lint --strict                  # the CI invariant gate
    python -m repro lint --format github           # findings as annotations
    python -m repro trace --demo --out trace.jsonl --calibration calib.json
    python -m repro matrix.csv --parallel 2 --trace trace.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .batch import solve_many
from .certify import check_ensemble
from .core import ENGINES, cycle_realization, path_realization
from .ensemble import Ensemble
from .errors import IncrementalError, InvalidEnsembleError, LintError
from .tutte.decomposition import resolve_engine
from .matrix import BinaryMatrix

__all__ = [
    "main",
    "batch_main",
    "certify_main",
    "serve_main",
    "lint_main",
    "trace_main",
    "parse_matrix_text",
    "parse_instance_line",
]

_DEMO = """\
0 1 1 0 0
1 1 0 0 0
0 0 1 1 0
1 0 0 0 0
0 0 0 1 1
"""

#: the flags more than one mode takes, each defined once; see ``_add_shared``.
_SHARED_FLAGS: dict[str, dict] = {
    "--demo": dict(action="store_true", help="run on the built-in example"),
    "--columns": dict(
        action="store_true",
        help="permute the columns so every row becomes a block of ones "
        "(bio convention)",
    ),
    "--circular": dict(
        action="store_true", help="test the circular-ones property instead"
    ),
    "--engine": dict(
        choices=ENGINES,
        default=None,
        help="Tutte decomposition engine for the combine step "
        "(default: spqr, the near-linear palm-tree engine)",
    ),
    "--certify": dict(
        action="store_true",
        help="certify the answers: the realizing order on acceptance, a "
        "Tucker obstruction witness (validated by the independent checker) "
        "on rejection",
    ),
    "--trace": dict(
        metavar="FILE",
        default=None,
        help="record a span trace of the run (worker-side spans stitched "
        "back in) and write it to FILE as JSON lines",
    ),
    "--json": dict(metavar="PATH", help="also write the results to PATH as JSON"),
    "--quiet": dict(
        action="store_true",
        help="print only the results, without explanations or closing stats",
    ),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _reports_bad_input(entry: Callable[[Sequence[str]], int]):
    """Map unusable input to one ``repro: error:`` line and exit status 2.

    Covers files that cannot be opened, read or written (``OSError``),
    malformed matrices or JSON lines
    (:class:`~repro.errors.InvalidEnsembleError`), malformed delta streams
    (:class:`~repro.errors.IncrementalError`) and unusable lint input
    (:class:`~repro.errors.LintError`).
    """

    @functools.wraps(entry)
    def run(argv: Sequence[str]) -> int:
        try:
            return entry(argv)
        except (OSError, InvalidEnsembleError, IncrementalError, LintError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2

    return run


def parse_matrix_text(text: str) -> list[list[int]]:
    """Parse whitespace/comma separated 0/1 rows; ignore comments and blanks.

    Malformed input raises :class:`~repro.errors.InvalidEnsembleError`.
    """
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            row = [int(p) for p in parts]
        except ValueError as exc:
            raise InvalidEnsembleError(
                f"line {lineno}: non-integer entry ({exc})"
            ) from exc
        if any(x not in (0, 1) for x in row):
            raise InvalidEnsembleError(f"line {lineno}: entries must be 0 or 1")
        rows.append(row)
    if not rows:
        raise InvalidEnsembleError("no matrix rows found in the input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidEnsembleError("all rows must have the same number of entries")
    return rows


def _parse_matrix(
    text: str, columns: bool = False
) -> tuple[BinaryMatrix, Ensemble]:
    """The matrix in ``text`` and its row (``columns``: column) ensemble."""
    matrix = BinaryMatrix(parse_matrix_text(text))
    return matrix, matrix.column_ensemble() if columns else matrix.row_ensemble()


def _read_text(path: str | None) -> str:
    """The contents of the file ``path``; ``None`` or ``"-"`` reads stdin."""
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@contextlib.contextmanager
def _traced(path: str | None) -> Iterator:
    """A fresh tracer whose spans are written to ``path`` as JSON lines
    when the block completes; ``None`` (no tracing) when ``path`` is unset."""
    if not path:
        yield None
        return
    from .obs import Tracer
    from .obs.export import write_trace_jsonl

    tracer = Tracer()
    yield tracer
    write_trace_jsonl(tracer, path)


#: planted Tucker obstruction for the trace demo's certification leg.
_DEMO_REJECT = """\
1 1 0 0 0 0
0 1 1 0 0 0
1 0 1 0 0 0
0 0 0 1 1 0
1 0 0 1 0 0
"""


@_reports_bad_input
def trace_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro trace``."""
    from .obs import Tracer, calibrate, use_tracer
    from .obs.export import (
        write_chrome_trace,
        write_metrics_snapshot,
        write_trace_jsonl,
    )
    from .parallel import ParallelSolver
    from .serve import ServePool

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run an instrumented, certified solve through two "
        "worker pools (a repro.parallel component fan-out and a "
        "repro.serve persistent pool) with tracing on, then write the "
        "stitched span trace and join it against the repro.pram.costmodel "
        "analytic charges.  The calibration report keeps measured seconds "
        "and analytic work units strictly apart — only the labelled "
        "seconds-per-unit ratio relates them.",
    )
    parser.add_argument(
        "matrix",
        nargs="?",
        help="path to a matrix file ('-' for stdin; default: built-in demo)",
    )
    _add_shared(parser, "--demo", "--circular", "--engine")
    parser.add_argument(
        "--parallel",
        type=int,
        default=2,
        metavar="N",
        help="workers in the component fan-out (default: 2)",
    )
    parser.add_argument(
        "--pool",
        type=int,
        default=2,
        metavar="N",
        help="workers in the persistent serve pool leg (default: 2)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default="trace.jsonl",
        help="span trace output, JSON lines (default: trace.jsonl)",
    )
    parser.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help="also write the trace in Chrome trace-event format "
        "(viewable in chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write the pools' metrics snapshots (queue depth, "
        "backpressure wait, utilization, respawns, dispatch bytes) to FILE",
    )
    parser.add_argument(
        "--calibration",
        metavar="FILE",
        default=None,
        help="write the cost-model calibration report to FILE as JSON",
    )
    _add_shared(parser, "--quiet")
    args = parser.parse_args(argv)
    if args.parallel < 1:
        parser.error(f"--parallel must be >= 1, got {args.parallel}")
    if args.pool < 1:
        parser.error(f"--pool must be >= 1, got {args.pool}")

    if args.matrix in (None, "-") and not args.demo and sys.stdin.isatty():
        args.demo = True  # bare `repro trace` at a terminal means the demo
    if args.demo or args.matrix is None:
        # Two disjoint blocks: multi-component by construction, so the
        # fan-out genuinely submits component tasks to worker processes.
        rows = [[0] * 24 for _ in range(16)]
        for i, base in enumerate((0, 12)):
            for k in range(8):
                for bit in (base + k, base + k + 1, base + k + 2):
                    rows[8 * i + k][bit] = 1
        ensemble = BinaryMatrix(rows).row_ensemble()
    else:
        _, ensemble = _parse_matrix(_read_text(args.matrix))
    _, reject = _parse_matrix(_DEMO_REJECT)

    tracer = Tracer()
    start = time.perf_counter()
    with use_tracer(tracer):
        # Leg 1: certified solve with the component fan-out.
        # fanout="always" bypasses the cost-model veto so the trace always
        # contains the fan-out's worker-side serve.task spans.
        with ParallelSolver(args.parallel, fanout="always") as solver:
            solve = solver.solve_cycle if args.circular else solver.solve_path
            order = solve(ensemble, engine=args.engine)
            parallel_metrics = (
                solver.executor.metrics.snapshot()
                if solver.executor is not None
                else {}
            )
        # Leg 2: certification — the accepting instance's narrow never
        # fires, so a planted obstruction exercises certify.narrow too.
        solve_fn = cycle_realization if args.circular else path_realization
        certified = solve_fn(ensemble, engine=args.engine, certify=True)
        solve_fn(reject, engine=args.engine, certify=True)
        # Leg 3: the persistent serve pool, worker spans stitched back
        # over the result pipes.
        with ServePool(args.pool) as pool:
            pool.solve_many(
                [ensemble, reject],
                circular=args.circular,
                engine=args.engine,
                certify=True,
                trace=tracer,
            )
            serve_metrics = pool.metrics_snapshot()
    elapsed = time.perf_counter() - start

    if order != (None if certified.order is None else list(certified.order)):
        print("repro trace: parallel and serial orders disagree", file=sys.stderr)
        return 2

    spans = tracer.spans()
    span_count = write_trace_jsonl(tracer, args.out)
    artifacts = [args.out]
    if args.chrome:
        write_chrome_trace(tracer, args.chrome)
        artifacts.append(args.chrome)
    if args.metrics:
        write_metrics_snapshot(
            {"parallel": parallel_metrics, "serve": serve_metrics}, args.metrics
        )
        artifacts.append(args.metrics)
    report = calibrate(tracer.records())
    if args.calibration:
        report.write(args.calibration)
        artifacts.append(args.calibration)

    if args.quiet:
        for path in artifacts:
            print(path)
        return 0

    parent = {s.pid for s in spans if s.pid == os.getpid()}
    workers = {s.pid for s in spans} - parent
    verdict = "realizable" if order is not None else "not realizable"
    print(
        f"traced a certified solve ({verdict}) through a {args.parallel}-worker "
        f"fan-out and a {args.pool}-worker serve pool in {elapsed:.3f}s"
    )
    print(
        f"{span_count} spans ({sum(1 for s in spans if s.pid != os.getpid())} "
        f"worker-side from {len(workers)} worker process(es)) -> {args.out}"
    )
    print(report.render())
    return 0


@_reports_bad_input
def lint_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro lint``."""
    from .analysis import Baseline, checker_for, run_lint

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Run the repo-native static-analysis pass over a source "
        "tree: shm-lifecycle (segments closed/unlinked on every path), "
        "span-lifecycle (begun trace spans ended/aborted on every path), "
        "spawn-safety (worker payloads picklable by construction), "
        "flag-parity (kernel/engine/certify/circular kwargs forwarded "
        "through every public layer), exception-contract (typed errors, no "
        "silent swallows, no validation asserts) and differential-coverage "
        "(every fast path bound to a differential/stress/fuzz/corpus "
        "suite).  Intentional exceptions live in a committed baseline "
        "(entries need a written justification) or behind inline "
        "'# repro: lint-ok[rule]' pragmas.",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=".",
        help="repository root containing src/repro (default: cwd)",
    )
    parser.add_argument(
        "--rules",
        metavar="RULE[,RULE...]",
        default=None,
        help="run only these rule ids (default: all six)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file (default: ROOT/lint-baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings (justifications "
        "are stubbed with TODO markers for you to fill in) and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="finding output format; 'github' emits workflow-command "
        "annotations (::error file=...,line=...)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any non-baselined finding exists (the CI "
        "gate); without it the run only reports",
    )
    args = parser.parse_args(argv)
    baseline_path = args.baseline or str(Path(args.root) / "lint-baseline.json")
    checkers = None
    if args.rules is not None:
        checkers = [
            checker_for(rule.strip())
            for rule in args.rules.split(",")
            if rule.strip()
        ]
    baseline = Baseline.load(baseline_path)
    report = run_lint(args.root, checkers=checkers, baseline=baseline)

    if args.update_baseline:
        payload = baseline.regenerated(report.new + report.baselined).to_json()
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(
            f"wrote {len(payload['entries'])} entries to {baseline_path} "
            "(fill in the TODO justifications)"
        )
        return 0

    if args.format == "json":
        print(
            json.dumps(
                {
                    "new": [f.to_json() for f in report.new],
                    "baselined": [f.to_json() for f in report.baselined],
                    "pragma_suppressed": report.suppressed,
                    "stale_baseline_entries": report.stale,
                },
                indent=2,
            )
        )
    else:
        for finding in report.new:
            line = (
                finding.render_github()
                if args.format == "github"
                else finding.render()
            )
            print(line)
        for finding in report.baselined:
            if args.format != "github":  # annotations only for actionable ones
                print(f"{finding.render()}  [baselined]")
        for entry in report.stale:
            print(
                f"stale baseline entry: {entry['rule']} at {entry['path']} "
                f"({entry['context']}) no longer matches any finding",
                file=sys.stderr,
            )
        summary = (
            f"{len(report.new)} finding(s), {len(report.baselined)} "
            f"baselined, {report.suppressed} pragma-suppressed, "
            f"{len(report.stale)} stale baseline entr(y/ies)"
        )
        print(summary, file=sys.stderr)
    if args.strict and report.new:
        return 1
    return 0


def parse_instance_line(line: str, lineno: int) -> tuple[object, list[list[int]]]:
    """Decode one serve-mode JSON line into ``(id, matrix_rows)``.

    Accepts a bare matrix (JSON list of 0/1 rows) or an object with a
    ``"matrix"`` key and an optional ``"id"``.  Structural problems raise
    :class:`~repro.errors.InvalidEnsembleError` naming the line, exactly
    like :func:`parse_matrix_text`.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InvalidEnsembleError(f"line {lineno}: not valid JSON ({exc})") from exc
    instance_id: object = None
    if isinstance(payload, dict):
        if "matrix" not in payload:
            raise InvalidEnsembleError(
                f"line {lineno}: instance object lacks a 'matrix' key"
            )
        instance_id = payload.get("id")
        rows = payload["matrix"]
    else:
        rows = payload
    if not isinstance(rows, list) or not rows or not all(
        isinstance(r, list) and r for r in rows
    ):
        raise InvalidEnsembleError(
            f"line {lineno}: matrix must be a non-empty list of rows"
        )
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise InvalidEnsembleError(
                f"line {lineno}: all rows must have the same length"
            )
        # exact ints: JSON true/false and 1.0 compare equal to 1 and 0
        if any(type(x) is not int or x not in (0, 1) for x in r):
            raise InvalidEnsembleError(f"line {lineno}: entries must be 0 or 1")
    return instance_id, rows


def parse_delta_line(line: str, lineno: int) -> tuple[str, object]:
    """Decode one ``--incremental`` JSON line into an ``(op, value)`` delta.

    ``{"op": "open", "n": 5}`` yields ``("open", 5)``; ``{"op": "add",
    "column": [0, 2]}`` / ``{"op": "remove", ...}`` yield the column's
    atom indices.  Structural problems raise
    :class:`~repro.errors.InvalidEnsembleError` naming the line, exactly
    like :func:`parse_instance_line`.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InvalidEnsembleError(f"line {lineno}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "op" not in payload:
        raise InvalidEnsembleError(f"line {lineno}: delta object lacks an 'op' key")
    op = payload["op"]
    if op == "open":
        n = payload.get("n")
        if type(n) is not int or n < 1:
            raise InvalidEnsembleError(
                f"line {lineno}: 'open' needs a positive integer 'n'"
            )
        return op, n
    if op in ("add", "remove"):
        column = payload.get("column")
        if not isinstance(column, list) or not all(
            type(a) is int and a >= 0 for a in column
        ):
            raise InvalidEnsembleError(
                f"line {lineno}: {op!r} needs a 'column' list of "
                f"non-negative atom indices"
            )
        return op, column
    raise InvalidEnsembleError(
        f"line {lineno}: unknown op {op!r}; expected 'open', 'add' or 'remove'"
    )


@_reports_bad_input
def serve_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro serve``."""
    from .serve import ServePool

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a stream of (0,1)-matrix instances through a "
        "persistent shared-memory worker pool.  Input is JSON lines: each "
        "line is either a bare matrix (list of 0/1 rows) or an object "
        '{"matrix": [[...]], "id": <anything>}; blank lines and #-comments '
        "are ignored.  One result JSON line is emitted per instance "
        "(repro.batch.BatchResult.summary() plus the echoed id).",
    )
    parser.add_argument(
        "input", help="path to a JSON-lines instance file ('-' for stdin)"
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="worker processes kept warm (0 = one per CPU; default: 0)",
    )
    _add_shared(parser, "--columns", "--circular")
    parser.add_argument(
        "--kernel",
        choices=("indexed", "reference"),
        default="indexed",
        help="solver kernel per task (default: indexed)",
    )
    _add_shared(parser, "--engine", "--certify")
    parser.add_argument(
        "--unordered",
        action="store_true",
        help="emit results in completion order (lowest latency) instead of "
        "input order; every line carries its instance index either way",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="backpressure window: maximum simultaneously in-flight tasks "
        "(= live shared-memory segments; default: 4x workers)",
    )
    _add_shared(parser, "--quiet", "--trace")
    parser.add_argument(
        "--cache",
        type=int,
        default=0,
        metavar="N",
        help="front the pool with a canonical-form result cache holding up "
        "to N instances: relabeled duplicates are answered from the store "
        "(remapped onto their own labels) instead of re-solved; hit/miss/"
        "eviction counters land in the closing stats line (0 = off)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="delta mode: input lines are session deltas instead of "
        'matrices — {"op": "open", "n": 5} first, then {"op": "add", '
        '"column": [0, 2]} / {"op": "remove", "column": [...]} — applied '
        "in order to one worker-pinned PQ-tree session, one result line "
        "per delta (incompatible with --cache, --columns and --unordered)",
    )
    args = parser.parse_args(argv)
    if args.processes < 0:
        parser.error(f"--processes must be >= 0, got {args.processes}")
    if args.max_inflight is not None and args.max_inflight < 1:
        parser.error(f"--max-inflight must be >= 1, got {args.max_inflight}")
    if args.cache < 0:
        parser.error(f"--cache must be >= 0, got {args.cache}")
    if args.incremental and args.cache:
        parser.error("--incremental and --cache are mutually exclusive")
    if args.incremental and (args.columns or args.unordered):
        parser.error(
            "--incremental reads deltas, not matrices: --columns and "
            "--unordered do not apply"
        )

    handle = (
        sys.stdin
        if args.input == "-"
        else open(args.input, "r", encoding="utf-8")
    )
    # Instances are parsed lazily, line by line, and fed straight into the
    # pool's feeder thread: results start flowing before the producer has
    # closed the stream, bounded by the pool's in-flight window.
    ids: list[object] = []

    def _lines():
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line

    def _instances():
        for lineno, line in _lines():
            instance_id, rows = parse_instance_line(line, lineno)
            matrix = BinaryMatrix(rows)
            ids.append(instance_id)
            yield matrix.column_ensemble() if args.columns else matrix.row_ensemble()

    def _deltas():
        for lineno, line in _lines():
            delta = parse_delta_line(line, lineno)
            ids.append(lineno)
            yield delta

    solved = 0
    cache = None
    cache_stats = None
    with _traced(args.trace) as tracer:
        start = time.perf_counter()
        try:
            with ServePool(args.processes, max_inflight=args.max_inflight) as pool:
                if args.cache:
                    from .incremental import ResultCache

                    cache = ResultCache(args.cache, metrics=pool.metrics)
                stream = pool.solve_stream(
                    _deltas() if args.incremental else _instances(),
                    circular=args.circular,
                    kernel=args.kernel,
                    engine=args.engine,
                    certify=args.certify,
                    ordered=not (args.unordered or args.incremental),
                    trace=tracer,
                    cache=cache,
                    incremental=args.incremental,
                )
                for result in stream:
                    solved += result.ok
                    record = dict(result.summary(), id=ids[result.index])
                    print(json.dumps(record, default=str), flush=True)
                cache_stats = (
                    pool.metrics_snapshot() if args.cache and not args.quiet else None
                )
        finally:
            if handle is not sys.stdin:
                handle.close()
        elapsed = time.perf_counter() - start

    if not args.quiet:
        rate = len(ids) / elapsed if elapsed > 0 else float("inf")
        noun = "deltas" if args.incremental else "instances"
        print(
            f"{len(ids)} {noun} in {elapsed:.3f}s "
            f"({rate:.1f} {noun}/sec, {solved} with the property)",
            file=sys.stderr,
        )
        if cache_stats is not None:
            hits = int(cache_stats.get("cache.hits", {}).get("value", 0))
            misses = int(cache_stats.get("cache.misses", {}).get("value", 0))
            coalesced = int(
                cache_stats.get("cache.coalesced", {}).get("value", 0)
            )
            evictions = int(cache_stats.get("cache.evictions", {}).get("value", 0))
            print(
                f"cache: {hits} hits, {misses} misses "
                f"({coalesced} coalesced onto in-flight solves), "
                f"{evictions} evictions",
                file=sys.stderr,
            )
    return 0 if solved == len(ids) else 1


@_reports_bad_input
def batch_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro batch``."""
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Test the consecutive-ones property of many (0,1)-matrices at once.",
    )
    parser.add_argument("matrices", nargs="+", help="paths to matrix files")
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="fan the instances out over a serve pool of N worker "
        "processes for this run (0 = one per CPU; default: solve serially)",
    )
    _add_shared(
        parser, "--columns", "--circular", "--engine", "--certify", "--quiet",
        "--json", "--trace",
    )
    args = parser.parse_args(argv)
    if args.processes is not None and args.processes < 0:
        parser.error(f"--processes must be >= 0, got {args.processes}")
    # batch paths are files only: '-' is not stdin here
    ensembles = [
        _parse_matrix(Path(path).read_text(encoding="utf-8"), args.columns)[1]
        for path in args.matrices
    ]

    with _traced(args.trace) as tracer:
        start = time.perf_counter()
        results = solve_many(
            ensembles,
            circular=args.circular,
            processes=args.processes,
            engine=args.engine,
            certify=args.certify,
            trace=tracer,
        )
        elapsed = time.perf_counter() - start

    for path, result in zip(args.matrices, results):
        if result.order is None:
            witness = ""
            if result.certificate is not None:
                witness = f"  witness={result.certificate.family}(k={result.certificate.k})"
            print(f"{path}: NO{witness}")
        else:
            print(f"{path}: YES  {' '.join(str(a) for a in result.order)}")

    solved = sum(1 for r in results if r.ok)
    rate = len(results) / elapsed if elapsed > 0 else float("inf")
    if not args.quiet:
        print(
            f"{len(results)} instances in {elapsed:.3f}s "
            f"({rate:.1f} instances/sec, {solved} with the property)"
        )
    if args.json:
        payload = {
            "instances": [
                dict(result.summary(), path=path)
                for path, result in zip(args.matrices, results)
            ],
            "elapsed_seconds": elapsed,
            "instances_per_second": rate,
            "processes": args.processes,
            "circular": args.circular,
            "certify": args.certify,
            "engine": resolve_engine(args.engine),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
    return 0 if solved == len(results) else 1


@_reports_bad_input
def certify_main(argv: Sequence[str]) -> int:
    """Entry point of ``python -m repro certify``."""
    parser = argparse.ArgumentParser(
        prog="repro certify",
        description="Solve one (0,1)-matrix and emit a machine-checkable "
        "certificate either way: the realizing order on acceptance, a Tucker "
        "obstruction witness (family + row/column embedding) on rejection. "
        "Certificates are re-validated by the independent checker before "
        "being reported.",
    )
    parser.add_argument("matrix", help="path to the matrix file ('-' for stdin)")
    _add_shared(parser, "--columns", "--circular", "--engine", "--json", "--quiet")
    args = parser.parse_args(argv)
    _, ensemble = _parse_matrix(_read_text(args.matrix), args.columns)
    solve = cycle_realization if args.circular else path_realization

    start = time.perf_counter()
    result = solve(ensemble, engine=args.engine, certify=True)
    elapsed = time.perf_counter() - start

    # The extractor already self-validates witnesses; re-check here so the
    # *reported* verdict never depends on solver-side code paths alone.
    checker_ok = check_ensemble(ensemble, result.certificate)
    kind = "circular-ones" if args.circular else "consecutive-ones"
    axis = "column" if args.columns else "row"
    if result.ok:
        names = " ".join(str(a) for a in result.order)
        print(f"YES  {axis} order: {names}" if args.quiet
              else f"The matrix has the {kind} property.\n{axis} order: {names}")
    else:
        witness = result.certificate
        line = f"NO  witness: {witness.describe(ensemble.column_names)}"
        if not args.quiet:
            print(f"The matrix does NOT have the {kind} property.")
        print(line)
    if not args.quiet:
        print(f"independent checker: {'OK' if checker_ok else 'FAILED'}")

    if args.json:
        payload = dict(
            result.to_json(),
            matrix=None if args.matrix == "-" else args.matrix,
            axis=axis,
            property=kind,
            checker_ok=checker_ok,
            elapsed_seconds=elapsed,
            engine=resolve_engine(args.engine),
        )
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)

    if not checker_ok:  # pragma: no cover - defensive
        return 2
    return 0 if result.ok else 1


#: the mode words, each with its entry point and its line in the plain
#: mode's epilog; any other first argument is the plain mode's matrix file.
_MODES: dict[str, tuple[Callable[[Sequence[str]], int], str]] = {
    "batch": (
        batch_main,
        "'repro batch FILE [FILE ...]' to solve many matrices at once over a "
        "process pool",
    ),
    "serve": (
        serve_main,
        "'repro serve FILE' to stream JSON-line instances through a "
        "persistent shared-memory worker pool",
    ),
    "certify": (certify_main, "'repro certify FILE' for a standalone certificate report"),
    "lint": (lint_main, "'repro lint' for the repo-native invariant lint pass"),
    "trace": (
        trace_main,
        "'repro trace' for an instrumented solve with a cost-model "
        "calibration report",
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _MODES:
        entry, _ = _MODES[argv[0]]
        return entry(list(argv[1:]))
    return _solve_main(argv)


@_reports_bad_input
def _solve_main(argv: Sequence[str]) -> int:
    """The plain solve mode: ``python -m repro [matrix]``."""
    words = [f"'{word}'" for word in _MODES]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Test and realize the consecutive-ones property of a (0,1)-matrix.",
        epilog="Use "
        + ", ".join(usage for _, usage in _MODES.values())
        + " (see their --help). A matrix file literally named "
        + ", ".join(words[:-1])
        + f" or {words[-1]} can be solved as './batch'.",
    )
    parser.add_argument("matrix", nargs="?", help="path to the matrix file ('-' for stdin)")
    _add_shared(parser, "--demo", "--columns", "--circular", "--engine", "--certify")
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="solve this one instance with N real worker processes, one "
        "pool task per component (repro.parallel); small or connected "
        "instances fall back to the serial kernel automatically",
    )
    _add_shared(parser, "--trace", "--quiet")
    args = parser.parse_args(argv)
    if args.parallel is not None and args.parallel < 1:
        parser.error(f"--parallel must be >= 1, got {args.parallel}")
    matrix, ensemble = _parse_matrix(
        _DEMO if args.demo else _read_text(args.matrix), args.columns
    )
    solve = cycle_realization if args.circular else path_realization
    with _traced(args.trace) as tracer:
        if args.certify:
            result = solve(
                ensemble,
                engine=args.engine,
                certify=True,
                parallel=args.parallel,
                trace=tracer,
            )
            order = None if result.order is None else list(result.order)
        else:
            result = None
            order = solve(
                ensemble, engine=args.engine, parallel=args.parallel, trace=tracer
            )

    if order is None:
        print("NO" if args.quiet else "The matrix does NOT have the requested property.")
        if result is not None:
            witness = result.certificate
            verdict = "OK" if check_ensemble(ensemble, witness) else "FAILED"
            print(f"witness: {witness.describe(ensemble.column_names)}")
            if not args.quiet:
                print(f"independent checker: {verdict}")
        return 1

    names = [str(x) for x in order]
    if args.quiet:
        print(" ".join(names))
        return 0

    kind = "circular-ones" if args.circular else "consecutive-ones"
    axis = "column" if args.columns else "row"
    print(f"The matrix has the {kind} property.")
    print(f"{axis} order: {' '.join(names)}")
    if not args.circular:
        permuted = matrix.permute_columns(names) if args.columns else matrix.permute_rows(names)
        print("permuted matrix:")
        for row_name, row in zip(permuted.row_names, permuted.data):
            print("  " + " ".join(str(int(x)) for x in row))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
