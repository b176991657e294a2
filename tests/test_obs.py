"""The observability substrate: tracing, metrics, export, calibration.

Four layers under test:

* unit behaviour of :mod:`repro.obs.trace` and :mod:`repro.obs.metrics`
  (span lifecycle, the zero-allocation null tracer, histogram
  percentiles);
* hypothesis round-trips for every export format — JSON-lines traces,
  Chrome trace events, metrics snapshots;
* cross-process span stitching through the pool, submitted to directly
  and under a ``ParallelSolver`` fan-out, including the
  crash-mid-span envelope: a worker SIGKILLed with open spans must leave
  ``status="aborted"`` parent-side spans and **no orphaned span ids** in
  the stitched trace;
* the calibration join: measured spans against
  :mod:`repro.pram.costmodel` terms, with measured and analytic numbers
  never mixed (DESIGN.md, Substitution 8).
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Ensemble, solve_many
from repro.certify import certified_path_realization
from repro.core import cycle_realization, path_realization
from repro.core.instrument import SolverStats
from repro.obs import (
    NOOP_SPAN,
    NULL_TRACER,
    Counter,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    calibrate,
    chrome_trace,
    current_tracer,
    read_trace_jsonl,
    set_tracing_enabled,
    use_tracer,
    write_chrome_trace,
    write_metrics_snapshot,
    write_trace_jsonl,
)
from repro.parallel.solver import ParallelSolver
from repro.serve.pool import ServePool


def _ens(n, cols):
    return Ensemble(tuple(range(n)), tuple(frozenset(c) for c in cols))


def _two_block_instance() -> Ensemble:
    """Two disjoint path blocks — multi-component by construction."""
    cols = []
    for base in (0, 12):
        for k in range(8):
            cols.append({base + k, base + k + 1, base + k + 2})
    return _ens(24, cols)


def _rejecting_instance() -> Ensemble:
    """A small instance with a planted Tucker obstruction."""
    return _ens(6, [{0, 1}, {1, 2}, {2, 0}, {3, 4}, {0, 3}])


def _assert_stitched(spans, *, allow_aborted=False):
    """No orphaned parents, no spans left open."""
    ids = {s.span_id for s in spans}
    orphans = [
        s for s in spans if s.parent_id is not None and s.parent_id not in ids
    ]
    assert not orphans, f"orphaned parent ids: {orphans}"
    still_open = [s for s in spans if s.status == "open"]
    assert not still_open, f"spans left open: {still_open}"
    if not allow_aborted:
        bad = [s for s in spans if s.status not in ("ok",)]
        assert not bad, f"unexpected non-ok spans: {bad}"


# ---------------------------------------------------------------------- #
# tracer unit behaviour
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_span_nesting_and_parenting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.status for s in tracer.spans()] == ["ok", "ok"]
        assert all(s.duration is not None for s in tracer.spans())

    def test_abort_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.status == "aborted"
        assert span.duration is not None

    def test_end_and_abort_are_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("once")
        span.abort("error")
        duration = span.duration
        span.end()
        span.abort()
        assert span.status == "error"
        assert span.duration == duration

    def test_root_parent_seeds_unparented_spans(self):
        tracer = Tracer(root_parent="123:9")
        span = tracer.begin("child")
        span.end()
        assert span.parent_id == "123:9"

    def test_explicit_parent_overrides_ambient(self):
        tracer = Tracer()
        with tracer.span("ambient"):
            span = tracer.begin("adopted", parent="55:1", retry=1)
            span.end()
        assert span.parent_id == "55:1"
        assert span.tags == {"retry": 1}

    def test_span_ids_are_pid_qualified_and_unique(self):
        tracer = Tracer()
        spans = [tracer.begin(f"s{i}") for i in range(10)]
        for span in spans:
            span.end()
        ids = {s.span_id for s in spans}
        assert len(ids) == 10
        assert all(i.startswith(f"{os.getpid()}:") for i in ids)

    def test_stitch_round_trips_records(self):
        tracer = Tracer()
        with tracer.span("local"):
            pass
        other = Tracer()
        other.stitch(tracer.records())
        (copy,) = other.spans()
        (original,) = tracer.spans()
        assert copy.to_record() == original.to_record()

    def test_tracer_is_thread_safe(self):
        tracer = Tracer()

        def work():
            for _ in range(100):
                tracer.begin("t").end()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans()
        assert len(spans) == 400
        assert len({s.span_id for s in spans}) == 400


class TestNullTracer:
    def test_ambient_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_allocates_nothing(self):
        assert NULL_TRACER.span("x") is NOOP_SPAN
        assert NULL_TRACER.begin("x") is NOOP_SPAN
        with NULL_TRACER.span("x") as span:
            assert span is NOOP_SPAN
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.records() == []

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with use_tracer(None):  # fencing an untraced region
                assert current_tracer() is NULL_TRACER
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_kill_switch_shadows_installed_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            set_tracing_enabled(False)
            try:
                assert current_tracer() is NULL_TRACER
            finally:
                set_tracing_enabled(True)
            assert current_tracer() is tracer


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc(2)
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 2

    def test_registry_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")  # same name, different type

    def test_histogram_percentiles_are_ordered(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        rng = random.Random(7)
        values = [rng.uniform(1e-4, 1e-1) for _ in range(500)]
        for v in values:
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 500
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        values.sort()
        # bucketed percentile must land within a bucket (factor-2 bounds)
        assert snap["p50"] == pytest.approx(values[250], rel=1.0)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        assert gauge.snapshot()["value"] == 2


class TestSolverStatsSummary:
    def test_summary_surfaces_parallel_task_seconds(self):
        # Regression: summary() dropped parallel_task_seconds while
        # reporting every other parallel field.
        stats = SolverStats()
        stats.parallel_tasks = 3
        stats.parallel_task_seconds = 1.25
        summary = stats.summary()
        assert summary["parallel_tasks"] == 3
        assert summary["parallel_task_seconds"] == 1.25


# ---------------------------------------------------------------------- #
# export round-trips
# ---------------------------------------------------------------------- #
_tags = st.dictionaries(
    st.sampled_from(["n", "m", "p", "engine", "retry"]),
    st.one_of(st.integers(0, 10_000), st.sampled_from(["spqr", "splitpair"])),
    max_size=3,
)
_records = st.lists(
    st.builds(
        lambda i, parent, name, status, wall, dur, pid, tags: {
            "span_id": f"{pid}:{i}",
            "parent_id": parent,
            "name": name,
            "status": status,
            "start_wall": wall,
            "duration": dur,
            "pid": pid,
            "tags": tags,
        },
        i=st.integers(1, 1000),
        parent=st.one_of(st.none(), st.just("7:1")),
        name=st.sampled_from(
            ["solve.path", "merge.verify", "serve.task", "custom.phase"]
        ),
        status=st.sampled_from(["ok", "aborted", "error"]),
        wall=st.floats(0, 2e9, allow_nan=False),
        dur=st.one_of(st.none(), st.floats(0, 1e4, allow_nan=False)),
        pid=st.integers(1, 99999),
        tags=_tags,
    ),
    max_size=8,
)


class TestExport:
    @given(records=_records)
    def test_jsonl_round_trip(self, tmp_path_factory, records):
        path = str(tmp_path_factory.mktemp("trace") / "trace.jsonl")
        count = write_trace_jsonl(records, path)
        assert count == len(records)
        assert read_trace_jsonl(path) == records

    @given(records=_records)
    def test_chrome_trace_shape(self, records):
        document = chrome_trace(records)
        events = document["traceEvents"]
        assert len(events) == len(records)
        for record, event in zip(records, events):
            assert event["ph"] == "X"
            assert event["name"] == record["name"]
            assert event["pid"] == event["tid"] == record["pid"]
            assert event["ts"] == record["start_wall"] * 1e6
            assert event["dur"] == (record["duration"] or 0.0) * 1e6
            assert event["args"]["span_id"] == record["span_id"]
        json.dumps(document)  # must be JSON-serialisable as-is

    def test_chrome_trace_file_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", n=3):
            pass
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(tracer, path) == 1
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["traceEvents"][0]["args"]["n"] == 3

    def test_metrics_snapshot_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        path = str(tmp_path / "metrics.json")
        write_metrics_snapshot(registry, path)
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot == registry.snapshot()
        assert snapshot["c"]["value"] == 5


# ---------------------------------------------------------------------- #
# integration: spans from real solves
# ---------------------------------------------------------------------- #
class TestSolveTracing:
    def test_path_realization_emits_solve_span(self):
        tracer = Tracer()
        instance = _two_block_instance()
        assert path_realization(instance, trace=tracer) is not None
        names = {s.name for s in tracer.spans()}
        assert "solve.path" in names
        _assert_stitched(tracer.spans())

    def test_cycle_realization_emits_cycle_span(self):
        tracer = Tracer()
        instance = _two_block_instance()
        cycle_realization(instance, trace=tracer)
        assert "solve.cycle" in {s.name for s in tracer.spans()}

    def test_untraced_solve_records_nothing(self):
        instance = _two_block_instance()
        tracer = Tracer()
        path_realization(instance)  # no trace=, no ambient
        assert tracer.spans() == []

    def test_certified_rejection_emits_certify_narrow(self):
        tracer = Tracer()
        result = certified_path_realization(_rejecting_instance(), trace=tracer)
        assert result.order is None
        names = {s.name for s in tracer.spans()}
        assert "certify.narrow" in names
        _assert_stitched(tracer.spans())

    def test_batch_solve_many_serial_traced(self):
        tracer = Tracer()
        fleet = [_two_block_instance(), _rejecting_instance()]
        results = solve_many(fleet, certify=True, trace=tracer)
        assert [r.status for r in results] == ["realized", "rejected"]
        names = {s.name for s in tracer.spans()}
        assert "solve.path" in names
        assert "certify.narrow" in names


class TestParallelTracing:
    def test_fanout_stitches_worker_spans(self):
        tracer = Tracer()
        instance = _two_block_instance()
        with use_tracer(tracer):
            with ParallelSolver(2, fanout="always") as solver:
                order = solver.solve_path(instance)
        assert order == path_realization(instance)
        spans = tracer.spans()
        _assert_stitched(spans)
        names = {s.name for s in spans}
        assert {"parallel.components", "parallel.solve",
                "parallel.verify", "pool.spawn"} <= names
        worker_spans = [s for s in spans if s.pid != os.getpid()]
        assert worker_spans, "no worker-side spans were stitched back"
        assert {s.pid for s in worker_spans} != {os.getpid()}
        # every worker span hangs off a parent-side dispatch span
        parent_ids = {s.span_id for s in spans if s.pid == os.getpid()}
        roots = [s for s in worker_spans if s.name.startswith("worker.")]
        assert roots and all(s.parent_id in parent_ids for s in roots)

    def test_fanout_untraced_stays_clean(self):
        instance = _two_block_instance()
        with ParallelSolver(2, fanout="always") as solver:
            assert solver.solve_path(instance) == path_realization(instance)


class TestServePoolTracing:
    def test_submit_stitches_worker_spans(self):
        tracer = Tracer()
        instance = _two_block_instance()
        with ServePool(2) as pool:
            order, witness = pool.submit(instance, trace=tracer).result(30)
            snapshot = pool.metrics_snapshot()
        assert order is not None and witness is None
        spans = tracer.spans()
        _assert_stitched(spans)
        names = {s.name for s in spans}
        assert {"serve.task", "worker.serve.task", "serve.solve"} <= names
        assert any(s.pid != os.getpid() for s in spans)
        assert snapshot["serve.tasks"]["value"] == 1
        assert snapshot["serve.dispatch_bytes"]["value"] > 0

    def test_solve_many_traced_with_certify(self):
        tracer = Tracer()
        fleet = [_two_block_instance(), _rejecting_instance()]
        with ServePool(2) as pool:
            results = pool.solve_many(fleet, certify=True, trace=tracer)
        assert [r.status for r in results] == ["realized", "rejected"]
        spans = tracer.spans()
        _assert_stitched(spans)
        assert "serve.certify" in {s.name for s in spans}

    def test_spawn_opens_one_pool_spawn_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            pool = ServePool(1)
        pool.close()
        spawns = [s for s in tracer.spans() if s.name == "pool.spawn"]
        assert len(spawns) == 1
        assert spawns[0].tags["workers"] == 1

    def test_pool_utilization_reads_between_zero_and_one(self):
        with ServePool(1) as pool:
            pool.submit(_two_block_instance()).result(30)
            utilization = pool.utilization()
        assert 0.0 <= utilization <= 1.0


# ---------------------------------------------------------------------- #
# crash-mid-span stitching
# ---------------------------------------------------------------------- #
class TestCrashStitching:
    def test_fanout_sigkill_aborts_open_spans(self):
        tracer = Tracer()
        instance = _two_block_instance()
        with use_tracer(tracer), ParallelSolver(2, fanout="always") as solver:
            first = solver.solve_path(instance)
            pool = solver.executor
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not pool.respawn_count and time.monotonic() < deadline:
                time.sleep(0.01)
            assert solver.solve_path(instance) == first
            assert pool.respawn_count >= 1
            assert pool.metrics.counter("serve.respawns").value >= 1
        spans = tracer.spans()
        _assert_stitched(spans, allow_aborted=True)
        aborted = [s for s in spans if s.status == "aborted"]
        retried = [s for s in spans if s.tags.get("retry")]
        # Either the victim died holding a fan-out task (abort + retry
        # span) or it died idle between fan-outs (no task was lost) — with
        # the kill landing right after a completed wave both are legal;
        # what is *il*legal is an aborted span without its retry twin.
        assert len(aborted) == len(retried)
        for span in retried:
            assert span.status == "ok"

    def test_serve_pool_sigstop_kill_aborts_serve_task_span(self):
        tracer = Tracer()
        instance = _two_block_instance()
        pool = ServePool(1)
        try:
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGSTOP)
            try:
                future = pool.submit(instance, trace=tracer)
                time.sleep(0.2)  # bundle parked in the frozen worker
            finally:
                os.kill(victim, signal.SIGKILL)
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            order, witness = future.result(timeout=30)
            assert order == path_realization(instance)
            assert pool.respawn_count >= 1
        finally:
            pool.close(wait=False, timeout=5.0)
        spans = tracer.spans()
        _assert_stitched(spans, allow_aborted=True)
        aborted = [s for s in spans if s.status == "aborted"]
        assert any(s.name == "serve.task" for s in aborted)
        retried = [
            s for s in spans if s.name == "serve.task" and s.tags.get("retry")
        ]
        assert retried and all(s.status == "ok" for s in retried)
        # the crashed worker shipped nothing; the retry's worker did
        assert any(s.name == "worker.serve.task" for s in spans)


# ---------------------------------------------------------------------- #
# calibration
# ---------------------------------------------------------------------- #
class TestCalibration:
    def test_joins_measured_against_analytic_terms(self):
        tracer = Tracer()
        instance = _two_block_instance()
        with use_tracer(tracer):
            with ParallelSolver(2, fanout="always") as solver:
                solver.solve_path(instance)
        certified_path_realization(_rejecting_instance(), trace=tracer)
        report = calibrate(tracer.records())
        joined = set(report.joined_terms)
        assert {
            "sequential_solve_work",
            "serve_fleet_dispatch_work",
            "pool_startup_work",
            "certify_work",
        } <= joined
        for row in report.rows:
            assert row.spans >= 1
            assert row.measured_seconds >= 0.0
            assert row.analytic_units >= 1
            assert row.seconds_per_unit == pytest.approx(
                row.measured_seconds / row.analytic_units
            )

    def test_aborted_spans_are_excluded(self):
        tracer = Tracer()
        span = tracer.begin("solve.path", p=100)
        span.abort()
        ok = tracer.begin("solve.path", p=100)
        ok.end()
        report = calibrate(tracer.records())
        (row,) = report.rows
        assert row.spans == 1

    def test_self_nested_spans_count_once(self):
        tracer = Tracer()
        with tracer.span("merge.verify", p=10):
            with tracer.span("merge.verify", p=10):
                pass
        report = calibrate(tracer.records())
        (row,) = report.rows
        assert row.spans == 1

    def test_report_json_separates_measured_from_analytic(self):
        tracer = Tracer()
        with tracer.span("merge.verify", p=8):
            pass
        document = calibrate(tracer.records()).to_json()
        assert document["mode"] == "calibration"
        (row,) = document["rows"]
        assert "measured_seconds" in row
        assert "analytic_units" in row
        assert "seconds_per_unit" in row
        rendered = calibrate(tracer.records()).render()
        assert "merge_verify_work" in rendered
