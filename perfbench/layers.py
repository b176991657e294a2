"""The traced run: per-layer metrics, timed from outside the program.

Two sources feed the per-layer table, and neither adds a span or an
option to ``src/``:

* a **traced pass**: the workload's own serving path, run once untraced
  and once with ``trace=repro.obs.Tracer()`` passed into the public entry
  points, over the same number of requests.  The ratio of the two wall
  times is ``obs.trace_overhead``; the pool's ``metrics_snapshot()``
  counters over the traced pass give the serve and cache shares; the
  spans the program already emits give ``unattributed_share``;
* **layer replays**: a sample of the workload's own inputs pushed through
  each layer's public function, one call at a time, inside the
  benchmark's own ``bench.*`` spans.  Spans the program emits under them
  (``tutte.build``, ``merge.verify``) give self times.

Every answer either source produces is checked: proven as in the untimed
phase, or (the PQ-tree replay through the pool) compared with the same
session applied in-process.  All spans are written to
``.bench_build/perfbench/`` when the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from repro import (
    IndexedEnsemble,
    IncrementalSolver,
    ParallelSolver,
    ResultCache,
    ServePool,
    SolverStats,
    extract_tucker_witness,
    path_realization,
    solve_many,
    verify_linear_layout,
)
from repro.certify import ExtractionStats, OrderCertificate, certificate_from_json, check_ensemble
from repro.ensemble import Ensemble
from repro.incremental import canonical_form
from repro.obs import Tracer, use_tracer, write_trace_jsonl
from repro.serve import pack_ensemble, unpack_ensemble

import common
import inputs
import workloads

#: requests in each half (untraced, traced) of the traced pass.
PASS_REQUESTS = {"serve-fleet": 600, "cache-replay": 400, "delta-session": 200, "giant": 2}
#: instances in each workload's layer-replay sample.
SAMPLE_SIZES = {"serve-fleet": 48, "cache-replay": 12, "delta-session": 8}
#: at most this many columns of one instance are replayed as PQ-tree adds.
SESSION_COLUMNS = 64
#: session deltas replayed through the PQ-tree after the warm-up fill.
SESSION_REPLAY = 160


class Layers:
    """Spans, proofs and metric values of one traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed: list[str] = []
        self.errors: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, what: str, ensemble: Ensemble, accepted: bool, order, certificate) -> None:
        why = workloads.prove(ensemble, accepted, order, certificate)
        if why is not None:
            self.errors.append(f"{what}: {why}")

    def timed(self, name: str, call, *args, **kwargs):
        """Run ``call`` inside a ``bench.<name>`` span; ``(result, seconds)``."""
        with self.tracer.span(f"bench.{name}") as span:
            result = call(*args, **kwargs)
        return result, span.duration


# ---------------------------------------------------------------------- #
# samples
# ---------------------------------------------------------------------- #
def _session_sample(seed: int, size: int) -> list[inputs.Request]:
    """Live sets (accepted) and live-plus-refused sets (rejected) met along
    the session, half of each."""
    stream = inputs.DeltaStream(seed)
    accepted, rejected = [], []
    for index in range(20_000):
        delta = next(stream)
        if not stream.warm:
            continue
        atoms = tuple(range(stream.atoms))
        if not delta.accepted and len(rejected) < size // 2:
            rejected.append(inputs.Request(Ensemble(atoms, tuple(stream.live) + (frozenset(delta.column),)), False))
        elif delta.accepted and index % 50 == 0 and len(accepted) < size - size // 2:
            accepted.append(inputs.Request(Ensemble(atoms, tuple(stream.live)), True))
        if len(accepted) + len(rejected) >= size:
            break
    return accepted + rejected


def _giant_sample(seed: int) -> list[inputs.Request]:
    """The two giant instances, plus the single-component one with a
    disjoint triangle beside it, so the certify layer has a rejection.
    The triangle's columns come first, so the PQ-tree replay of the first
    ``SESSION_COLUMNS`` columns meets the refusal too."""
    requests = inputs.giant_instances(seed)
    wide = requests[1].ensemble
    n = wide.num_atoms
    triangle = (frozenset({n, n + 1}), frozenset({n + 1, n + 2}), frozenset({n, n + 2}))
    twin = Ensemble(tuple(range(n + 3)), triangle + wide.columns)
    return requests + [inputs.Request(twin, False)]


def sample(workload: str, seed: int) -> list[inputs.Request]:
    if workload == "serve-fleet":
        return [inputs.fleet_request(seed, i) for i in range(SAMPLE_SIZES[workload])]
    if workload == "cache-replay":
        cdf = inputs.zipf_cdf()
        return [
            inputs.replay_request(seed, workloads.REPLAY_FILL + i, cdf)
            for i in range(SAMPLE_SIZES[workload])
        ]
    if workload == "delta-session":
        return _session_sample(seed, SAMPLE_SIZES[workload])
    return _giant_sample(seed)


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def self_times(records: list[dict], under: str) -> dict[str, float]:
    """Summed self time per span name (duration minus the children's), over
    the spans that descend from a span named ``under``."""
    by_id = {record["span_id"]: record for record in records}

    def inside(record) -> bool:
        parent = by_id.get(record["parent_id"])
        while parent is not None:
            if parent["name"] == under:
                return True
            parent = by_id.get(parent["parent_id"])
        return False

    records = [record for record in records if inside(record)]
    children = defaultdict(float)
    for record in records:
        if record["parent_id"] is not None and record["duration"] is not None:
            children[record["parent_id"]] += record["duration"]
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        if record["duration"] is not None:
            totals[record["name"]] += max(0.0, record["duration"] - children[record["span_id"]])
    return totals


def uncovered_share(records: list[dict], root: dict) -> float:
    """Share of ``root``'s wall interval during which no program span (any
    process) was open."""
    lo, hi = root["start_wall"], root["start_wall"] + root["duration"]
    intervals = sorted(
        (max(lo, r["start_wall"]), min(hi, r["start_wall"] + r["duration"]))
        for r in records
        if r["duration"] is not None and not r["name"].startswith("bench.")
    )
    covered, reach = 0.0, lo
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return 1.0 - covered / (hi - lo) if hi > lo else 0.0


# ---------------------------------------------------------------------- #
# the traced pass
# ---------------------------------------------------------------------- #
class PoolPhase:
    """Counter deltas of one pool over one phase."""

    def __init__(self, pool: ServePool) -> None:
        self.pool = pool
        self.before = pool.metrics_snapshot()
        self.started = time.perf_counter()
        self.after: dict = {}
        self.wall = 0.0

    def end(self) -> "PoolPhase":
        self.after = self.pool.metrics_snapshot()
        self.wall = time.perf_counter() - self.started
        return self

    def delta(self, name: str, field: str = "value") -> float:
        return self.after.get(name, {}).get(field, 0.0) - self.before.get(name, {}).get(field, 0.0)

    def mean(self, name: str) -> float:
        count = self.delta(name, "count")
        return self.delta(name, "sum") / count if count else 0.0


def _stream_pass(layers: Layers, pool, make, first: int, count: int, tracer, **stream) -> float:
    """Serve requests ``make(first) .. make(first + count - 1)``; wall seconds."""
    started = time.perf_counter()
    results = list(pool.solve_stream((make(first + i).ensemble for i in range(count)),
                                     chunksize=1, trace=tracer, **stream))
    wall = time.perf_counter() - started
    layers.attempted += count
    answered = {result.index: result for result in results}
    for i in range(count):
        result = answered.get(i)
        if result is None:
            layers.failed.append(f"request {first + i} got no answer")
            continue
        req = make(first + i)
        why = workloads.prove_served(req.ensemble, req.accepted, result)
        if why is not None:
            layers.failed.append(f"request {first + i}: {why}")
    return wall


def _session_pass(layers: Layers, pool, seed: int, count: int, tracer) -> float:
    """One session: warm-up fill, then ``count`` deltas; their wall seconds."""
    stream = inputs.DeltaStream(seed)
    marks: dict = {}
    handed: list[float] = []

    def feed():
        yield from workloads.session_feed(stream, handed, marks, None)
        for _ in range(count):
            delta = next(stream)
            handed.append(time.perf_counter())
            yield (delta.op, delta.column)

    results = list(pool.solve_stream(feed(), incremental=True, certify=True, trace=tracer))
    wall = time.perf_counter() - marks["setup_end"]
    layers.attempted += count
    # Prove the timed deltas against a regenerated copy of the stream.
    check = inputs.DeltaStream(seed)
    for result in results:
        delta = next(check)
        if result.index < marks["timed_from"]:
            continue
        live = list(check.live) + ([] if delta.accepted else [frozenset(delta.column)])
        ensemble = Ensemble(tuple(range(check.atoms)), tuple(live))
        why = workloads.prove_served(ensemble, delta.accepted, result)
        if why is not None:
            layers.failed.append(f"delta {result.index}: {why}")
    if len(results) != len(handed):
        layers.failed.append(f"session answered {len(results)} of {len(handed)} deltas")
    return wall


def _giant_pass(layers: Layers, requests: list, solver: ParallelSolver, tracer) -> float:
    """One serial and one parallel solve of each giant instance; wall seconds."""
    started = time.perf_counter()
    for req in requests:
        for solve in (path_realization, solver.solve_path):
            layers.attempted += 1
            with use_tracer(tracer):
                order = solve(req.ensemble)
            why = workloads.prove(req.ensemble, req.accepted, order, None)
            if why is not None:
                layers.failed.append(f"giant pass: {why}")
    return time.perf_counter() - started


def traced_pass(layers: Layers, workload: str, seed: int, pool) -> PoolPhase | None:
    """Run the workload's path untraced, then traced; record the overhead
    and the pool counters of the traced half."""
    count = PASS_REQUESTS[workload]
    trace = Tracer()
    phase = None
    if workload == "giant":
        requests = inputs.giant_instances(seed)
        with ParallelSolver(os.cpu_count() or 1) as solver:
            solver.solve_path(requests[0].ensemble)  # spawn and warm the slice workers
            walls = [_giant_pass(layers, requests, solver, None)]
            with trace.span("bench.pass"):
                walls.append(_giant_pass(layers, requests, solver, trace))
    elif workload == "delta-session":
        walls = [_session_pass(layers, pool, seed, count, None)]
        phase = PoolPhase(pool)
        with trace.span("bench.pass"):
            walls.append(_session_pass(layers, pool, seed, count, trace))
        phase.end()
    else:
        cdf = inputs.zipf_cdf()
        stream = {"certify": True}
        first = 0

        def make(index: int) -> inputs.Request:
            if workload == "cache-replay":
                return inputs.replay_request(seed, index, cdf)
            return inputs.fleet_request(seed, index)

        if workload == "cache-replay":
            stream["cache"] = ResultCache(inputs.REPLAY_CACHE_ENTRIES, metrics=pool.metrics)
            first = workloads.REPLAY_FILL
            _stream_pass(layers, pool, make, 0, first, None, **stream)
        walls = [_stream_pass(layers, pool, make, first, count, None, **stream)]
        phase = PoolPhase(pool)
        with trace.span("bench.pass"):
            walls.append(_stream_pass(layers, pool, make, first + count, count, trace, **stream))
        phase.end()
    layers.put("obs.trace_overhead", walls[1] / walls[0], "ratio")
    records = trace.records()
    root = next(r for r in records if r["name"] == "bench.pass")
    layers.put("unattributed_share", uncovered_share(records, root), "fraction")
    layers.tracer.stitch(records)
    return phase


def pool_metrics(layers: Layers, phase: PoolPhase, requests: int) -> None:
    pool = phase.pool
    layers.put("serve.task_ms", phase.mean("serve.task_seconds") * 1000.0, "ms")
    layers.put("serve.backpressure_wait_ms", phase.mean("serve.backpressure_wait_seconds") * 1000.0, "ms")
    layers.put("serve.utilization", phase.delta("serve.busy_seconds") / (phase.wall * pool.num_workers), "fraction")
    layers.put("serve.dispatch_bytes_per_req", phase.delta("serve.dispatch_bytes") / max(1, requests), "B")
    layers.put("serve.respawns", pool.respawn_count, "count")
    layers.put("serve.delta_replays", phase.after.get("serve.delta_replays", {}).get("value", 0.0), "count")
    hits, misses = phase.delta("cache.hits"), phase.delta("cache.misses")
    layers.put("incremental.hit_share", hits / (hits + misses) if hits + misses else 0.0, "fraction")
    layers.put("incremental.coalesced_share", phase.delta("cache.coalesced") / max(1, requests), "fraction")
    layers.put("incremental.evictions", phase.delta("cache.evictions"), "count")


# ---------------------------------------------------------------------- #
# layer replays
# ---------------------------------------------------------------------- #
def replay_core(layers: Layers, sample: list) -> None:
    """core + tutte + ensemble + certify: compile, solve, verify, witness, check."""
    compile_s, solve_s, verify_s, witness_s, check_s = [], [], [], [], []
    subproblems, depth, builds, members, merges, candidates, narrow = [], [], [], [], [], [], []
    for position, req in enumerate(sample):
        indexed, seconds = layers.timed("core.compile", IndexedEnsemble.from_ensemble, req.ensemble)
        compile_s.append(seconds)
        stats = SolverStats()
        with use_tracer(layers.tracer):
            order, seconds = layers.timed("core.solve", indexed.solve_path, stats)
        solve_s.append(seconds)
        subproblems.append(stats.subproblems)
        depth.append(stats.max_depth)
        builds.append(stats.tutte_builds)
        members.append(stats.tutte_members)
        merges.append(stats.merges)
        candidates.append(stats.merge_candidates)
        if order is not None:
            ok, seconds = layers.timed("ensemble.verify", verify_linear_layout, req.ensemble, order)
            verify_s.append(seconds)
            certificate = OrderCertificate("consecutive", tuple(order))
            if not ok:
                layers.errors.append(f"core replay instance {position}: layout fails verification")
        else:
            extraction = ExtractionStats()
            with use_tracer(layers.tracer):
                certificate, seconds = layers.timed(
                    "certify.witness", extract_tucker_witness, req.ensemble,
                    assume_rejected=True, stats=extraction,
                )
            witness_s.append(seconds)
            narrow.append(extraction.solve_calls)
        ok, seconds = layers.timed("certify.check", check_ensemble, req.ensemble, certificate)
        check_s.append(seconds)
        if not ok or (order is not None) != req.accepted:
            layers.errors.append(f"core replay instance {position}: wrong answer")
    spans = self_times(layers.tracer.records(), "bench.core.solve")
    layers.put("core.compile_ms", common.mean(compile_s) * 1000.0, "ms")
    layers.put("core.solve_ms", common.mean(solve_s) * 1000.0, "ms")
    layers.put("core.subproblems", common.mean(subproblems), "count")
    layers.put("core.max_depth", max(depth), "count")
    layers.put("core.merge_verify_s", spans.get("merge.verify", 0.0) / len(sample), "s")
    layers.put("core.merge_useful_share", sum(merges) / sum(candidates) if sum(candidates) else 0.0, "fraction")
    layers.put("tutte.builds", common.mean(builds), "count")
    layers.put("tutte.members", common.mean(members), "count")
    layers.put("tutte.build_s", spans.get("tutte.build", 0.0) / len(sample), "s")
    layers.put("certify.witness_ms", common.mean(witness_s) * 1000.0, "ms")
    layers.put("certify.narrow_solves", common.mean(narrow), "count")
    layers.put("certify.check_ms", common.mean(check_s) * 1000.0, "ms")
    layers.put("ensemble.verify_ms", common.mean(verify_s) * 1000.0, "ms")


def replay_batch(layers: Layers, sample: list) -> None:
    results, _ = layers.timed("batch.solve_many", solve_many, [req.ensemble for req in sample])
    for req, result in zip(sample, results):
        if result.ok != req.accepted:
            layers.errors.append(f"batch replay instance {result.index}: wrong verdict")
    layers.put("batch.parts_per_req", common.mean([result.parts for result in results]), "count")


def replay_serve(layers: Layers, sample: list, pool: ServePool) -> PoolPhase:
    """Wire pack/unpack, and one-outstanding round trips through ``pool``."""
    pack_s, unpack_s, roundtrip_s, worker_s = [], [], [], []
    phase = PoolPhase(pool)
    for position, req in enumerate(sample):
        indexed = IndexedEnsemble.from_ensemble(req.ensemble)
        payload, seconds = layers.timed("serve.pack", pack_ensemble, indexed.atoms, indexed.masks)
        pack_s.append(seconds)
        _, seconds = layers.timed("serve.unpack", unpack_ensemble, payload)
        unpack_s.append(seconds)
        busy = pool.metrics.counter("serve.busy_seconds").value
        (order, witness), seconds = layers.timed(
            "serve.roundtrip", lambda: pool.submit(req.ensemble, certify=True).result(60.0)
        )
        roundtrip_s.append(seconds)
        worker_s.append(pool.metrics.counter("serve.busy_seconds").value - busy)
        certificate = certificate_from_json(witness) if witness is not None else None
        layers.check(f"round trip {position}", req.ensemble, req.accepted, order, certificate)
    phase.end()
    layers.put("serve.pack_us", common.mean(pack_s) * 1e6, "us")
    layers.put("serve.unpack_us", common.mean(unpack_s) * 1e6, "us")
    layers.put("serve.roundtrip_ms", common.mean(roundtrip_s) * 1000.0, "ms")
    layers.put("serve.overhead_ms", (common.mean(roundtrip_s) - common.mean(worker_s)) * 1000.0, "ms")
    return phase


def replay_incremental(layers: Layers, sample: list) -> None:
    """Canonical forms, and probes of a fresh cache (the miss path)."""
    canon_s, probe_s, inexact = [], [], 0
    cache = ResultCache(inputs.REPLAY_CACHE_ENTRIES)
    for req in sample:
        form, seconds = layers.timed("incremental.canon", canonical_form, req.ensemble)
        canon_s.append(seconds)
        inexact += not form.exact
        _, seconds = layers.timed("incremental.probe", cache.probe, req.ensemble, certify=True)
        probe_s.append(seconds)
    layers.put("incremental.canon_ms", common.mean(canon_s) * 1000.0, "ms")
    layers.put("incremental.probe_ms", common.mean(probe_s) * 1000.0, "ms")
    layers.put("incremental.inexact_share", inexact / len(sample), "fraction")


def _sessions(workload: str, seed: int, sample: list) -> list[tuple[int, list]]:
    """Delta sessions to replay: the workload's own session, or one session
    per sample instance that adds its columns (then retires one)."""
    if workload == "delta-session":
        stream = inputs.DeltaStream(seed)
        deltas = []
        while not stream.warm or len(deltas) < SESSION_REPLAY + stream.live_target:
            delta = next(stream)
            if delta.op != "open":
                deltas.append((delta.op, delta.column))
        return [(stream.atoms, deltas)]
    return [
        (req.ensemble.num_atoms, [("add", tuple(sorted(c))) for c in req.ensemble.columns[:SESSION_COLUMNS]])
        for req in sample
    ]


def replay_pqtree(layers: Layers, workload: str, seed: int, sample: list, pool: ServePool) -> None:
    """Sessions applied in-process through ``IncrementalSolver``, then the
    same deltas through the pool's delta stream."""
    times = defaultdict(list)
    live_at_removes, applied, pooled = [], [], []
    for atoms, deltas in _sessions(workload, seed, sample):
        solver = IncrementalSolver(range(atoms))
        accepted, outcomes = [], []
        for op, column in deltas:
            if op == "add":
                outcome, seconds = layers.timed("pqtree.add", solver.add_column, column, certify=True)
                kind = "add" if outcome.accepted else "refuse"
                if outcome.accepted:
                    accepted.append(column)
            else:
                live_at_removes.append(solver.num_columns)
                outcome, seconds = layers.timed("pqtree.remove", solver.remove_column, column)
                kind = "remove"
            times[kind].append(seconds)
            applied.append(seconds)
            outcomes.append(outcome)
        if workload != "delta-session" and accepted:
            live_at_removes.append(solver.num_columns)
            outcome, seconds = layers.timed("pqtree.remove", solver.remove_column, accepted[0])
            times["remove"].append(seconds)
            applied.append(seconds)
            outcomes.append(outcome)
            deltas = deltas + [("remove", accepted[0])]
        handed = []

        def feed():
            yield ("open", atoms)
            for item in deltas:
                handed.append(time.perf_counter())
                yield item

        # The pool's worker runs the same session, so its answers must equal
        # the in-process ones: verdict, and the frontier layout itself.
        for result in pool.solve_stream(feed(), incremental=True, certify=True):
            if result.index == 0:
                continue
            pooled.append(time.perf_counter() - handed[result.index - 1])
            outcome = outcomes[result.index - 1]
            expected = list(outcome.order) if outcome.accepted else None
            if result.order != expected:
                layers.errors.append(f"pool session delta {result.index}: differs from the in-process session")
    layers.put("pqtree.add_ms", common.mean(times["add"]) * 1000.0, "ms")
    layers.put("pqtree.remove_ms", common.mean(times["remove"]) * 1000.0, "ms")
    layers.put("pqtree.refuse_ms", common.mean(times["refuse"]) * 1000.0, "ms")
    layers.put("pqtree.live_columns", common.mean(live_at_removes), "count")
    layers.put("serve.delta_overhead_ms", (common.mean(pooled) - common.mean(applied)) * 1000.0, "ms")


def replay_parallel(layers: Layers, sample: list) -> None:
    """The sample through a ``ParallelSolver(nproc)`` forced to fan out."""
    workers = os.cpu_count() or 1
    tasks, task_s, wall = 0, 0.0, 0.0
    with ParallelSolver(workers, fanout="always") as solver:
        for position, req in enumerate(sample):
            stats = SolverStats()
            order, seconds = layers.timed("parallel.solve", solver.solve_path, req.ensemble, stats)
            wall += seconds
            tasks += stats.parallel_tasks
            task_s += stats.parallel_task_seconds
            if (order is not None) != req.accepted:
                layers.errors.append(f"parallel replay instance {position}: wrong verdict")
        metrics = solver.executor.metrics.snapshot() if solver.executor is not None else {}
    wait = metrics.get("parallel.queue_wait_seconds", {})
    layers.put("parallel.tasks", tasks / len(sample), "count")
    layers.put("parallel.busy_share", task_s / (wall * workers) if wall else 0.0, "fraction")
    layers.put("parallel.queue_wait_ms", wait.get("sum", 0.0) / wait["count"] * 1000.0 if wait.get("count") else 0.0, "ms")
    layers.put("parallel.dispatch_bytes", metrics.get("parallel.dispatch_bytes", {}).get("value", 0.0) / len(sample), "B")


# ---------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, root: str):
    """The traced run; returns ``(correct, attempted, failed, metrics, beside)``.

    ``seconds`` is unused: the traced run measures fixed request counts,
    so its per-layer figures compare across runs of any length.
    """
    del seconds
    layers = Layers()
    started = time.perf_counter()
    requests = sample(workload, seed)
    w = common.workers()
    with ServePool(w, max_inflight=w + 1) as pool:
        phase = None if workload == "giant" else traced_pass(layers, workload, seed, pool)
        serve_phase = replay_serve(layers, requests, pool)
        pool_metrics(layers, phase if phase is not None else serve_phase,
                     PASS_REQUESTS[workload] if phase is not None else len(requests))
        replay_pqtree(layers, workload, seed, requests, pool)
    if workload == "giant":
        traced_pass(layers, workload, seed, None)
    replay_core(layers, requests)
    replay_batch(layers, requests)
    replay_incremental(layers, requests)
    replay_parallel(layers, requests)

    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl")
    spans = write_trace_jsonl(layers.tracer, trace_path)
    for line in layers.failed[:20] + layers.errors[:20]:
        print(f"WRONG {workload} (traced): {line}")
    beside = {
        "trace_file": os.path.relpath(trace_path, root),
        "spans": spans,
        "sample_instances": len(requests),
        "traced_run_s": time.perf_counter() - started,
    }
    correct = layers.attempted > 0 and not layers.failed and not layers.errors
    return correct, layers.attempted, len(layers.failed), layers.metrics, beside
