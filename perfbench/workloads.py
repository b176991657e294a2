"""The four workloads: set-up, the timed closed loop, and the proofs.

Each workload runs against the public API only.  The timed phase keeps a
closed loop: a pool stream pulls the next request from a lazy generator as
soon as its in-flight window has room, so a slow system receives less load
instead of building a queue.  Latency runs from the moment the generator
hands a request to the pool until the stream yields its result.

The host's speed swings by about a quarter over seconds, so the timed loop
is split into segments with the solve passes between them: both kinds of
measurement then sample the whole run instead of one moment of it.  A
single-threaded pass runs at one of two speeds (a 64-instance fleet pass
took about 38 or about 62 ms, switching every few seconds), so a median
over passes lands in one mode or the other from run to run; the pass
metrics are therefore means over the run's rounds.

Nothing is trusted: after the timed phase every answer is proven against
its request, which is regenerated from the seed.  Layouts go through
``verify_linear_layout``, rejections through the independent
``repro.certify.checker.check_ensemble``, and every verdict is compared
with the planted truth.
"""

from __future__ import annotations

import os
import statistics
import time

from repro import ParallelSolver, ResultCache, ServePool, path_realization, verify_linear_layout
from repro.certify import TuckerWitness, check_ensemble
from repro.ensemble import Ensemble
from repro.errors import ReproError

import common
import inputs

#: set-ups per run; ``setup_s`` is their median.
SETUPS = 9
#: untimed requests that warm each fresh pool.
WARM_REQUESTS = 64
#: cache-replay arrivals that fill the cache before timing starts (the
#: LRU reaches its steady hit share well within this many arrivals).
REPLAY_FILL = 1000
#: a request answered later than this counts as timed out.
REQUEST_TIMEOUT_S = 30.0
#: the timed loop runs in this many segments, with solve passes between:
#: the more segments, the more moments of the host's speed the passes see.
SEGMENTS = 20
#: solve-pass rounds after each segment, and the instances one pass
#: solves.  Every round solves freshly drawn instances: one instance's
#: solve time can vary 2x between draws, so means over many small draws
#: are what keeps runs comparable.
ROUNDS_PER_SEGMENT = {"serve-fleet": 2, "cache-replay": 1, "delta-session": 2}
PASS_SIZES = {"serve-fleet": 64, "cache-replay": 4, "delta-session": 3}

#: giant runs at least this many rounds of four instance solves, so that
#: every run has the 20 latency samples its tail rung needs.
GIANT_MIN_ROUNDS = 5

WORKLOADS = ("serve-fleet", "cache-replay", "delta-session", "giant")


class Run:
    """Everything one untraced run measured."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.setups: list[float] = []
        self.fill_s = 0.0
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.verified = 0
        #: attempted requests that raised, timed out or were answered wrongly
        self.failed: list[str] = []
        #: anything else that makes the run incorrect (stream errors,
        #: wrong answers in the solve passes)
        self.errors: list[str] = []
        self.solve_passes: list[float] = []
        self.parallel_passes: list[float] = []
        self.extra: dict = {}


def prove(ensemble: Ensemble, accepted: bool, order, certificate) -> str | None:
    """Why an answer is wrong for its request, or ``None`` when it is proven.

    ``certificate`` is only consulted for rejections; pass ``None`` to
    check a bare verdict (the solve passes do not certify).
    """
    if accepted:
        if order is None:
            return "expected a layout, got a rejection"
        if not verify_linear_layout(ensemble, order):
            return "layout fails verify_linear_layout"
        return None
    if order is not None:
        return "expected a rejection, got a layout"
    if certificate is None:
        return None
    if not isinstance(certificate, TuckerWitness):
        return "rejection carries no Tucker witness"
    if not check_ensemble(ensemble, certificate):
        return "witness fails certify.checker.check_ensemble"
    return None


def prove_served(ensemble: Ensemble, accepted: bool, result) -> str | None:
    """:func:`prove` for a served answer, whose rejections must be certified."""
    if not accepted and result.order is None and result.certificate is None:
        return "rejection carries no certificate"
    return prove(ensemble, accepted, result.order, result.certificate)


class Passes:
    """Serial ``path_realization`` passes against passes through one warm
    ``ParallelSolver(nproc)``, over rounds of freshly drawn instances."""

    def __init__(self, run: Run, instances, size: int) -> None:
        self.run = run
        self.instances = instances
        self.size = size
        self.solver = ParallelSolver(os.cpu_count() or 1)

    def __enter__(self) -> "Passes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.solver.close()

    def rounds(self, count: int) -> None:
        for _ in range(count):
            requests = [next(self.instances) for _ in range(self.size)]
            for solve, passes in (
                (path_realization, self.run.solve_passes),
                (self.solver.solve_path, self.run.parallel_passes),
            ):
                started = time.perf_counter()
                orders = [solve(req.ensemble) for req in requests]
                passes.append(time.perf_counter() - started)
                for req, order in zip(requests, orders):
                    why = prove(req.ensemble, req.accepted, order, None)
                    if why is not None:
                        self.run.errors.append(f"solve pass: {why}")


def closed_loop(pool: ServePool, make, seconds: float, run: Run, answers: dict, **stream) -> None:
    """Stream requests ``make(first), make(first + 1), ...`` for ``seconds``,
    where ``first`` is the number attempted so far; results land in
    ``answers`` by request index, latencies in ``run.latencies``."""
    first = run.attempted
    handed: list[float] = []
    deadline = time.perf_counter() + seconds

    def feed():
        while time.perf_counter() < deadline:
            ensemble = make(first + len(handed))
            handed.append(time.perf_counter())
            yield ensemble

    started = time.perf_counter()
    try:
        for result in pool.solve_stream(feed(), chunksize=1, **stream):
            latency = time.perf_counter() - handed[result.index]
            if latency > REQUEST_TIMEOUT_S:
                run.failed.append(f"request {first + result.index} timed out after {latency:.1f}s")
                continue
            answers[first + result.index] = result
            run.latencies.append(latency)
    except ReproError as exc:
        run.errors.append(f"stream raised {exc!r}")
    run.timed_s += time.perf_counter() - started
    run.attempted += len(handed)


def prove_all(run: Run, answers: dict, request) -> None:
    """Prove every attempted request's answer; ``request(i)`` regenerates it."""
    for index in range(run.attempted):
        result = answers.get(index)
        if result is None:
            run.failed.append(f"request {index} got no answer")
            continue
        req = request(index)
        why = prove_served(req.ensemble, req.accepted, result)
        if why is None:
            run.verified += 1
        else:
            run.failed.append(f"request {index}: {why}")


def spawn_pool(run: Run, warm_stream, final: bool, **stream) -> ServePool | None:
    """One set-up: spawn a pool and push warm-up requests through it."""
    started = time.perf_counter()
    pool = ServePool(common.workers(), max_inflight=common.workers() + 1)
    try:
        for _ in pool.solve_stream(warm_stream, chunksize=1, **stream):
            pass
    except BaseException:
        pool.close()
        raise
    run.setups.append(time.perf_counter() - started)
    if final:
        return pool
    pool.close()
    return None


def _counter(snapshot: dict, name: str) -> float:
    return snapshot.get(name, {}).get("value", 0.0)


def _draws(make):
    index = 0
    while True:
        yield make(index)
        index += 1


def _serve(run: Run, seed: int, seconds: float, make, instances, fill=None) -> dict:
    """Set up a pool, optionally fill a cache, then alternate timed loop
    segments and solve passes; returns the answers by request index."""
    pool = None
    answers: dict = {}
    stream = {"certify": True}
    try:
        for attempt in range(SETUPS):
            warm = (inputs.fleet_request(seed, i, "warm").ensemble for i in range(WARM_REQUESTS))
            pool = spawn_pool(run, warm, attempt == SETUPS - 1, **stream)
        if fill is not None:
            stream["cache"] = ResultCache(inputs.REPLAY_CACHE_ENTRIES, metrics=pool.metrics)
            started = time.perf_counter()
            for _ in pool.solve_stream(fill, chunksize=1, **stream):
                pass
            run.fill_s = time.perf_counter() - started
        before = pool.metrics_snapshot()
        with Passes(run, instances, PASS_SIZES[run.workload]) as passes:
            for _ in range(SEGMENTS):
                closed_loop(pool, make, seconds / SEGMENTS, run, answers, **stream)
                passes.rounds(ROUNDS_PER_SEGMENT[run.workload])
        after = pool.metrics_snapshot()
    finally:
        if pool is not None:
            pool.close()
    if fill is not None:
        hits = _counter(after, "cache.hits") - _counter(before, "cache.hits")
        misses = _counter(after, "cache.misses") - _counter(before, "cache.misses")
        run.extra["hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    return answers


# ---------------------------------------------------------------------- #
# serve-fleet
# ---------------------------------------------------------------------- #
def serve_fleet(seed: int, seconds: float) -> Run:
    run = Run("serve-fleet")
    answers = _serve(
        run, seed, seconds,
        lambda i: inputs.fleet_request(seed, i).ensemble,
        _draws(lambda i: inputs.fleet_request(seed, i, "pass")),
    )
    prove_all(run, answers, lambda i: inputs.fleet_request(seed, i))
    return run


# ---------------------------------------------------------------------- #
# cache-replay
# ---------------------------------------------------------------------- #
def cache_replay(seed: int, seconds: float) -> Run:
    run = Run("cache-replay")
    cdf = inputs.zipf_cdf()
    answers = _serve(
        run, seed, seconds,
        lambda i: inputs.replay_request(seed, REPLAY_FILL + i, cdf).ensemble,
        _draws(lambda i: inputs.population_draw(seed, i)),
        fill=(inputs.replay_request(seed, i, cdf).ensemble for i in range(REPLAY_FILL)),
    )
    prove_all(run, answers, lambda i: inputs.replay_request(seed, REPLAY_FILL + i, cdf))
    return run


# ---------------------------------------------------------------------- #
# delta-session
# ---------------------------------------------------------------------- #
def session_feed(stream: inputs.DeltaStream, handed: list, marks: dict,
                 seconds: float | None, between=None):
    """Deltas of one session: the warm-up fill, then (unless ``seconds`` is
    ``None``) ``SEGMENTS`` timed stretches that together last ``seconds``,
    calling ``between()`` after each.  The delta stream is sequential, so
    every earlier result has been delivered whenever the feed runs: the
    warm-up is over when ``marks["timed_from"]`` is set, and the pool is
    idle while ``between()`` runs (its time lands in ``marks["paused"]``)."""
    deadline = None
    segments = 0
    while True:
        if deadline is None and stream.warm:
            marks["timed_from"] = len(handed)
            marks["setup_end"] = time.perf_counter()
            marks["paused"] = 0.0
            if seconds is None:
                return
            deadline = marks["setup_end"] + seconds / SEGMENTS
        if deadline is not None and time.perf_counter() >= deadline:
            paused = time.perf_counter()
            if between is not None:
                between()
            marks["paused"] += time.perf_counter() - paused
            segments += 1
            if segments == SEGMENTS:
                return
            deadline = time.perf_counter() + seconds / SEGMENTS
        delta = next(stream)
        handed.append(time.perf_counter())
        yield (delta.op, delta.column[0] if delta.op == "open" else delta.column)


def session_snapshots(seed: int):
    """Live sets of the session (all C1P) once warm, ``SESSION_SNAPSHOT``
    deltas apart, each relabeled afresh: the kernel's cost depends on the
    atom labelling, and the whole session shares one."""
    stream = inputs.DeltaStream(seed)
    count = 0
    while True:
        next(stream)
        if stream.warm:
            for _ in range(inputs.SESSION_SNAPSHOT):
                next(stream)
            live = Ensemble(tuple(range(stream.atoms)), tuple(stream.live))
            yield inputs.Request(inputs.relabeled(live, inputs.seeded(seed, "snapshot", count)), True)
            count += 1


def delta_session(seed: int, seconds: float) -> Run:
    run = Run("delta-session")
    w = common.workers()
    answers: dict = {}
    marks: dict = {}
    handed: list[float] = []
    with Passes(run, session_snapshots(seed), PASS_SIZES[run.workload]) as passes:
        for attempt in range(SETUPS):
            final = attempt == SETUPS - 1
            marks.clear()
            handed.clear()
            started = time.perf_counter()
            with ServePool(w, max_inflight=w + 1) as pool:
                feed = session_feed(
                    inputs.DeltaStream(seed), handed, marks, seconds if final else None,
                    lambda: passes.rounds(ROUNDS_PER_SEGMENT[run.workload]),
                )
                try:
                    for result in pool.solve_stream(feed, incremental=True, certify=True):
                        if "timed_from" not in marks or result.index < marks["timed_from"]:
                            continue
                        latency = time.perf_counter() - handed[result.index]
                        if latency > REQUEST_TIMEOUT_S:
                            run.failed.append(f"delta {result.index} timed out after {latency:.1f}s")
                            continue
                        answers[result.index] = result
                        run.latencies.append(latency)
                except ReproError as exc:
                    run.errors.append(f"session stream raised {exc!r}")
                done = time.perf_counter()
            run.setups.append(marks.get("setup_end", done) - started)
    timed_from = marks.get("timed_from", len(handed))
    run.timed_s = done - marks.get("setup_end", done) - marks.get("paused", 0.0)
    run.attempted = len(handed) - timed_from

    stream = inputs.DeltaStream(seed)
    for index in range(len(handed)):
        delta = next(stream)
        if index < timed_from:
            continue
        result = answers.get(index)
        if result is None:
            run.failed.append(f"delta {index} got no answer")
            continue
        live = list(stream.live)
        if not delta.accepted:
            live.append(frozenset(delta.column))
        why = prove_served(Ensemble(tuple(range(stream.atoms)), tuple(live)), delta.accepted, result)
        if why is None:
            run.verified += 1
        else:
            run.failed.append(f"delta {index} ({delta.op}): {why}")
    return run


# ---------------------------------------------------------------------- #
# giant
# ---------------------------------------------------------------------- #
def giant(seed: int, seconds: float) -> Run:
    """Rounds of one serial and one parallel pass over a fresh giant pair;
    each instance solve is one request."""
    run = Run("giant")
    cores = os.cpu_count() or 1
    solver = None
    answers = []
    try:
        warm = inputs.giant_warm()
        for attempt in range(SETUPS):
            started = time.perf_counter()
            solver = ParallelSolver(cores)
            solver.solve_path(warm)
            run.setups.append(time.perf_counter() - started)
            if attempt < SETUPS - 1:
                solver.close()
        started = time.perf_counter()
        deadline = started + seconds
        draw = 0
        while draw < GIANT_MIN_ROUNDS or time.perf_counter() < deadline:
            requests = inputs.giant_instances(seed, draw)
            for solve, passes in (
                (path_realization, run.solve_passes),
                (solver.solve_path, run.parallel_passes),
            ):
                pass_started = time.perf_counter()
                for position, req in enumerate(requests):
                    began = time.perf_counter()
                    answers.append((draw, position, solve(req.ensemble)))
                    run.latencies.append(time.perf_counter() - began)
                passes.append(time.perf_counter() - pass_started)
            draw += 1
        run.timed_s = time.perf_counter() - started
    finally:
        if solver is not None:
            solver.close()
    run.attempted = len(answers)
    requests, current = [], None
    for draw, position, order in answers:
        if draw != current:
            requests, current = inputs.giant_instances(seed, draw), draw
        req = requests[position]
        why = prove(req.ensemble, req.accepted, order, None)
        if why is None:
            run.verified += 1
        else:
            run.failed.append(f"giant draw {draw} instance {position}: {why}")
    return run


RUNNERS = {
    "serve-fleet": serve_fleet,
    "cache-replay": cache_replay,
    "delta-session": delta_session,
    "giant": giant,
}


def end_to_end(run: Run) -> tuple[dict, dict]:
    """``(metrics, beside)``: the declared end-to-end metrics, and the
    figures printed beside them (tail percentile, sample counts, ...)."""
    tail_value, tail_label, beyond = common.tail(run.latencies)
    metrics = {
        "throughput_rps": (run.verified / run.timed_s if run.timed_s else 0.0, "req/s"),
        # nearest rank, like the tail: on giant the two share the p50 rung
        "latency_p50_ms": (common.percentile(sorted(run.latencies), 50.0) * 1000.0, "ms"),
        "latency_tail_ms": (tail_value * 1000.0, "ms"),
        "solve_s": (statistics.fmean(run.solve_passes), "s"),
        "parallel_solve_s": (statistics.fmean(run.parallel_passes), "s"),
        "setup_s": (statistics.median(run.setups) + run.fill_s, "s"),
        "peak_rss_mb": (common.peak_rss_mb(), "MiB"),
    }
    beside = {
        "latency_tail": tail_label,
        "latency_samples": len(run.latencies),
        "latency_samples_beyond_tail": beyond,
        "failed_share": len(run.failed) / run.attempted if run.attempted else 1.0,
        "timed_s": run.timed_s,
        "setups_s": run.setups,
        "fill_s": run.fill_s,
        "solve_passes_s": run.solve_passes,
        "parallel_passes_s": run.parallel_passes,
        **run.extra,
    }
    return metrics, beside
