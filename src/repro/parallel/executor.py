"""Spawn-once slice workers over one shared-memory instance segment.

The serving pool (:mod:`repro.serve.pool`) ships *whole instances* to
workers; this executor is its intra-instance sibling: the parent packs one
instance's top-level column list into a single shared-memory segment (the
``C1PW`` wire format of :mod:`repro.serve.wire`, labels omitted) and every
worker solves *slices* of it — one connected component per task, named by
its atoms and the indices of its packed columns.  Nothing but those slice
descriptors (small byte strings) ever crosses a queue, so dispatch cost is
independent of instance size.

The workers are the fleet core of :mod:`repro.serve.fleet`, the same one
``ServePool`` runs on: spawn-once workers with per-worker task queues, a
single-writer result pipe per worker (lock-free, so a SIGKILL cannot
corrupt a shared channel), EOF-based crash detection with respawn and
re-dispatch of the crashed worker's outstanding tasks, and a bounded retry
count so a poison task surfaces as :class:`ParallelError` instead of a
livelock.  This module adds the one slice op, ``solve``, the published
segment and the gather on the calling thread.

A ``solve`` task re-densifies one component
(``core.indexed._component_ensemble``: its atoms become ``0..k-1``), runs
the serial indexed path kernel on its columns and answers in the
instance's atom indices.  Because strictly-increasing index remaps leave
every mask comparison of the kernel invariant, the returned slice is
byte-for-byte what the serial kernel's recursion would have produced in
place (DESIGN.md, Substitution 7).
"""

from __future__ import annotations

import time
from array import array

from ..core.bitset import mask_from_bytes
from ..core.indexed import _component_ensemble
from ..core.instrument import SolverStats
from ..errors import ParallelError, WireFormatError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import current_tracer
from ..serve import wire
from ..serve.fleet import Fleet, Task, unlink_quietly

__all__ = ["SliceExecutor"]

#: how long the gather loop waits for results between liveness sweeps;
#: crash detection is EOF-driven, this only bounds it.
_WAIT_TIMEOUT = 0.1


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
def _segment_geometry(buf: memoryview) -> tuple[int, int, int]:
    """``(n_atoms, n_columns, mask_bytes)`` of the packed instance."""
    if len(buf) < wire.HEADER.size:
        raise WireFormatError("instance segment shorter than a wire header")
    magic, version, _flags, n, m, mask_bytes, _lb, _nb = wire.HEADER.unpack_from(
        buf, 0
    )
    if magic != wire.WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r} in instance segment")
    if version != wire.WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    return n, m, mask_bytes


def _read_mask(buf: memoryview, index: int, mask_bytes: int) -> int:
    start = wire.HEADER.size + index * mask_bytes
    return mask_from_bytes(bytes(buf[start : start + mask_bytes]))


def _solve_slice(buf: memoryview, spec: tuple, state: dict) -> tuple:
    """Fleet handler: solve one component with the serial indexed path kernel.

    ``spec`` is ``(member_bytes, row_bytes, engine)``: the component's
    atoms ascending and the indices of its packed columns, each a uint32
    array.  Returns ``(layout_bytes | None, seconds, max_depth,
    subproblems)`` with the layout in the instance's atom indices.
    """
    member_bytes, row_bytes, engine = spec
    with current_tracer().span("worker.slice.solve"):
        _n, m, mask_bytes = _segment_geometry(buf)
        started = time.perf_counter()
        members = array("I")
        members.frombytes(member_bytes)
        rows = array("I")
        rows.frombytes(row_bytes)
        if rows and max(rows) >= m:
            raise ParallelError(f"solve slice references column {max(rows)} of {m}")
        part = _component_ensemble(
            members, [_read_mask(buf, j, mask_bytes) for j in rows]
        )
        stats = SolverStats()
        order = part.solve_path(stats, engine=engine)
        elapsed = time.perf_counter() - started
        layout = None if order is None else array("I", order).tobytes()
        return (layout, elapsed, stats.max_depth, stats.subproblems)


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class SliceExecutor:
    """A pool of slice workers bound to one published instance at a time.

    Runs on the fleet core (spawn-once workers, crash respawn,
    at-least-once dispatch with exactly-once completion) but runs
    *synchronous scatter/gather waves*: :meth:`run` blocks until every
    task of the wave has a result, because the solver concatenates and
    verifies the component layouts only once all of them are in.
    """

    def __init__(self, workers: int, *, max_task_retries: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.num_workers = workers
        self.max_task_retries = max_task_retries
        self.metrics = MetricsRegistry()
        self._segment = None
        self._closed = False
        self._done: dict[int, object] = {}
        self._fleet = Fleet(
            workers,
            _solve_slice,
            max_task_retries=max_task_retries,
            metrics=self.metrics,
            respawn_metric="parallel.respawns",
            on_result=self._settle,
            on_lost=self._lost,
        )

    # -- lifecycle ------------------------------------------------------ #
    @property
    def respawn_count(self) -> int:
        return self._fleet.respawn_count

    @property
    def worker_pids(self) -> list[int]:
        return self._fleet.pids

    @property
    def alive_workers(self) -> int:
        return self._fleet.alive

    def set_instance(self, payload: bytes) -> None:
        """Publish one packed instance; replaces any previous segment."""
        if self._closed:
            raise ParallelError("executor is closed")
        self.release_instance()
        self._segment = wire.create_segment(payload)
        self.metrics.counter("parallel.dispatch_bytes").inc(len(payload))

    def release_instance(self) -> None:
        """Unpublish the current instance segment, if any."""
        if self._segment is not None:
            unlink_quietly(self._segment)
            self._segment = None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fleet.close()
        self.release_instance()

    def __enter__(self) -> "SliceExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------- #
    def run(self, specs: list[tuple]) -> list:
        """Scatter ``solve`` tasks, one per spec, gather results in order.

        Dispatch is at-least-once: a worker crash re-dispatches its
        outstanding tasks to a fresh worker (the instance segment
        outlives workers, so a retry sees identical input); completion is
        exactly-once via the fleet's pending map keyed on globally unique
        task ids — which also discards stragglers from abandoned waves.
        """
        if self._closed:
            raise ParallelError("executor is closed")
        if self._segment is None:
            raise ParallelError("no instance published; call set_instance first")
        if not specs:
            return []
        tracer = current_tracer()
        wave: list[Task] = []
        try:
            for spec in specs:
                task = Task(self._segment.name, spec)
                if tracer.enabled:
                    task.tracer = tracer
                    task.span = tracer.begin("slice.solve")
                wave.append(task)
                self._fleet.dispatch(task)
            while self._fleet.pending:
                self._fleet.handle(self._fleet.receive(_WAIT_TIMEOUT))
        except BaseException:
            # The wave is abandoned: no worker result will ever close its
            # open parent-side spans, so the crash/error path closes them as
            # aborted — a trace never silently loses an in-flight task.
            for task in wave:
                self._fleet.forget(task)
                if task.span is not None:
                    task.span.abort()
            self._done.clear()
            raise
        return [self._done.pop(task.task_id) for task in wave]

    def _settle(self, task: Task, status: str, payload, run_seconds: float) -> None:
        total = time.perf_counter() - task.enqueued
        self.metrics.counter("parallel.tasks").inc()
        self.metrics.histogram("parallel.task_total_seconds").observe(total)
        self.metrics.histogram("parallel.task_run_seconds").observe(run_seconds)
        self.metrics.histogram("parallel.queue_wait_seconds").observe(
            max(0.0, total - run_seconds)
        )
        if status != "done":
            raise ParallelError(f"slice solve task failed: {payload[0]}")
        self._done[task.task_id] = payload

    def _lost(self, task: Task) -> None:
        raise ParallelError(
            f"slice solve task crashed its worker {task.retries} times; "
            "giving up"
        )
