"""Spawn-once slice workers over one shared-memory instance segment.

The serving pool (:mod:`repro.serve.pool`) ships *whole instances* to
workers; this executor is its intra-instance sibling: the parent packs one
instance into a single shared-memory segment (the ``C1PW`` wire format of
:mod:`repro.serve.wire`, labels omitted) and every worker operates on
*slices* of it — a range of packed columns for connected-component
finding, one component's columns for a sub-solve, two adjacent component
layouts for a merge-ladder step.  Nothing but slice descriptors (ints and
small byte strings) ever crosses a queue, so dispatch cost is independent
of instance size.

The workers are the fleet core of :mod:`repro.serve.fleet`, the same one
``ServePool`` runs on: spawn-once workers with per-worker task queues, a
single-writer result pipe per worker (lock-free, so a SIGKILL cannot
corrupt a shared channel), EOF-based crash detection with respawn and
re-dispatch of the crashed worker's outstanding tasks, and a bounded retry
count so a poison task surfaces as :class:`ParallelError` instead of a
livelock.  This module adds the slice ops, the published segment and the
gather on the calling thread.

Slice ops (all results are plain bytes/float tuples):

``components``
    Run union-find over a range ``[lo, hi)`` of the packed columns and
    return the partial ``(atom, root)`` pairs, for a parallel
    connected-component pass the parent merges.
``solve``
    Re-densify one component (remap its atoms to ``0..k-1``), run the
    serial indexed path kernel on its columns, and map the layout back to
    global atom indices.  Because strictly-increasing index remaps leave
    every mask comparison of the kernel invariant, the returned slice is
    byte-for-byte what the serial kernel's recursion would have produced
    in place (DESIGN.md, Substitution 7).
``merge``
    Concatenate two component layouts and verify the combined slice
    (disjointness, permutation, consecutiveness of the covered columns) —
    one rung of the parallel merge ladder.
"""

from __future__ import annotations

import time
from array import array

from ..core.bitset import (
    all_consecutive,
    is_permutation_of,
    mask_from_bytes,
    mask_from_indices,
    mask_to_indices,
)
from ..core.indexed import IndexedEnsemble, solve_path_indexed
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


def _op_components(buf: memoryview, spec: tuple) -> bytes:
    """Partial union-find over packed columns ``[lo, hi)``.

    Returns ``(atom, root)`` pairs as a packed uint32 array; the parent
    merges the partial forests.  Only atoms touched by a column in the
    slice appear — untouched atoms stay singletons by omission.
    """
    lo, hi = spec
    _n, m, mask_bytes = _segment_geometry(buf)
    if not (0 <= lo <= hi <= m):
        raise ParallelError(f"component slice [{lo}, {hi}) outside {m} columns")
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for j in range(lo, hi):
        ids = mask_to_indices(_read_mask(buf, j, mask_bytes))
        for atom in ids:
            parent.setdefault(atom, atom)
        first = find(ids[0])
        for atom in ids[1:]:
            parent[find(atom)] = first
    pairs = array("I")
    for atom in parent:
        pairs.append(atom)
        pairs.append(find(atom))
    return pairs.tobytes()


def _op_solve(buf: memoryview, spec: tuple) -> tuple:
    """Solve one component's columns with the serial indexed path kernel.

    ``spec`` is ``(component_mask_bytes, column_index_bytes, engine)``.
    Returns ``(layout_bytes | None, seconds, max_depth, subproblems)``
    with the layout mapped back to global atom indices.
    """
    comp_bytes, cols_bytes, engine = spec
    _n, m, mask_bytes = _segment_geometry(buf)
    started = time.perf_counter()
    comp = mask_from_bytes(comp_bytes)
    kept = mask_to_indices(comp)
    remap = {old: new for new, old in enumerate(kept)}
    cols = array("I")
    cols.frombytes(cols_bytes)
    dense_masks = []
    for j in cols:
        if j >= m:
            raise ParallelError(f"solve slice references column {j} of {m}")
        mask = _read_mask(buf, j, mask_bytes)
        dense_masks.append(
            mask_from_indices(remap[i] for i in mask_to_indices(mask))
        )
    stats = SolverStats()
    indexed = IndexedEnsemble(tuple(range(len(kept))), tuple(dense_masks))
    order = solve_path_indexed(indexed, stats, engine=engine)
    elapsed = time.perf_counter() - started
    if order is None:
        return (None, elapsed, stats.max_depth, stats.subproblems)
    layout = array("I", [kept[i] for i in order])
    return (layout.tobytes(), elapsed, stats.max_depth, stats.subproblems)


def _op_merge(buf: memoryview, spec: tuple) -> tuple:
    """One merge-ladder rung: concatenate two component layouts, verified.

    ``spec`` is ``(left_layout_bytes, right_layout_bytes,
    column_index_bytes)``.  Components are independent, so the merge *is*
    concatenation; unlike the serial kernel's components branch this rung
    re-verifies the combined slice against its columns — cheap insurance
    (O(group ones) per rung, O(log k) rungs) against a corrupted segment
    or a broken slice assignment.  Returns ``(merged_bytes, seconds)``.
    """
    left_bytes, right_bytes, cols_bytes = spec
    _n, m, mask_bytes = _segment_geometry(buf)
    started = time.perf_counter()
    left = array("I")
    left.frombytes(left_bytes)
    right = array("I")
    right.frombytes(right_bytes)
    merged = list(left) + list(right)
    group = mask_from_indices(merged)
    if not is_permutation_of(merged, group):
        raise ParallelError("merge ladder saw overlapping component layouts")
    cols = array("I")
    cols.frombytes(cols_bytes)
    masks = []
    for j in cols:
        if j >= m:
            raise ParallelError(f"merge slice references column {j} of {m}")
        masks.append(_read_mask(buf, j, mask_bytes))
    if not all_consecutive(merged, masks):
        raise ParallelError(
            "merge ladder verification failed: a column of the combined "
            "group is not consecutive in the concatenated layout"
        )
    return (array("I", merged).tobytes(), time.perf_counter() - started)


_OPS = {
    "components": _op_components,
    "solve": _op_solve,
    "merge": _op_merge,
}


def _run_slice(buf: memoryview, args: tuple, state: dict):
    """Fleet handler: run one ``(op, spec)`` slice op on the instance."""
    op, spec = args
    handler = _OPS.get(op)
    if handler is None:
        raise ParallelError(f"unknown slice op {op!r}")
    with current_tracer().span(f"worker.slice.{op}"):
        return handler(buf, spec)


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class SliceExecutor:
    """A pool of slice workers bound to one published instance at a time.

    Runs on the fleet core (spawn-once workers, crash respawn,
    at-least-once dispatch with exactly-once completion) but runs
    *synchronous scatter/gather waves*: :meth:`run` blocks until every
    task of the wave has a result, because the solver's phases (component
    pass, sub-solves, each ladder level) are true barriers.
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
            _run_slice,
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
    def run(self, tasks: list[tuple[str, tuple]]) -> list:
        """Scatter ``(op, spec)`` tasks, gather results in task order.

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
        if not tasks:
            return []
        tracer = current_tracer()
        wave: list[Task] = []
        try:
            for op, spec in tasks:
                task = Task(self._segment.name, (op, spec))
                if tracer.enabled:
                    task.tracer = tracer
                    task.span = tracer.begin(f"slice.{op}")
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
            raise ParallelError(f"slice task {task.args[0]!r} failed: {payload[0]}")
        self._done[task.task_id] = payload

    def _lost(self, task: Task) -> None:
        raise ParallelError(
            f"slice task {task.args[0]!r} crashed its worker "
            f"{task.retries} times; giving up"
        )
