"""The persistent worker pool behind ``repro.serve``.

:class:`ServePool` keeps a fixed set of worker processes warm across any
number of submissions.  A task travels as a *name*, not a pickle: the
submitting thread packs instances once into the wire format of
:mod:`repro.serve.wire`, copies them into a ``multiprocessing.shared_memory``
segment, and enqueues only the segment name plus a few solver flags.  The
worker attaches the segment, rebuilds each
:class:`~repro.core.indexed.IndexedEnsemble` straight from the buffer and
solves; the parent unlinks the segment when the results land.  One task
carries one whole instance, and the worker runs the per-instance routine
of :func:`repro.batch.solve_many` on it — component split, component
solves, witness extraction — so nothing is split or reassembled in the
parent.  Small tasks are *bundled* — many wire payloads per segment,
mirroring ``chunksize`` on an executor ``map`` — so a fleet of tiny
instances costs one message and one worker wake-up per chunk, not per
instance.

The workers themselves — spawn, the worker loop, crash detection, respawn
and re-dispatch under ``max_task_retries``, shutdown — are the fleet core
of :mod:`repro.serve.fleet`, shared with :mod:`repro.parallel`.  This
module adds only serving on top.

Robustness model
----------------
* **Crash detection + respawn.**  The collector thread multiplexes one
  result pipe per worker and polls liveness.  When a worker dies (OOM
  kill, segfault, ``kill -9``), its in-flight bundles are re-dispatched to
  the surviving workers — the segments still exist, so nothing is
  re-packed — and a replacement worker is spawned.  A bundle that
  repeatedly crashes its worker is failed with
  :class:`~repro.errors.ServeError` after ``max_task_retries``
  re-dispatches instead of crash-looping the pool.  A delta bundle is the
  one exception to "nothing is re-packed": its session's replay log (the
  OPEN frame and the live columns' add frames) is replayed ahead of it on
  the new worker.
* **At-least-once dispatch, exactly-once completion.**  A worker killed
  *after* reporting may leave a duplicate re-dispatch behind; results for
  bundles no longer pending are dropped, so every future resolves exactly
  once.
* **Backpressure.**  At most ``max_inflight`` bundles (and therefore
  shared-memory segments) exist at a time; ``submit`` blocks once the
  window is full and unblocks as results arrive.  ``max_segment_bytes``
  bounds the per-segment budget: a packed bundle frame over it is rejected
  before a slot or a segment is taken, and the streaming chunker flushes
  bundles early to stay under it.
* **Graceful shutdown.**  ``close()`` (also via ``with``) drains pending
  work, sends each worker a sentinel, joins them until its deadline,
  SIGKILLs stragglers, and unlinks any segment still alive.

Determinism: a pool run is differentially identical to serial
:func:`repro.batch.solve_many` by construction: the worker handler calls
the same per-instance routine (``batch._solve_instance``) on the same
instance, rebuilt from its wire payload.  The soak suite
(``tests/test_serve_stress.py``) checks it byte for byte.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from typing import Hashable, Iterable, Iterator

from ..batch import BatchResult, _result, _solve_instance, _split_mode
from ..core.bitset import mask_from_indices, mask_to_indices
from ..core.indexed import IndexedEnsemble
from ..ensemble import Ensemble
from ..errors import IncrementalError, ServeError
from ..incremental.cache import CacheFront
from ..incremental.solver import OP_ADD, OP_OPEN, OP_REMOVE
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, current_tracer
from . import wire
from .fleet import CLOSE_TIMEOUT, Fleet, Task, unlink_quietly

Atom = Hashable

__all__ = ["ServePool", "ServeFuture"]

#: bundle-entry kind bytes understood by the worker handler.
_K_SOLVE, _K_DELTA = 0, 1

#: marks the end of a stream's input for the feeder's ``next()``.
_END = object()


# ---------------------------------------------------------------------- #
# the worker side
# ---------------------------------------------------------------------- #
def _serve_bundle(buf, args, sessions) -> list:
    """Fleet handler: solve one bundle, one raw answer per entry.

    ``args`` is ``(circular, kernel, engine, split, certify)``, with
    ``split`` the stream's :attr:`~repro.batch.BatchResult.split` mode
    (``"whole"`` for :meth:`ServePool.submit`); only ``"components"``
    splits an instance.  Each entry answers ``(order, witness_json,
    parts)``: a solve entry from ``batch._solve_instance`` on the decoded
    instance, a delta entry from :func:`_delta_entry`.  ``sessions`` is the
    worker-local delta-session table: incremental solvers keyed by session
    id, populated by ``C1PD`` OPEN frames and mutated in place by
    ADD/REMOVE frames.  It lives in this process only — the parent's
    replay log (the OPEN frame and the live add frames per session) is
    the durable copy that rebuilds it on a respawned worker.
    """
    circular, kernel, engine, split, certify = args
    # Copy the entry payloads out of the segment before it is closed:
    # holding memoryview slices across close() would raise BufferError
    # ("exported pointers exist").  The copy is a few hundred bytes per
    # small instance — noise next to the pickling it replaces.
    entries = [(kind, bytes(payload)) for kind, payload in wire.unpack_bundle(buf)]
    with current_tracer().span("worker.serve.task", entries=len(entries)):
        return [
            _delta_entry(sessions, payload, kernel, engine) + (1,)
            if kind == _K_DELTA
            else _solve_instance(
                IndexedEnsemble.from_packed_masks(payload),
                split, circular, kernel, engine, certify, span_prefix="serve",
            )
            for kind, payload in entries
        ]


def _delta_entry(sessions, payload, kernel, engine):
    """Apply one delta frame to this worker's session table.

    Returns ``(order, witness_json)``: an accepted delta carries the
    session's new frontier layout, a refused one ``(None,
    witness-or-None)``.  Replay
    frames (crash recovery re-ships of already-answered deltas) skip
    witness extraction — their results were delivered before the crash
    and the parent discards the replayed outcomes anyway.
    """
    from ..incremental.solver import IncrementalSolver

    frame = wire.unpack_delta(payload, exact=True)
    with current_tracer().span("serve.delta", op=frame.op, session=frame.session_id):
        if frame.op == wire.DELTA_OPEN:
            solver = IncrementalSolver(
                range(frame.num_atoms),
                circular=bool(frame.flags & wire.DELTA_FLAG_CIRCULAR),
                kernel=kernel,
                engine=engine,
            )
            # OPEN resets the slot unconditionally: a crash-recovery replay
            # always starts with the session's OPEN frame, so stale state
            # left by an earlier pin to this worker can never leak in.
            sessions[frame.session_id] = (
                solver,
                bool(frame.flags & wire.DELTA_FLAG_CERTIFY),
            )
            return (list(solver.layout()), None)
        entry = sessions.get(frame.session_id)
        if entry is None:
            raise ServeError(
                f"delta frame for unknown session {frame.session_id}: the "
                f"session was never opened on this worker and the bundle "
                f"carries no replay prefix"
            )
        solver, certify = entry
        column = mask_to_indices(frame.mask)
        if frame.op == wire.DELTA_ADD:
            replay = bool(frame.flags & wire.DELTA_FLAG_REPLAY)
            outcome = solver.add_column(column, certify=certify and not replay)
            if outcome.accepted:
                return (list(outcome.order), None)
            witness = (
                outcome.certificate.to_json()
                if outcome.certificate is not None
                else None
            )
            return (None, witness)
        try:
            outcome = solver.remove_column(column)
        except IncrementalError:
            # A remove matching no accepted column is *refused*, not fatal:
            # the solver state is untouched, so the session stays replayable
            # and the parent reports a rejected outcome instead of tearing
            # the whole stream down.
            return (None, None)
        return (list(outcome.order), None)


# ---------------------------------------------------------------------- #
# futures and bookkeeping
# ---------------------------------------------------------------------- #
class ServeFuture:
    """Result handle for one submitted task or bundle.

    For a single :meth:`ServePool.submit` task, ``result()`` returns
    ``(order, witness_json)``: the realizing order (or ``None``) and, for
    certify-flavoured tasks that rejected, the Tucker witness as its JSON
    payload (reconstruct with
    :func:`repro.certify.certificates.certificate_from_json`).  For an
    internal bundle it returns the handler's raw answers, one per entry.
    """

    __slots__ = ("tag", "_event", "_value", "_error")

    def __init__(self, tag=None) -> None:
        self.tag = tag
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        if not self._event.wait(timeout):
            raise TimeoutError("serve task did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value

    def _set(self, value) -> None:
        self._value = value
        self._event.set()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Inflight(Task):
    """Parent-side state of one dispatched bundle."""

    __slots__ = ("segment", "future", "done_q", "single", "session", "entries")

    def __init__(
        self, segment, args, future, done_q, single, session=None, entries=None
    ) -> None:
        super().__init__(segment.name, args)
        self.segment = segment
        self.future = future
        self.done_q = done_q
        self.single = single
        self.session = session    # _DeltaSession this bundle belongs to
        self.entries = entries    # logical (un-replayed) entries, sessions only


class _DeltaSession:
    """Parent-side state of one incremental delta session.

    The pool pins a session to one worker (its in-process PQ-tree lives
    there) and keeps a *replay log* of answered frames: the OPEN frame,
    then the add frame of each column still live, in arrival order
    (:meth:`ack`).  The worker's tree is always a fresh tree reduced by
    the live columns in arrival order — refusals leave no trace and a
    remove rebuilds exactly that — so replaying the log rebuilds it byte
    for byte.  When the pinned worker dies, the next bundle (or the
    crashed one's re-dispatch) is prefixed with the log re-marked as
    replay frames, before the new deltas apply.
    """

    __slots__ = ("session_id", "num_atoms", "worker", "log")

    def __init__(self, session_id: int) -> None:
        self.session_id = session_id
        self.num_atoms = 0
        self.worker = None
        #: ``(column mask, frame)``; the OPEN frame first, with mask ``None``
        self.log: list[tuple[int | None, bytes]] = []

    def ack(self, op: str, mask: int | None, frame: bytes, accepted: bool) -> None:
        """Fold one answered delta into the replay log.

        Refused deltas are dropped.  An accepted remove retired the first
        live column with its mask, so it drops that column's add frame.
        """
        if op == OP_OPEN:
            self.log = [(None, frame)]
        elif accepted and op == OP_ADD:
            self.log.append((mask, frame))
        elif accepted:
            for i, (logged, _) in enumerate(self.log):
                if logged == mask:
                    del self.log[i]
                    break


def _replayed(session: _DeltaSession, entries: list[tuple[int, bytes]]) -> bytes:
    """A bundle frame: ``session``'s replay log as replay frames, then ``entries``."""
    return wire.pack_bundle(
        [(_K_DELTA, wire.mark_delta_replay(frame)) for _, frame in session.log]
        + entries
    )


def _pack_instance(ensemble: Ensemble | IndexedEnsemble) -> bytes:
    if isinstance(ensemble, IndexedEnsemble):
        return ensemble.pack_masks()
    return IndexedEnsemble.from_ensemble(ensemble).pack_masks()


# ---------------------------------------------------------------------- #
# the pool
# ---------------------------------------------------------------------- #
class ServePool:
    """A persistent shared-memory serving pool.

    Parameters
    ----------
    processes:
        Worker count; ``None`` or ``0`` means one per CPU.
    max_inflight:
        Backpressure window: the maximum number of simultaneously live
        bundles (= shared-memory segments).  Default ``4 × workers``.
    max_segment_bytes:
        When set, a bundle whose packed frame exceeds this many bytes — a
        lone oversize instance, in practice — is rejected with
        :class:`~repro.errors.ServeError`, and the streaming chunker
        flushes bundles early so no segment exceeds the budget.
    max_task_retries:
        How many times a bundle is re-dispatched after crashing its worker
        before its future fails.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        processes: int | None = None,
        *,
        max_inflight: int | None = None,
        max_segment_bytes: int | None = None,
        max_task_retries: int = 2,
    ) -> None:
        if processes is not None and processes < 0:
            raise ValueError(f"processes must be >= 0, got {processes}")
        workers = processes or (os.cpu_count() or 1)
        self.num_workers = workers
        self.max_inflight = 4 * workers if max_inflight is None else max_inflight
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_segment_bytes = max_segment_bytes
        self.max_task_retries = max_task_retries

        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._session_counter = itertools.count(1)
        self._slots = threading.BoundedSemaphore(self.max_inflight)
        self._closed = False
        self._stop = threading.Event()
        # observability (read by the stress suite and the benchmark)
        self.max_inflight_seen = 0
        self.metrics = MetricsRegistry()
        self._started = time.perf_counter()

        self._fleet = Fleet(
            workers,
            _serve_bundle,
            max_task_retries=max_task_retries,
            metrics=self.metrics,
            respawn_metric="serve.respawns",
            on_result=self._on_result,
            on_lost=self._on_lost,
            on_retry=self._replay_session,
        )
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ServePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(wait=False, timeout=1.0)
        except Exception:  # repro: lint-ok[exception-contract] GC safety net must not raise
            pass

    @property
    def respawn_count(self) -> int:
        """Workers respawned after a crash since pool start."""
        return self._fleet.respawn_count

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the current worker processes (changes on respawn)."""
        with self._lock:
            return self._fleet.pids

    @property
    def alive_workers(self) -> int:
        with self._lock:
            return self._fleet.alive

    def close(self, *, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Shut the pool down within ``timeout`` seconds; idempotent.

        With ``wait`` (the default) pending tasks drain first.  Either way
        every worker then receives a sentinel and is joined until the same
        deadline; one still alive at the deadline is SIGKILLed.  Leftover
        segments are unlinked and unresolved futures fail with
        :class:`~repro.errors.ServeError`.  ``timeout=None`` drains without
        bound and then gives the workers the fleet's default grace.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            already = self._closed
            self._closed = True
            if already and not self._collector.is_alive():
                return
        if wait:
            with self._idle:
                self._idle.wait_for(lambda: not self._fleet.pending, timeout=timeout)
        # Stop first: the exiting workers' pipes reach EOF, which wakes the
        # collector at once instead of at its next poll timeout.
        self._stop.set()
        grace = (
            CLOSE_TIMEOUT if deadline is None else deadline - time.monotonic()
        )
        with self._lock:
            self._fleet.close(grace)
            for inflight in list(self._fleet.pending.values()):
                # _resolve releases the backpressure slot too — a submitter
                # blocked on the in-flight window must wake up, not hang.
                self._resolve(
                    inflight,
                    error=ServeError("pool closed before the task completed"),
                )
            self._fleet.pending.clear()
            self._idle.notify_all()
        if self._collector.is_alive() and threading.current_thread() is not self._collector:
            self._collector.join(CLOSE_TIMEOUT)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        ensemble: Ensemble | IndexedEnsemble,
        *,
        circular: bool = False,
        kernel: str = "indexed",
        engine: str | None = None,
        certify: bool = False,
        trace: "Tracer | None" = None,
    ) -> ServeFuture:
        """Pack one instance into a segment and dispatch it; thread-safe.

        Blocks while the in-flight window is full.  Returns a
        :class:`ServeFuture` resolving to ``(order, witness_json)``.  The
        instance is solved whole (never component-split).  With
        ``certify=True`` a rejected instance's witness is extracted by the
        same worker in the same task — no second pool, no second hop.
        ``trace=`` records a ``serve.task`` span for the dispatch and
        stitches the worker-side spans under it when the result lands
        (``None`` inherits the ambient tracer of the calling thread).
        """
        return self._submit_bundle(
            [(_K_SOLVE, _pack_instance(ensemble))],
            (circular, kernel, engine, "whole", certify),
            done_q=None,
            tag=None,
            single=True,
            trace=trace,
        )

    def _submit_bundle(
        self,
        entries: list[tuple[int, bytes]],
        args: tuple,
        *,
        done_q: "queue.Queue | None",
        tag,
        single: bool,
        trace: "Tracer | None" = None,
        session: "_DeltaSession | None" = None,
    ) -> ServeFuture:
        """Ship one bundle of packed entries; blocks on the in-flight window.

        ``args`` is the handler's ``(circular, kernel, engine, split,
        certify)`` for every entry of the bundle.
        """
        frame = wire.pack_bundle(entries)
        if self._closed:
            raise ServeError("cannot submit to a closed pool")
        if (
            self.max_segment_bytes is not None
            and len(frame) > self.max_segment_bytes
        ):
            # The one size gate, checked on the *packed frame* before any
            # state changes hands: no in-flight slot is acquired and no
            # segment created yet, so the rejection strands neither.
            raise ServeError(
                f"bundle frame is {len(frame)} bytes, over the pool's "
                f"segment budget of {self.max_segment_bytes}"
            )
        tracer = trace if trace is not None else current_tracer()
        wait_t0 = time.perf_counter()
        self._slots.acquire()
        try:
            self.metrics.histogram("serve.backpressure_wait_seconds").observe(
                time.perf_counter() - wait_t0
            )
            with self._lock:
                if self._closed:
                    raise ServeError("cannot submit to a closed pool")
                worker = None
                if session is not None:
                    pinned = session.worker
                    if (
                        pinned is not None
                        and pinned in self._fleet.workers
                        and pinned.process.is_alive()
                    ):
                        worker = pinned
                    else:
                        # The session's worker is gone (or this is the
                        # first bundle): pin afresh and rebuild its state
                        # by replaying the session's replay log ahead of
                        # the new deltas, in one bundle, on the new worker.
                        worker = self._fleet.pick()
                        if session.log:
                            frame = _replayed(session, entries)
                            self.metrics.counter("serve.delta_replays").inc()
                    session.worker = worker
                segment = wire.create_segment(frame)
                inflight = None
                try:
                    inflight = _Inflight(
                        segment, args, ServeFuture(tag),
                        done_q, single, session=session,
                        entries=entries if session is not None else None,
                    )
                    if tracer.enabled:
                        inflight.tracer = tracer
                        inflight.span = tracer.begin(
                            "serve.task",
                            entries=len(entries),
                            payload_bytes=len(frame),
                        )
                    self._fleet.dispatch(inflight, worker)
                except BaseException:
                    # A failed submit must not strand the segment: no
                    # worker ever learned its name, so nothing downstream
                    # would unlink it.  Likewise the span: no result will
                    # ever close it.
                    unlink_quietly(segment)
                    if inflight is not None and inflight.span is not None:
                        inflight.span.abort()
                    raise
                depth = len(self._fleet.pending)
                self.max_inflight_seen = max(self.max_inflight_seen, depth)
                self.metrics.counter("serve.tasks").inc()
                self.metrics.counter("serve.dispatch_bytes").inc(len(frame))
                self.metrics.gauge("serve.queue_depth").set(depth)
            return inflight.future
        except BaseException:
            self._slots.release()
            raise

    # ------------------------------------------------------------------ #
    # results (the collector thread, under the lock)
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        while not self._stop.is_set():
            messages = self._fleet.receive(0.05)
            with self._lock:
                self._fleet.handle(messages)
                if not self._fleet.pending:
                    self._idle.notify_all()

    def _resolve(self, inflight: _Inflight, *, value=None, error=None) -> None:
        """Finish one bundle (lock held): unlink, resolve, free the slot."""
        unlink_quietly(inflight.segment)
        if inflight.span is not None:
            # Still open here means no result ever closed it — the pool
            # shut down or the retry budget ran out mid-flight.
            inflight.span.abort()
        if error is not None:
            inflight.future._set_error(error)
        else:
            inflight.future._set(value)
        if inflight.done_q is not None:
            inflight.done_q.put(inflight.future)
        self._slots.release()

    def _on_result(self, inflight: _Inflight, status, payload, busy_seconds) -> None:
        self.metrics.counter("serve.busy_seconds").inc(max(0.0, busy_seconds))
        self.metrics.histogram("serve.task_seconds").observe(
            max(0.0, time.perf_counter() - inflight.enqueued)
        )
        self.metrics.gauge("serve.queue_depth").set(len(self._fleet.pending))
        if status == "done":
            # A single submit() answers (order, witness_json), without the
            # component count the stream reads off a solve entry.
            self._resolve(
                inflight, value=payload[0][:2] if inflight.single else payload
            )
        else:
            self._resolve(
                inflight, error=ServeError(f"worker task failed:\n{payload[1]}")
            )

    def _on_lost(self, inflight: _Inflight) -> None:
        self.metrics.gauge("serve.queue_depth").set(len(self._fleet.pending))
        self._resolve(
            inflight,
            error=ServeError(f"task crashed its worker {inflight.retries} times"),
        )

    def _replay_session(self, inflight: _Inflight, worker) -> None:
        """Before a re-dispatch: rebuild a delta bundle on its new worker.

        A delta bundle cannot be re-shipped verbatim: the crashed worker
        held the session's solver.  The segment is rebuilt with the replay
        log (marked as replay) ahead of the bundle's own frames, so
        the target worker reconstructs the session and then applies the
        un-answered deltas for real.
        """
        session = inflight.session
        if session is None:
            return
        frame = _replayed(session, inflight.entries)
        unlink_quietly(inflight.segment)
        inflight.segment = wire.create_segment(frame)
        inflight.segment_name = inflight.segment.name
        self.metrics.counter("serve.delta_replays").inc()
        session.worker = worker

    # ------------------------------------------------------------------ #
    # high-level serving API
    # ------------------------------------------------------------------ #
    def solve_stream(
        self,
        ensembles: Iterable[Ensemble],
        *,
        circular: bool = False,
        kernel: str = "indexed",
        engine: str | None = None,
        certify: bool = False,
        ordered: bool = False,
        chunksize: int | None = None,
        trace: "Tracer | None" = None,
        cache=None,
        incremental: bool = False,
    ) -> Iterator[BatchResult]:
        """Stream :class:`~repro.batch.BatchResult`\\ s through the warm pool.

        Yields in completion order by default (each result's ``index``
        names its input position); ``ordered=True`` yields in input order
        instead.  Instances, component decomposition, statuses and
        certificates match serial :func:`repro.batch.solve_many` exactly.
        Submission runs on a feeder thread and consumes ``ensembles``
        *lazily*: a generator (e.g. instances parsed off a socket or
        stdin) starts producing results before it is exhausted, bounded by
        the pool's in-flight window.  Each instance is one task, solved
        whole by one worker — component split, component solves and witness
        extraction included — so a multi-component instance is not spread
        over workers (fan-out within one instance is
        ``path_realization(parallel=N)``, not the pool's axis).
        ``chunksize`` controls how many instances share a segment; the
        default is the executor policy (``instances // (workers * 4)``) for
        sized inputs and ``1`` — lowest per-instance latency — for unsized
        streams.  Once the stream is closed, the feeder takes no further
        request from ``ensembles``.

        ``trace=`` must be passed explicitly to trace a stream: submission
        happens on the feeder thread, and a contextvar-installed ambient
        tracer does not propagate to threads started after it was set —
        so the tracer captured *here*, on the calling thread, is handed to
        the feeder by closure.

        ``cache=`` takes a :class:`repro.incremental.ResultCache`, run
        through serial ``solve_many``'s cache front: hits are answered
        from the store, a miss whose canonical form is in flight rides that
        solve, and any other miss solves the *canonical* instance — so hit
        and miss answers are byte-identical.  Cache-routed results carry
        ``split="cache"`` and are never component-split.  Build the cache
        with ``metrics=pool.metrics`` to fold its counters into
        :meth:`metrics_snapshot`.

        ``incremental=True`` switches the stream to *delta mode*:
        ``ensembles`` is then an iterable of deltas — ``("open", n)``
        first, then any mix of ``("add", columns)`` / ``("remove",
        columns)`` over atoms ``0..n-1`` — applied in order to one
        worker-pinned PQ-tree session, one result per delta
        (``split="delta"``).  A refused add (or a remove matching no
        accepted column) yields a ``rejected`` result — with a Tucker
        witness certificate when ``certify`` is set — and leaves the
        session state untouched.  Delta mode is inherently ordered and
        mutually exclusive with ``cache=``.
        """
        if incremental:
            if cache is not None:
                raise ServeError(
                    "incremental delta streams cannot be cache-fronted: a "
                    "session's state depends on its whole delta history, "
                    "which canonical-form keys do not capture. Pass either "
                    "cache= or incremental=True, not both."
                )
            yield from self._delta_stream(
                ensembles,
                circular=circular,
                kernel=kernel,
                engine=engine,
                certify=certify,
                chunksize=chunksize,
                trace=trace,
            )
            return
        if chunksize is None:
            try:
                chunksize = max(1, len(ensembles) // (self.num_workers * 4))
            except TypeError:  # a true stream: favour latency
                chunksize = 1
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        # The feeder puts three kinds of message: a bundle's future, a list
        # of answers ready without a solve (cache hits), and the request
        # count once the input is exhausted; ``None`` signals its error.
        done_q: queue.Queue = queue.Queue()
        stop = threading.Event()
        feeder_error: list[BaseException] = []
        # (num_atoms, num_columns) per request: the feeder writes it before
        # admitting the request, so the done_q handoff orders every access.
        shapes: dict[int, tuple[int, int]] = {}
        tracer = trace if trace is not None else current_tracer()
        stream_trace = tracer if tracer.enabled else None
        front = CacheFront(
            cache, circular=circular, certify=certify, kernel=kernel, engine=engine
        )
        split = _split_mode(circular, cache)
        args = (circular, kernel, engine, split, certify)

        def _flush(group: list[tuple[int, bytes]]) -> None:
            self._submit_bundle(
                [(_K_SOLVE, payload) for _, payload in group],
                args,
                done_q=done_q,
                tag=tuple(index for index, _ in group),
                single=False,
                trace=stream_trace,
            )

        def _feed() -> None:
            try:
                group: list[tuple[int, bytes]] = []
                group_bytes = wire.BUNDLE_HEADER.size
                requests = iter(ensembles)
                for index in itertools.count():
                    # Checked before each pull: a closed stream takes no
                    # further request, even from a source that blocks.
                    if stop.is_set():
                        return
                    instance = next(requests, _END)
                    if instance is _END:
                        break
                    shapes[index] = (instance.num_atoms, instance.num_columns)
                    instance, ready = front.admit(index, instance)
                    if ready:
                        done_q.put(ready)
                    if instance is None:
                        continue
                    payload = _pack_instance(instance)
                    cost = wire.ENTRY_HEADER.size + len(payload)
                    budget = self.max_segment_bytes
                    if budget is not None and group and group_bytes + cost > budget:
                        _flush(group)
                        group, group_bytes = [], wire.BUNDLE_HEADER.size
                    group.append((index, payload))
                    group_bytes += cost
                    if len(group) >= chunksize:
                        _flush(group)
                        group, group_bytes = [], wire.BUNDLE_HEADER.size
                if group:
                    _flush(group)
                done_q.put(index)  # the request count
            except BaseException as exc:  # surface in the consumer
                feeder_error.append(exc)
                done_q.put(None)

        feeder = threading.Thread(
            target=_feed, name="repro-serve-feeder", daemon=True
        )
        feeder.start()

        completed = 0
        total: int | None = None
        next_index = 0
        buffered: dict[int, BatchResult] = {}
        try:
            while total is None or completed < total:
                message = done_q.get()
                if message is None:
                    raise feeder_error[0]
                if isinstance(message, int):
                    total = message
                    continue
                if isinstance(message, ServeFuture):
                    message = [
                        settled
                        for index, raw in zip(message.tag, message.result())
                        for settled in front.settle(index, raw)
                    ]
                for index, raw in message:
                    result = _result(
                        index, raw, *shapes.pop(index), split, circular, certify
                    )
                    completed += 1
                    if not ordered:
                        yield result
                        continue
                    buffered[index] = result
                    while next_index in buffered:
                        yield buffered.pop(next_index)
                        next_index += 1
        finally:
            stop.set()
            feeder.join(timeout=5.0)

    def _delta_stream(
        self,
        deltas,
        *,
        circular: bool,
        kernel: str,
        engine: str | None,
        certify: bool,
        chunksize: int | None,
        trace: "Tracer | None",
    ) -> Iterator[BatchResult]:
        """Drive one incremental session over the pool; one result per delta.

        Strictly sequential by design: at most one bundle of delta frames
        is in flight, because frame ``k+1``'s outcome depends on the
        worker-side state left by frame ``k``.  ``chunksize`` frames ride
        per bundle (default 1: lowest per-delta latency); each bundle's
        frames are folded into the session's replay log only after its
        results arrive, so a crash mid-bundle replays exactly the live
        columns plus the unanswered bundle.  Layouts come back as atom
        indices and are mapped through one ``tuple(range(n))`` per
        session, so every answer shares its int objects.
        """
        if chunksize is None:
            chunksize = 1
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        tracer = trace if trace is not None else current_tracer()
        stream_trace = tracer if tracer.enabled else None
        session = _DeltaSession(next(self._session_counter))
        self.metrics.counter("serve.delta_sessions").inc()
        labels: tuple = ()
        answered = num_columns = 0

        def _flush(batch: list[tuple[str, int | None, bytes]]) -> list[BatchResult]:
            nonlocal answered, num_columns
            future = self._submit_bundle(
                [(_K_DELTA, frame) for _, _, frame in batch],
                (circular, kernel, engine, "delta", certify),
                done_q=None,
                tag=None,
                single=False,
                trace=stream_trace,
                session=session,
            )
            outcomes = future.result()
            # A crash-recovery re-dispatch prepends the replay log; only
            # the trailing outcomes answer this bundle.
            outcomes = outcomes[len(outcomes) - len(batch):]
            results = []
            for (op, mask, frame), (order, witness_json, parts) in zip(batch, outcomes):
                accepted = order is not None
                session.ack(op, mask, frame, accepted)
                if accepted:
                    order = [labels[i] for i in order]
                    if op == OP_ADD:
                        num_columns += 1
                    elif op == OP_REMOVE:
                        num_columns -= 1
                self.metrics.counter("serve.delta_frames").inc()
                results.append(
                    _result(
                        answered, (order, witness_json, parts),
                        session.num_atoms, num_columns, "delta", circular, certify,
                    )
                )
                answered += 1
            return results

        batch: list[tuple[str, int | None, bytes]] = []
        opened = False
        for item in deltas:
            try:
                op, value = item
            except (TypeError, ValueError):
                raise IncrementalError(
                    f"delta stream items must be (op, value) pairs, "
                    f"got {item!r}"
                ) from None
            if op == OP_OPEN:
                if opened:
                    raise IncrementalError(
                        "a delta stream drives exactly one session; "
                        "open a second stream for a second session"
                    )
                n = value
                if type(n) is not int or n < 1:
                    raise IncrementalError(
                        f"a session needs a positive int atom count, got {n!r}"
                    )
                session.num_atoms = n
                labels = tuple(range(n))
                mask = None
                flags = 0
                if circular:
                    flags |= wire.DELTA_FLAG_CIRCULAR
                if certify:
                    flags |= wire.DELTA_FLAG_CERTIFY
                frame = wire.pack_delta(
                    wire.DELTA_OPEN, session.session_id, n, flags=flags
                )
                opened = True
            elif op in (OP_ADD, OP_REMOVE):
                if not opened:
                    raise IncrementalError(
                        f"delta stream must start with an "
                        f"({OP_OPEN!r}, num_atoms) item, got {op!r} first"
                    )
                column = tuple(value)
                for atom in column:
                    if type(atom) is not int or not (
                        0 <= atom < session.num_atoms
                    ):
                        raise IncrementalError(
                            f"column atom {atom!r} outside the session "
                            f"universe 0..{session.num_atoms - 1}"
                        )
                mask = mask_from_indices(column)
                frame = wire.pack_delta(
                    wire.DELTA_ADD if op == OP_ADD else wire.DELTA_REMOVE,
                    session.session_id,
                    session.num_atoms,
                    mask,
                )
            else:
                raise IncrementalError(
                    f"unknown delta op {op!r}; expected one of "
                    f"{OP_OPEN!r}, {OP_ADD!r}, {OP_REMOVE!r}"
                )
            batch.append((op, mask, frame))
            if len(batch) >= chunksize:
                yield from _flush(batch)
                batch = []
        if batch:
            yield from _flush(batch)

    def solve_many(
        self,
        ensembles: Iterable[Ensemble],
        *,
        circular: bool = False,
        kernel: str = "indexed",
        engine: str | None = None,
        certify: bool = False,
        chunksize: int | None = None,
        trace: "Tracer | None" = None,
        cache=None,
        incremental: bool = False,
    ) -> list[BatchResult]:
        """Ordered, :func:`repro.batch.solve_many`-compatible batch solve.

        ``trace=``, ``cache=`` and ``incremental=`` are threaded through as
        in :meth:`solve_stream`.
        """
        return list(
            self.solve_stream(
                ensembles,
                circular=circular,
                kernel=kernel,
                engine=engine,
                certify=certify,
                ordered=True,
                chunksize=chunksize,
                trace=trace,
                cache=cache,
                incremental=incremental,
            )
        )

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def utilization(self) -> float:
        """Fraction of worker capacity spent solving since pool start.

        Worker busy time (reported per bundle in result metadata) over
        wall time × worker count.  A cold or idle pool reads near zero.
        """
        elapsed = time.perf_counter() - self._started
        if elapsed <= 0.0:
            return 0.0
        busy = self.metrics.counter("serve.busy_seconds").value
        return min(1.0, busy / (elapsed * self.num_workers))

    def metrics_snapshot(self) -> dict:
        """JSON-native snapshot of the pool's metrics registry."""
        self.metrics.gauge("serve.utilization").set(self.utilization())
        return self.metrics.snapshot()

