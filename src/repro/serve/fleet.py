"""The worker-fleet core under ``ServePool``.

:class:`repro.serve.ServePool` is the one client of this module: it ships
whole instances (and session deltas) to the workers, and
:class:`repro.parallel.ParallelSolver` fans its components out as
ordinary pool tasks.  The fleet owns what a spawn-once pool needs and
nothing the pool serves:

* **spawn** — one process per slot, with a private task queue and a
  single-writer result pipe.  A worker killed mid-report can tear only its
  own channel (the parent sees EOF); it can never strand a lock another
  worker needs, which a shared result queue cannot guarantee.
* **the worker loop** — attach the task's named shared-memory segment, run
  the client's module-level *handler* on its buffer under a
  :class:`~repro.obs.trace.Tracer` rooted at the envelope's span id, and
  reply ``done``/``error`` with the busy seconds and the span records.
* **dispatch** — to the least-loaded live worker.
* **crash recovery** — a dead worker's pipe is drained and closed, the
  worker is respawned (counted as ``serve.respawns``), and its in-flight
  tasks are re-dispatched until they have crashed a worker more than
  ``max_task_retries`` times.  The crashed attempt's span closes as
  aborted and the retry opens a fresh span under the same parent, tagged
  ``retry``.  Dispatch is at-least-once and completion exactly-once: a
  result for a task no longer pending is dropped.
* **close** — a sentinel per worker, joins until one deadline, then SIGKILL
  for the stragglers (a stopped process never acts on SIGTERM) and reap.

The client hands the fleet three callbacks — a result, a task that ran out
of retries, and a step before each re-dispatch — and serializes
every call into it (``ServePool`` under its lock).
"""

from __future__ import annotations

import contextvars
import itertools
import multiprocessing
import time
import traceback
from multiprocessing import connection, shared_memory
from typing import Callable

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, use_tracer
from . import wire

#: seconds :meth:`Fleet.close` gives workers to exit before SIGKILL when
#: the client names no deadline of its own.
CLOSE_TIMEOUT = 1.0

_METHODS = multiprocessing.get_all_start_methods()
#: ``fork`` where available (no re-import per worker), else the platform
#: default.
START_METHOD = "fork" if "fork" in _METHODS else _METHODS[0]


def unlink_quietly(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink ``segment``; a second release is a no-op."""
    try:
        segment.close()
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone  # repro: lint-ok[exception-contract] quietly-idempotent unlink
        pass


# ---------------------------------------------------------------------- #
# the worker process
# ---------------------------------------------------------------------- #
def _worker_main(handler, task_q, result_conn) -> None:
    """Process entry: run the worker loop in a fresh, empty context.

    A forked child inherits the context of the parent thread that started
    it; a fleet spawned inside a traced region would otherwise record into
    a stale copy of the parent's tracer, under a stale current span.
    """
    contextvars.Context().run(_worker_loop, handler, task_q, result_conn)


def _worker_loop(handler, task_q, result_conn) -> None:
    """Attach, handle, report, repeat; ``None`` on the queue stops it.

    Envelopes are ``(task_id, segment_name, args, trace_ctx)``.  The reply
    is ``(status, task_id, payload, (busy_seconds, span_records))``: on
    ``"done"`` the payload is the handler's return value, on ``"error"``
    the pair ``("Type: message", repr-plus-traceback)``.  ``state`` is a
    dict private to this process and kept across its tasks.
    """
    state: dict = {}
    while True:
        item = task_q.get()
        if item is None:
            break
        task_id, segment_name, args, trace_ctx = item
        started = time.perf_counter()
        tracer = Tracer(root_parent=trace_ctx) if trace_ctx is not None else None
        try:
            segment = wire.attach_segment(segment_name)
            try:
                with use_tracer(tracer):
                    result = handler(segment.buf, args, state)
            finally:
                segment.close()
            result_conn.send(("done", task_id, result, _meta(started, tracer)))
        except BaseException as exc:
            error = (
                f"{type(exc).__name__}: {exc}",
                f"{exc!r}\n{traceback.format_exc()}",
            )
            try:
                result_conn.send(("error", task_id, error, _meta(started, tracer)))
            except (OSError, ValueError):  # pragma: no cover - reporting channel gone  # repro: lint-ok[exception-contract] nothing left to tell the parent
                pass
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                break


def _meta(started: float, tracer: Tracer | None) -> tuple:
    return (
        time.perf_counter() - started,
        tracer.records() if tracer is not None else (),
    )


# ---------------------------------------------------------------------- #
# the parent side
# ---------------------------------------------------------------------- #
class Task:
    """One unit of work as the fleet tracks it; the client subclasses it.

    ``args`` rides the envelope to the handler.  ``span`` is the parent-side
    dispatch span and ``tracer`` the trace its worker spans stitch into;
    both stay ``None`` for an untraced task.
    """

    __slots__ = (
        "task_id", "segment_name", "args", "worker", "retries", "span",
        "tracer", "enqueued",
    )

    def __init__(self, segment_name: str, args: tuple) -> None:
        self.task_id = -1
        self.segment_name = segment_name
        self.args = args
        self.worker: _Worker | None = None
        self.retries = 0
        self.span = None
        self.tracer = None
        self.enqueued = 0.0


class _Worker:
    """One worker process plus its private channels and in-flight set."""

    __slots__ = ("process", "task_q", "result_conn", "inflight")

    def __init__(self, process, task_q, result_conn) -> None:
        self.process = process
        self.task_q = task_q
        self.result_conn = result_conn
        self.inflight: set[int] = set()


class Fleet:
    """Spawn-once workers running ``handler``, with crash recovery.

    ``handler(buf, args, state)`` must be a module-level function: it is
    the worker entry (the ``spawn-safety`` lint rule checks it as one).
    ``on_result(task, status, payload, busy_seconds)`` receives every
    settled task, ``on_lost(task)`` each task that exhausted its retries,
    and ``on_retry(task, worker)`` runs before a re-dispatch to ``worker``.
    Respawns count into ``metrics`` as ``serve.respawns``.
    """

    def __init__(
        self,
        workers: int,
        handler: Callable,
        *,
        max_task_retries: int,
        metrics: MetricsRegistry,
        on_result: Callable,
        on_lost: Callable,
        on_retry: Callable,
    ) -> None:
        self.max_task_retries = max_task_retries
        self.respawn_count = 0
        self.closed = False
        self.pending: dict[int, Task] = {}
        self._handler = handler
        self._metrics = metrics
        self._on_result = on_result
        self._on_lost = on_lost
        self._on_retry = on_retry
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._ids = itertools.count()
        # The tracker must exist before the first worker so that children
        # inherit it instead of racing to start their own (bpo-39959).
        wire.ensure_shared_tracker()
        self.workers = [self._spawn() for _ in range(workers)]

    def _spawn(self) -> _Worker:
        task_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._handler, task_q, send_conn),
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end: once the worker dies, its
        # pipe reaches EOF instead of blocking a reader forever.
        send_conn.close()
        return _Worker(process, task_q, recv_conn)

    @property
    def pids(self) -> list[int]:
        return [w.process.pid for w in self.workers]

    @property
    def alive(self) -> int:
        return sum(1 for w in self.workers if w.process.is_alive())

    # -- dispatch ------------------------------------------------------- #
    def pick(self) -> _Worker:
        """The least-loaded live worker (any worker when none is alive)."""
        alive = [w for w in self.workers if w.process.is_alive()]
        return min(alive or self.workers, key=lambda w: len(w.inflight))

    def dispatch(self, task: Task, worker: _Worker | None = None) -> None:
        """Make ``task`` pending and enqueue it, least-loaded by default."""
        task.task_id = next(self._ids)
        task.enqueued = time.perf_counter()
        self.pending[task.task_id] = task
        try:
            self._send(task, worker if worker is not None else self.pick())
        except BaseException:
            self.forget(task)
            raise

    def _send(self, task: Task, worker: _Worker) -> None:
        task.worker = worker
        worker.inflight.add(task.task_id)
        worker.task_q.put(
            (
                task.task_id,
                task.segment_name,
                task.args,
                task.span.span_id if task.span is not None else None,
            )
        )

    def forget(self, task: Task) -> None:
        """Stop tracking ``task``; a late result for it is dropped."""
        self.pending.pop(task.task_id, None)
        if task.worker is not None:
            task.worker.inflight.discard(task.task_id)

    # -- collection ----------------------------------------------------- #
    def receive(self, timeout: float) -> list:
        """Result messages that arrive within ``timeout`` seconds.

        Touches only the result pipes, so ``ServePool`` calls it without
        its lock; a dead worker's EOF is left for :meth:`reap`.
        """
        conns = [w.result_conn for w in self.workers if not w.result_conn.closed]
        try:
            ready = connection.wait(conns, timeout=timeout)
        except OSError:  # pragma: no cover - raced a respawn
            ready = []
        messages = []
        for conn in ready:
            try:
                messages.append(conn.recv())
            # repro: lint-ok[exception-contract] worker died; the reap re-dispatches its tasks
            except (EOFError, OSError):
                pass
            except Exception:  # pragma: no cover - torn mid-write message  # repro: lint-ok[exception-contract] the reap recovers the task
                pass
        return messages

    def handle(self, messages: list) -> None:
        """Settle ``messages``, then reap dead workers."""
        for message in messages:
            self._settle(message)
        self.reap()

    def _settle(self, message) -> None:
        status, task_id, payload, (busy_seconds, records) = message
        task = self.pending.pop(task_id, None)
        if task is None:
            return  # a duplicate after a crash re-dispatch, or a forgotten task
        task.worker.inflight.discard(task_id)
        if records and task.tracer is not None:
            task.tracer.stitch(records)
        if task.span is not None:
            if status == "done":
                task.span.end()
            else:
                task.span.abort("error")
        self._on_result(task, status, payload, busy_seconds)

    def reap(self) -> None:
        """Respawn dead workers and re-dispatch their in-flight tasks."""
        for slot, worker in enumerate(self.workers):
            if worker.process.is_alive() or worker.result_conn.closed:
                continue
            # Drain whatever the worker managed to report before dying, then
            # retire its pipe (the closed flag doubles as "already reaped").
            try:
                while worker.result_conn.poll():
                    self._settle(worker.result_conn.recv())
            except (EOFError, OSError):  # repro: lint-ok[exception-contract] drain race with the dead worker
                pass
            worker.result_conn.close()
            orphaned = [
                self.pending[tid] for tid in sorted(worker.inflight)
                if tid in self.pending
            ]
            worker.inflight.clear()
            if not self.closed:
                self.workers[slot] = self._spawn()
                self.respawn_count += 1
                self._metrics.counter("serve.respawns").inc()
            for task in orphaned:
                self._retry(task)

    def _retry(self, task: Task) -> None:
        task.retries += 1
        # The crashed attempt's span closes as aborted (the record the
        # crash-mid-span tests pin); a retry opens a fresh one under the
        # same parent, so the trace shows every attempt.
        crashed = task.span
        if crashed is not None:
            crashed.abort()
        if task.retries > self.max_task_retries:
            self.forget(task)
            task.span = None
            self._on_lost(task)
            return
        target = self.pick()
        self._on_retry(task, target)
        if crashed is not None:
            task.span = task.tracer.begin(
                crashed.name, parent=crashed.parent_id, retry=task.retries
            )
        self._send(task, target)

    # -- shutdown ------------------------------------------------------- #
    def close(self, timeout: float = CLOSE_TIMEOUT) -> None:
        """Stop every worker within ``timeout`` seconds; idempotent.

        Each worker gets a sentinel and all are joined until one shared
        deadline; any still alive then is SIGKILLed and reaped.  Pending
        tasks stay in :attr:`pending` for the client to resolve.
        """
        self.closed = True
        deadline = time.monotonic() + max(0.0, timeout)
        for worker in self.workers:
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down with a dead worker  # repro: lint-ok[exception-contract] the kill below still runs
                pass
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in self.workers:
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(CLOSE_TIMEOUT)
            worker.result_conn.close()
