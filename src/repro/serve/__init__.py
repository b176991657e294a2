"""Persistent shared-memory serving layer (``repro.serve``).

The paper's parallelism is depth within one instance; the workloads that
motivate scaling this reproduction — physical-mapping pipelines and
Tucker-pattern screens over many candidate matrices — are long-lived
streams of *independent* instances, where per-task dispatch, not solving,
dominates a fleet of small instances.

This package keeps dispatch cheap:

* :mod:`repro.serve.wire` — a packed wire format (atom-count header +
  contiguous little-endian column bitmasks + interned label table) written
  into :mod:`multiprocessing.shared_memory` segments, so a worker
  reconstructs an :class:`~repro.core.indexed.IndexedEnsemble` straight
  from the segment buffer without unpickling label-level containers.  It
  is the one payload format of every task: a delta of an incremental
  session travels as the same payload (no column to open a session, the
  one column to add or remove), named by its bundle entry's kind byte;
* :mod:`repro.serve.pool` — :class:`ServePool`, a spawn-once worker pool
  with a submission queue, backpressure, a ``solve_stream`` generator
  (completion order or input order), a ``solve_many``-compatible ordered
  mode, a result cache and delta sessions; ``certify=True`` witness
  extraction rides the same warm pool instead of a second executor.
  :func:`repro.batch.solve_many` with ``processes=N`` runs on a transient
  one;
* :mod:`repro.serve.fleet` — the internal worker-fleet core under
  ``ServePool``: spawn, the worker loop, least-loaded dispatch, crash
  detection with respawn and bounded re-dispatch, and shutdown within one
  deadline.  :class:`repro.parallel.ParallelSolver` fans one instance's
  components out as ordinary pool tasks, so the package has one fleet.

See DESIGN.md, "Substitution 5" for the format rationale and the
crash-recovery semantics, and ``benchmarks/bench_serve_throughput.py`` for
the dispatch-cost gate.
"""

from __future__ import annotations

from ..errors import ServeError, WireFormatError
from .pool import ServeFuture, ServePool
from .wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    attach_segment,
    ensure_shared_tracker,
    create_segment,
    pack_ensemble,
    packed_size,
    unpack_ensemble,
)

__all__ = [
    "ServePool",
    "ServeFuture",
    "ServeError",
    "WireFormatError",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "pack_ensemble",
    "unpack_ensemble",
    "packed_size",
    "create_segment",
    "attach_segment",
    "ensure_shared_tracker",
]
