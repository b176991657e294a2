"""Batch / throughput layer: solve many instances, serially or across processes.

The paper's parallelism argument is about depth within a *single* instance;
the serving workloads that motivate scaling this reproduction (physical
mapping pipelines, Tucker-pattern screens over many candidate matrices) are
embarrassingly parallel *across* instances.  :func:`solve_many` exploits
both axes of independence:

* independent **instances** are fanned out over the worker processes of a
  :class:`repro.serve.ServePool` — a transient one that lives for the call
  with ``processes=N``, or a warm one you keep with ``pool=``;
* within a linear instance, independent **connected components** (after
  trivial and full columns — which never constrain a linear layout — are
  dropped) are dispatched as separate tasks and their layouts
  concatenated, so one huge disconnected matrix also saturates the pool.

Every task runs the integer-indexed kernel by default (see
:mod:`repro.core.indexed`); pass ``kernel="reference"`` to fan out the
label-level reference solver instead.  Atom labels must be picklable when
worker processes are used (plain ints/strings always are): the packed
shared-memory wire format of :mod:`repro.serve.wire` pickles each distinct
label once.  With ``certify=True`` the same pool serves both the solves and
the witness extractions for rejected instances.

Both process paths are the one ``pool.solve_many`` call, so results,
certificates and traces are the same either way.  A transient pool pays
its workers' start-up on every call; for a long-lived stream of instances
keep a warm pool and pass it as ``pool=``, or use its ``solve_stream`` for
completion-order streaming (CLI: ``python -m repro serve``).

The CLI front end is ``python -m repro batch`` (see :mod:`repro.cli`);
``benchmarks/bench_batch_throughput.py`` measures one-shot instances/sec
and ``benchmarks/bench_serve_throughput.py`` gates warm dispatch against a
cold transient pool per call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Hashable, Iterable

from .core import cycle_realization, path_realization
from .ensemble import Ensemble
from .errors import CertificationError
from .obs.trace import current_tracer, use_tracer

Atom = Hashable

__all__ = ["BatchResult", "solve_many"]


@dataclass
class BatchResult:
    """Outcome of one instance of a :func:`solve_many` call."""

    #: position of the instance in the input sequence
    index: int
    #: realizing atom order, or ``None`` when the property does not hold
    order: list | None
    #: number of atoms / columns of the instance
    num_atoms: int = 0
    num_columns: int = 0
    #: how many pool tasks the instance was split into (connected components)
    parts: int = 1
    #: structured outcome: ``"realized"`` or ``"rejected"`` (never a bare
    #: ``None`` order with no explanation)
    status: str = ""
    #: with ``certify=True``: an ``OrderCertificate`` for realized instances,
    #: a checkable ``TuckerWitness`` for rejected ones; ``None`` otherwise
    certificate: object | None = None
    #: what happened to component splitting for this instance:
    #: ``"components"`` (linear instance, split applied — ``parts`` counts the
    #: pieces), ``"circular-skip"`` (splitting was requested but the instance
    #: is circular, where component structure only emerges after the solver's
    #: column normalisation, so it is *never* split), or ``"off"``
    #: (``split_components=False``)
    split: str = ""

    @property
    def ok(self) -> bool:
        """True when the instance has the requested property."""
        return self.order is not None

    def summary(self, *, label_key=None) -> dict[str, object]:
        """A ``json.dumps``-safe dict rendering of this result.

        Atom labels in ``order`` are passed through when they are JSON
        native (str/int/float/bool/None) and coerced with ``str`` otherwise
        — tuple-labelled probes, frozensets, custom objects — so the
        payload always serializes.  Pass ``label_key`` (a callable) to
        control the coercion yourself; it is applied to *every* label.
        Certificate payloads keep their own convention: labels as-is,
        serialized via ``json.dump(..., default=str)`` (see
        ``OrderCertificate.to_json``).
        """
        key = label_key if label_key is not None else _json_label
        certificate = (
            self.certificate.to_json() if self.certificate is not None else None
        )
        return {
            "index": self.index,
            "ok": self.ok,
            "status": self.status,
            "order": None if self.order is None else [key(a) for a in self.order],
            "num_atoms": self.num_atoms,
            "num_columns": self.num_columns,
            "parts": self.parts,
            "split": self.split,
            "certificate": certificate,
        }


def _json_label(label):
    """Default ``summary`` coercion: JSON-native labels as-is, else ``str``."""
    if label is None or isinstance(label, (str, int, float, bool)):
        return label
    return str(label)


# ---------------------------------------------------------------------- #
# plumbing (the split and the witness remap are shared with repro.serve)
# ---------------------------------------------------------------------- #
def _component_witness_remap(witness, original: Ensemble, sub: Ensemble):
    """Re-index a component witness to the original instance's columns.

    The component split preserves column *contents*: trivial/full columns
    are dropped whole, duplicates keep their first representative, and each
    remaining column lies wholly inside one component, so every sub-ensemble
    column set appears verbatim among the original columns.  Mapping each
    witness row to the first original column with the same atom set
    therefore yields an equally valid witness whose ``row_indices`` refer
    to the input ensemble — without re-running the extraction's narrowing
    re-solves on the full instance.
    """
    first_index: dict[frozenset, int] = {}
    for i, col in enumerate(original.columns):
        first_index.setdefault(col, i)
    try:
        rows = tuple(first_index[sub.columns[j]] for j in witness.row_indices)
    except (KeyError, IndexError) as exc:
        raise CertificationError(
            "component witness references a column absent from the original "
            "instance; the component split no longer preserves column sets"
        ) from exc
    return replace(witness, row_indices=rows)


def _linear_component_ensembles(ensemble: Ensemble) -> list[Ensemble]:
    """Sub-ensembles of the connected components that constrain a linear layout.

    Trivial (size <= 1) and full columns are dropped first: they are
    consecutive in every layout, and keeping them would glue unrelated
    components together.  Concatenating the component layouts (in component
    order) therefore realizes the original ensemble.
    """
    effective = ensemble.drop_trivial_columns(max_size=1, drop_full=True)
    effective = effective.deduplicate_columns()
    components = effective.components()
    if len(components) <= 1:
        return [ensemble]
    return [effective.restrict(comp) for comp in components]


def _split_mode(split_components: bool, circular: bool) -> str:
    """The ``BatchResult.split`` value for one :func:`solve_many` call.

    Shared with :meth:`repro.serve.ServePool.solve_many` so serial and pool
    summaries stay byte-for-byte identical.  ``"circular-skip"`` makes the
    long-standing silent behaviour explicit: circular instances are *never*
    component-split, because trivial/full-column dropping is only
    layout-preserving for linear instances — the cycle solver's own column
    normalisation (complementing majority columns) changes which columns are
    trivial, so component structure emerges only inside the solve.
    """
    if not split_components:
        return "off"
    if circular:
        return "circular-skip"
    return "components"


def _resolve_workers(
    processes: int | None, instances: list[Ensemble], split: str
) -> int:
    """Worker processes for one call: never more than it has tasks."""
    if processes is None:
        return 1
    if processes < 0:
        raise ValueError(f"processes must be >= 0, got {processes}")
    wanted = processes or (os.cpu_count() or 1)
    tasks = 0
    for ensemble in instances:
        if split == "components":
            tasks += len(_linear_component_ensembles(ensemble))
        else:
            tasks += 1
        if tasks >= wanted:
            return wanted
    return tasks


def solve_many(
    ensembles: Iterable[Ensemble],
    *,
    circular: bool = False,
    processes: int | None = None,
    kernel: str = "indexed",
    engine: str | None = None,
    split_components: bool = True,
    certify: bool = False,
    pool=None,
    parallel: int | None = None,
    trace=None,
    cache=None,
    incremental: bool = False,
) -> list[BatchResult]:
    """Solve every ensemble, optionally fanning work out over processes.

    Parameters
    ----------
    ensembles:
        The instances to solve, in order.
    circular:
        Test the circular-ones property instead of consecutive-ones.
    processes:
        ``None`` solves serially in-process (the default — deterministic and
        dependency-free); ``0`` uses one worker per CPU; any other value is
        the worker count, capped at the number of tasks.  The workers are a
        transient :class:`repro.serve.ServePool` that lives for this call,
        driven exactly as ``pool=`` drives a warm one.  A single-task
        workload always runs serially.
    kernel:
        Execution engine per task, as in :func:`repro.core.path_realization`.
    engine:
        Tutte decomposition engine per task ("spqr" / "splitpair" /
        ``None`` for the default); carried inside each task so pool workers
        honour the selection too.
    split_components:
        For linear instances, dispatch independent connected components as
        separate tasks and concatenate their layouts.  Circular
        instances are never split (component structure only emerges after
        the solver's column normalisation); when splitting is requested on a
        circular call the skip is recorded explicitly as
        ``BatchResult.split == "circular-skip"`` rather than silently
        reporting one part.  See
        :func:`repro.pram.costmodel.batch_split_savings` for the cost-model
        view of what the skip forgoes.
    certify:
        Attach a certificate to every result: an ``OrderCertificate`` for
        realized instances and a checkable ``TuckerWitness`` for rejected
        ones.  A rejected split instance extracts its witness from the
        failed component's sub-ensemble — reusing the narrowing the solve
        already computed — and the witness rows are re-indexed so they
        refer to the input columns.  With worker processes, witness
        extractions ride the *same* pool as the solves.
    pool:
        A warm :class:`repro.serve.ServePool`.  When given, every task —
        solves and witness extractions alike — is dispatched through the
        persistent workers over the packed shared-memory wire format, and
        ``processes`` is ignored.  Results are identical, in the same order.
    parallel:
        Intra-instance workers (``repro.core.path_realization``'s
        ``parallel=``): each instance is solved through one reused
        :class:`repro.parallel.ParallelSolver` so its spawn-once slice
        workers amortise across the batch.  Mutually exclusive with
        ``processes`` — they fan out on different axes (within vs. across
        instances) and composing them would oversubscribe the machine — and
        rejected by ``pool=`` (serve workers are single-process by design).
    trace:
        A :class:`repro.obs.Tracer` recording phase spans for the batch, on
        every path: serially, and through the worker processes of
        ``processes=``, ``pool=`` and ``parallel=``, whose worker-side spans
        are stitched back under their dispatch spans.
    cache:
        A :class:`repro.incremental.ResultCache` fronting the pool:
        relabeled duplicate instances are answered from the store instead
        of re-solved.  Requires ``pool=``; see
        :meth:`repro.serve.ServePool.solve_stream`.
    incremental:
        Delta mode — ``ensembles`` is then an iterable of session deltas
        (``("open", n)`` / ``("add", columns)`` / ``("remove", columns)``)
        driven through one worker-pinned PQ-tree session.  Requires
        ``pool=``; mutually exclusive with ``cache=``.

    Returns
    -------
    One :class:`BatchResult` per input ensemble, in input order.
    """
    if parallel is not None:
        if isinstance(parallel, bool) or not isinstance(parallel, int):
            raise ValueError(f"parallel must be an int >= 1 or None, got {parallel!r}")
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        if processes is not None:
            raise ValueError(
                "parallel= (workers within one instance) and processes= "
                "(workers across instances) are mutually exclusive; pick one "
                "axis of fan-out"
            )
    if cache is not None or incremental:
        if pool is None:
            raise ValueError(
                "cache= and incremental= are serving-layer features: pass a "
                "warm repro.serve.ServePool via pool= (or use "
                "repro.incremental.cached_solve / IncrementalSolver for the "
                "in-process equivalents)"
            )
    transient = None
    if pool is None:
        instances = list(ensembles)
        split = _split_mode(split_components, circular)
        workers = _resolve_workers(processes, instances, split)
        if workers < 2:
            with use_tracer(trace if trace is not None else current_tracer()):
                return _solve_in_process(
                    instances, split, circular, kernel, engine, certify, parallel
                )
        from .serve.pool import ServePool

        ensembles = instances
        pool = transient = ServePool(workers)
    try:
        return pool.solve_many(
            ensembles,
            circular=circular,
            kernel=kernel,
            engine=engine,
            split_components=split_components,
            certify=certify,
            parallel=parallel,
            trace=trace,
            cache=cache,
            incremental=incremental,
        )
    finally:
        if transient is not None:
            transient.close()


def _solve_in_process(
    instances: list[Ensemble],
    split: str,
    circular: bool,
    kernel: str,
    engine: str | None,
    certify: bool,
    parallel: int | None,
) -> list[BatchResult]:
    """:func:`solve_many` on the calling process, under the ambient tracer.

    With ``parallel`` > 1 on the indexed kernel, one
    :class:`repro.parallel.ParallelSolver` is reused across all tasks so its
    spawn-once slice workers amortise over the batch; its cost model still
    decides per task whether fanning out beats the serial kernel, and either
    way the layouts are byte-for-byte those of the serial kernel.
    """
    subs_per_instance = [
        _linear_component_ensembles(ensemble) if split == "components" else [ensemble]
        for ensemble in instances
    ]
    if parallel is not None and parallel >= 2 and kernel == "indexed":
        from .parallel.solver import ParallelSolver

        with ParallelSolver(parallel) as solver:
            solve = solver.solve_cycle if circular else solver.solve_path
            orders = [
                [solve(sub, engine=engine) for sub in subs]
                for subs in subs_per_instance
            ]
    else:
        solve = cycle_realization if circular else path_realization
        orders = [
            [solve(sub, kernel=kernel, engine=engine) for sub in subs]
            for subs in subs_per_instance
        ]

    # Reassemble: concatenate component layouts in component order; a
    # single failed component fails its whole instance.
    results: list[BatchResult] = []
    for index, (ensemble, pieces) in enumerate(zip(instances, orders)):
        if any(piece is None for piece in pieces):
            combined: list | None = None
        else:
            combined = [atom for piece in pieces for atom in piece]
        results.append(
            BatchResult(
                index=index,
                order=combined,
                num_atoms=ensemble.num_atoms,
                num_columns=ensemble.num_columns,
                parts=len(pieces),
                status="realized" if combined is not None else "rejected",
                split=split,
            )
        )
    if certify:
        _attach_certificates(
            results, instances, subs_per_instance, orders, circular, kernel, engine
        )
    return results


def _attach_certificates(
    results: list[BatchResult],
    instances: list[Ensemble],
    subs_per_instance: list[list[Ensemble]],
    orders: list[list[list | None]],
    circular: bool,
    kernel: str,
    engine: str | None,
) -> None:
    """Fill ``result.certificate`` in place for every instance.

    Realized instances get their layout wrapped as an ``OrderCertificate``.
    A rejected instance extracts its witness from its first *failed
    component's* sub-ensemble — the narrowing the solve already paid for —
    and the witness rows are re-indexed to the input columns by
    :func:`_component_witness_remap`, instead of re-running the extraction
    against the full instance.
    """
    from .certify.certificates import OrderCertificate
    from .certify.witness import extract_tucker_witness

    kind = "circular" if circular else "consecutive"
    for result, ensemble, subs, pieces in zip(
        results, instances, subs_per_instance, orders
    ):
        if result.order is not None:
            result.certificate = OrderCertificate(kind, tuple(result.order))
            continue
        source = subs[pieces.index(None)]
        witness = extract_tucker_witness(
            source,
            kernel=kernel,
            engine=engine,
            circular=circular,
            assume_rejected=True,
        )
        if source is not ensemble:
            witness = _component_witness_remap(witness, ensemble, source)
        result.certificate = witness
