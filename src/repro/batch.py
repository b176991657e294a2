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
  dropped) are solved separately, in component order, and their layouts
  concatenated; the first component that rejects decides the instance.

One per-instance routine, :func:`_solve_instance`, does the split, the
component solves and the witness extraction, and it is the same routine
serially and in a pool worker: one pool task carries one whole instance,
so pool results are those of the serial loop by construction.  Every
instance runs the integer-indexed kernel by default (see
:mod:`repro.core.indexed`); pass ``kernel="reference"`` to run the
label-level reference solver instead.  Atom labels must be picklable when
worker processes are used (plain ints/strings always are): the packed
shared-memory wire format of :mod:`repro.serve.wire` pickles each distinct
label once.  With ``certify=True`` a rejected instance's witness is
extracted in the same task that solved it.

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
from functools import partial
from typing import Hashable, Iterable

from .core import cycle_realization, path_realization
from .ensemble import Ensemble
from .errors import CertificationError
from .obs.trace import NULL_TRACER, current_tracer, use_tracer

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
    #: how many connected components the instance was split into
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
# the per-instance routine (shared with repro.serve's workers)
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


def _resolve_workers(processes: int | None, instances: int) -> int:
    """Worker processes for one call: never more than it has instances."""
    if processes is None:
        return 1
    if processes < 0:
        raise ValueError(f"processes must be >= 0, got {processes}")
    return min(processes or (os.cpu_count() or 1), instances)


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
        the worker count, capped at the number of instances (one pool task
        carries one whole instance).  The workers are a transient
        :class:`repro.serve.ServePool` that lives for this call, driven
        exactly as ``pool=`` drives a warm one.  A single instance always
        runs serially; fan-out *within* one instance is ``parallel=``.
    kernel:
        Execution engine per instance, as in :func:`repro.core.path_realization`.
    engine:
        Tutte decomposition engine per instance ("spqr" / "splitpair" /
        ``None`` for the default); carried inside each task so pool workers
        honour the selection too.
    split_components:
        For linear instances, solve independent connected components
        separately, in component order, and concatenate their layouts; the
        first rejecting component decides the instance and the rest are
        not solved.  The split runs where the instance is solved — in the
        pool worker when there is one — so ``BatchResult.parts`` counts
        components, not pool tasks.  Circular
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
        rejecting component's sub-ensemble — reusing the narrowing the
        solve already computed — and the witness rows are re-indexed so
        they refer to the input columns.  The extraction runs in the same
        task as the solve, in-process or on the pool worker alike.
    pool:
        A warm :class:`repro.serve.ServePool`.  When given, every instance
        is dispatched through the persistent workers over the packed
        shared-memory wire format, one task per instance, and ``processes``
        is ignored.  Results are identical, in the same order.
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
        workers = _resolve_workers(processes, len(instances))
        if workers < 2:
            with use_tracer(trace if trace is not None else current_tracer()):
                return _solve_in_process(
                    instances,
                    _split_mode(split_components, circular),
                    circular,
                    kernel,
                    engine,
                    certify,
                    parallel,
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
    :class:`repro.parallel.ParallelSolver` solves every component so its
    spawn-once slice workers amortise over the batch; its cost model still
    decides per component whether fanning out beats the serial kernel, and
    either way the layouts are byte-for-byte those of the serial kernel.
    """
    if parallel is None or parallel < 2 or kernel != "indexed":
        return _instance_results(
            instances, split, circular, kernel, engine, certify, None
        )
    from .parallel.solver import ParallelSolver

    with ParallelSolver(parallel) as solver:
        solve = partial(
            solver.solve_cycle if circular else solver.solve_path, engine=engine
        )
        return _instance_results(
            instances, split, circular, kernel, engine, certify, solve
        )


def _instance_results(
    instances, split, circular, kernel, engine, certify, solve
) -> list[BatchResult]:
    """Run :func:`_solve_instance` over ``instances``; one result each."""
    results = []
    for index, ensemble in enumerate(instances):
        order, parts, witness = _solve_instance(
            ensemble, split, circular, kernel, engine, certify, solve=solve
        )
        results.append(
            BatchResult(
                index=index,
                order=order,
                num_atoms=ensemble.num_atoms,
                num_columns=ensemble.num_columns,
                parts=parts,
                status="realized" if order is not None else "rejected",
                certificate=(
                    _certificate(order, witness, circular) if certify else None
                ),
                split=split,
            )
        )
    return results


def _solve_instance(
    ensemble: Ensemble,
    split: str,
    circular: bool,
    kernel: str,
    engine: str | None,
    certify: bool,
    *,
    solve=None,
    span_prefix: str | None = None,
) -> tuple[list | None, int, object | None]:
    """Solve one instance of :func:`solve_many`: split, solve, certify.

    Serial ``solve_many`` and the pool worker both run this, so a pool
    result is the serial result by construction.

    1. With ``split == "components"`` the instance is split into the
       sub-ensembles of its connected components
       (:func:`_linear_component_ensembles`); otherwise it is one part.
    2. The parts are solved in component order and their layouts
       concatenated.  The first rejection decides the instance, so the
       parts after it are not solved.
    3. With ``certify``, a rejected instance's witness is extracted from
       the rejecting part and its rows re-indexed to the instance's
       columns by :func:`_component_witness_remap`.

    Returns ``(order, parts, witness)``: the layout or ``None``, the number
    of parts, and the ``TuckerWitness`` of a certified rejection (else
    ``None``).  ``solve`` replaces the per-part solver (``parallel=``
    passes its reused :class:`repro.parallel.ParallelSolver`);
    ``span_prefix`` traces the solve and the extraction as
    ``<prefix>.solve`` / ``<prefix>.certify`` spans of the ambient tracer.
    """
    subs = (
        _linear_component_ensembles(ensemble) if split == "components" else [ensemble]
    )
    if solve is None:
        solve = partial(
            cycle_realization if circular else path_realization,
            kernel=kernel,
            engine=engine,
        )
    tracer = current_tracer() if span_prefix else NULL_TRACER
    order: list | None = []
    with tracer.span(
        f"{span_prefix}.solve", n=ensemble.num_atoms, m=ensemble.num_columns
    ):
        for sub in subs:
            piece = solve(sub)
            if piece is None:
                order = None
                break
            order.extend(piece)
    if not certify or order is not None:
        return order, len(subs), None
    from .certify.witness import extract_tucker_witness

    # ``sub`` is the part that rejected.
    with tracer.span(f"{span_prefix}.certify", n=sub.num_atoms, m=sub.num_columns):
        witness = extract_tucker_witness(
            sub,
            kernel=kernel,
            engine=engine,
            circular=circular,
            assume_rejected=True,
        )
    if sub is not ensemble:
        witness = _component_witness_remap(witness, ensemble, sub)
    return None, len(subs), witness


def _certificate(order: list | None, witness, circular: bool):
    """A ``certify=True`` outcome's certificate: the layout, else the witness."""
    if order is None:
        return witness
    from .certify.certificates import OrderCertificate

    return OrderCertificate("circular" if circular else "consecutive", tuple(order))
