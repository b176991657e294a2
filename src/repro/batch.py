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
component solves and the witness extraction on the instance compiled
once to an :class:`~repro.core.indexed.IndexedEnsemble`, and it is the
same routine serially and in a pool worker (which decodes the wire
payload straight into one): one pool task carries one whole instance,
so pool results are those of the serial loop by construction.  Every
instance runs the integer-indexed kernel by default (see
:mod:`repro.core.indexed`); pass ``kernel="reference"`` to run the
label-level reference solver instead.  Atom labels must be picklable when
worker processes are used (plain ints/strings always are): the packed
shared-memory wire format of :mod:`repro.serve.wire` pickles each distinct
label once.  With ``certify=True`` a rejected instance's witness is
extracted in the same task that solved it.  Every answer, on every path,
leaves through one builder, :func:`_result`.

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
from .core.indexed import IndexedEnsemble, _component_ensemble, _split
from .core.solver import _check_kernel
from .ensemble import Ensemble
from .incremental.cache import CacheFront
from .obs.trace import NULL_TRACER, current_tracer, use_tracer
from .tutte.decomposition import resolve_engine

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
    #: with ``certify=True``: the property a realized instance's certificate
    #: asserts, ``"consecutive"`` or ``"circular"``; ``""`` otherwise
    kind: str = ""
    #: with ``certify=True``: a rejected instance's checkable
    #: ``TuckerWitness``; ``None`` otherwise
    witness: object | None = None
    #: what happened to component splitting for this instance:
    #: ``"components"`` (linear instance, split applied — ``parts`` counts the
    #: pieces) or ``"circular-skip"`` (a circular instance is *never* split:
    #: dropping trivial and full columns preserves only linear layouts, and
    #: the cycle solver's own column normalisation decides which columns are
    #: trivial); a cache-fronted call, serial or pooled, records ``"cache"``
    #: and a delta stream ``"delta"``: both solve whole instances
    split: str = ""

    @property
    def certificate(self):
        """With ``certify=True``: an ``OrderCertificate`` for a realized
        instance, its ``TuckerWitness`` for a rejected one; ``None`` otherwise.

        A realized instance's certificate is built from ``order`` on each
        access and not kept, so a held answer stores its layout once.
        """
        if self.order is None:
            return self.witness
        if not self.kind:
            return None
        from .certify.certificates import OrderCertificate

        return OrderCertificate(self.kind, tuple(self.order))

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
        certificate = self.certificate
        return {
            "index": self.index,
            "ok": self.ok,
            "status": self.status,
            "order": None if self.order is None else [key(a) for a in self.order],
            "num_atoms": self.num_atoms,
            "num_columns": self.num_columns,
            "parts": self.parts,
            "split": self.split,
            "certificate": None if certificate is None else certificate.to_json(),
        }


def _json_label(label):
    """Default ``summary`` coercion: JSON-native labels as-is, else ``str``."""
    if label is None or isinstance(label, (str, int, float, bool)):
        return label
    return str(label)


# ---------------------------------------------------------------------- #
# the per-instance routine (shared with repro.serve's workers)
# ---------------------------------------------------------------------- #
def _linear_parts(instance: IndexedEnsemble) -> list[tuple[IndexedEnsemble, list | None]]:
    """Step 1 of Fig. 3 on a linear instance, once, at mask level.

    Columns of size <= 1, full columns and later duplicates are dropped
    (the kernel's own ``effective_masks``): they are consecutive in every
    layout, and keeping them would glue unrelated components together.
    Each connected component of the rest (the kernel's top-level split,
    ``core.indexed._split``) becomes one part, re-densified over its own
    columns, so concatenating the part layouts in component order realizes
    the instance; a connected instance is one part over its effective
    columns.  A part comes with the input index of each of its columns,
    the first copy of a duplicate, which re-indexes a witness found on the
    part to the instance's columns.  An instance without atoms is one part,
    itself, with ``None`` for the indices.
    """
    if not instance.num_atoms:
        return [(instance, None)]
    first: dict[int, int] = {}
    for i, mask in enumerate(instance.masks):
        first.setdefault(mask, i)
    effective = instance.effective_masks()
    parts = []
    for members, cols in _split(instance.universe_mask, effective):
        masks = [effective[j] for j in cols]
        rows = [first[mask] for mask in masks]
        part = _component_ensemble(
            members,
            masks,
            [instance.atoms[i] for i in members],
            [instance.column_names[i] for i in rows],
        )
        parts.append((part, rows))
    return parts


def _split_mode(circular: bool, cache=None) -> str:
    """The :attr:`BatchResult.split` value of a call; the pool shares it, so
    serial and pool summaries agree byte for byte."""
    if cache is not None:
        return "cache"
    return "circular-skip" if circular else "components"


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
    certify: bool = False,
    pool=None,
    trace=None,
    cache=None,
    incremental: bool = False,
) -> list[BatchResult]:
    """Solve every ensemble, optionally fanning work out over processes.

    A linear instance is split into its connected components, which are
    solved in component order and their layouts concatenated; the first
    rejecting component decides the instance and the rest are not solved.
    The split runs where the instance is solved — in the pool worker when
    there is one — so ``BatchResult.parts`` counts components, not pool
    tasks.  Circular instances are never split (component structure only
    emerges after the solver's column normalisation), which is recorded as
    ``BatchResult.split == "circular-skip"``; see
    :func:`repro.pram.costmodel.batch_split_savings` for the cost-model
    view of what the skip forgoes.

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
        runs serially; fan-out *within* one instance is
        ``path_realization(parallel=N)`` / :class:`repro.parallel.ParallelSolver`.
    kernel:
        Execution engine per instance, as in :func:`repro.core.path_realization`.
    engine:
        Tutte decomposition engine per instance ("spqr" / "splitpair" /
        ``None`` for the default); carried inside each task so pool workers
        honour the selection too.
    certify:
        Attach a certificate to every result: an ``OrderCertificate`` for
        realized instances and a checkable ``TuckerWitness`` for rejected
        ones.  A rejected split instance extracts its witness from the
        rejecting component — reusing the narrowing the solve already
        computed — and the witness rows are re-indexed so they refer to
        the input columns.  The extraction runs in the same task as the
        solve, in-process or on the pool worker alike.
    pool:
        A warm :class:`repro.serve.ServePool`.  When given, every instance
        is dispatched through the persistent workers over the packed
        shared-memory wire format, one task per instance, and ``processes``
        is ignored.  Results are identical, in the same order.
    trace:
        A :class:`repro.obs.Tracer` recording phase spans for the batch, on
        every path: serially, and through the worker processes of
        ``processes=`` and ``pool=``, whose worker-side spans are stitched
        back under their dispatch spans.
    cache:
        A :class:`repro.incremental.ResultCache`: relabeled duplicate
        instances are answered from the store instead of re-solved.  No
        pool is needed: serial and pool calls run the same cache front;
        see :meth:`repro.serve.ServePool.solve_stream`.
    incremental:
        Delta mode — ``ensembles`` is then an iterable of session deltas
        (``("open", n)`` / ``("add", columns)`` / ``("remove", columns)``)
        driven through one worker-pinned PQ-tree session.  Requires
        ``pool=``; mutually exclusive with ``cache=``.

    Returns
    -------
    One :class:`BatchResult` per input ensemble, in input order.
    """
    if incremental and pool is None:
        raise ValueError(
            "incremental= is a serving-layer feature: pass a warm "
            "repro.serve.ServePool via pool= (or use "
            "repro.incremental.IncrementalSolver in-process)"
        )
    transient = None
    if pool is None:
        instances = list(ensembles)
        workers = _resolve_workers(processes, len(instances))
        ambient = trace if trace is not None else current_tracer()
        if workers < 2:
            split = _split_mode(circular, cache)
            front = CacheFront(
                cache, circular=circular, certify=certify, kernel=kernel, engine=engine
            )
            results = []
            with use_tracer(ambient):
                for index, ensemble in enumerate(instances):
                    # Serially a leader settles before the next request is
                    # admitted, so nothing coalesces: one answer per request.
                    instance, ready = front.admit(index, ensemble)
                    if instance is not None:
                        ready = front.settle(index, _solve_instance(
                            IndexedEnsemble.from_ensemble(instance),
                            split, circular, kernel, engine, certify,
                        ))
                    ((_, raw),) = ready
                    results.append(_result(
                        index, raw, ensemble.num_atoms, ensemble.num_columns,
                        split, circular, certify,
                    ))
            return results
        from .serve.pool import ServePool

        ensembles = instances
        with use_tracer(ambient):
            pool = transient = ServePool(workers)
    try:
        return pool.solve_many(
            ensembles,
            circular=circular,
            kernel=kernel,
            engine=engine,
            certify=certify,
            trace=trace,
            cache=cache,
            incremental=incremental,
        )
    finally:
        if transient is not None:
            transient.close()


def _solve_instance(
    instance: IndexedEnsemble,
    split: str,
    circular: bool,
    kernel: str,
    engine: str | None,
    certify: bool,
    *,
    span_prefix: str | None = None,
) -> tuple[list | None, dict | None, int]:
    """Solve one instance of :func:`solve_many`: split, solve, certify.

    Serial ``solve_many`` and the pool worker's handler both run this, so
    a pool result is the serial result by construction.

    1. With ``split == "components"`` the instance is split into the parts
       of its connected components (:func:`_linear_parts`); otherwise it
       is one part, the whole instance.
    2. The parts are solved in component order (:func:`_solve_part`) and
       their layouts concatenated.  The first rejection decides the
       instance, so the parts after it are not solved.
    3. With ``certify``, a rejected instance's witness is extracted from
       the rejecting part and its rows re-indexed to the instance's
       columns.

    Returns the raw answer ``(order, witness_json, parts)`` that every
    exit hands to :func:`_result`: the layout or ``None``, the JSON payload
    of a certified rejection's ``TuckerWitness`` (else ``None``) and the
    number of parts.  ``span_prefix`` traces the solve and the extraction as
    ``<prefix>.solve`` / ``<prefix>.certify`` spans of the ambient tracer.
    An unknown ``kernel`` or ``engine`` raises ``ValueError`` first.
    """
    _check_kernel(kernel)
    resolve_engine(engine)
    parts = _linear_parts(instance) if split == "components" else [(instance, None)]
    tracer = current_tracer() if span_prefix else NULL_TRACER
    order: list | None = []
    with tracer.span(
        f"{span_prefix}.solve", n=instance.num_atoms, m=instance.num_columns
    ):
        for part, rows in parts:
            piece = _solve_part(part, circular, kernel, engine)
            if piece is None:
                order = None
                break
            order.extend(piece)
    if not certify or order is not None:
        return order, None, len(parts)
    from .certify.witness import extract_tucker_witness

    # ``part`` is the one that rejected; ``rows`` its columns' input indices.
    with tracer.span(f"{span_prefix}.certify", n=part.num_atoms, m=part.num_columns):
        witness = extract_tucker_witness(
            part.to_ensemble(),
            kernel=kernel,
            engine=engine,
            circular=circular,
            assume_rejected=True,
        )
    if rows is not None:
        witness = replace(
            witness, row_indices=tuple(rows[j] for j in witness.row_indices)
        )
    return None, witness.to_json(), len(parts)


def _solve_part(part: IndexedEnsemble, circular, kernel, engine) -> list | None:
    """One part's layout; the reference kernel solves its label-level copy."""
    if kernel == "indexed":
        return (part.solve_cycle if circular else part.solve_path)(engine=engine)
    realize = cycle_realization if circular else path_realization
    return realize(part.to_ensemble(), kernel=kernel, engine=engine)


def _result(
    index, raw, num_atoms, num_columns, split, circular, certify
) -> BatchResult:
    """The one builder of a :class:`BatchResult`, for every exit.

    ``raw`` is ``(order, witness_json, parts)`` as :func:`_solve_instance`
    returns it.  With ``certify`` a realized instance records the kind of
    its ``OrderCertificate`` (built from the layout on access), a rejected
    one its witness.
    """
    order, witness_json, parts = raw
    witness = None
    if certify and witness_json is not None:
        from .certify.certificates import certificate_from_json

        witness = certificate_from_json(witness_json)
    return BatchResult(
        index=index,
        order=None if order is None else list(order),
        num_atoms=num_atoms,
        num_columns=num_columns,
        parts=parts,
        status="realized" if order is not None else "rejected",
        kind=("circular" if circular else "consecutive") if certify else "",
        witness=witness,
        split=split,
    )
