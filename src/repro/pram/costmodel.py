"""Analytical cost model: Theorem 9 and the Section 1.3 comparisons.

Quantities
----------
For an instance with ``n`` atoms, ``m`` columns and ``p`` ones:

* the paper's algorithm (Theorem 9): parallel time ``O(log^2 n)`` using
  ``p·loglog n / log n`` processors, improvable to ``p / log n`` for dense
  instances (density factor ``f = nm/p <= log n / loglog n``);
* the parallel Tutte decomposition of Fussell, Ramachandran and Thurimella
  used in Step 3: ``O(log n)`` time with ``(m+n)·loglog n / log n``
  processors (on the realization graph, where ``m`` counts its edges);
* Klein's PQ-tree based algorithm [13]: ``O(log^2 n)`` time with linearly
  many (``n·m``-ish, "linearly many" in the paper's wording — we charge
  ``n + nm``) processors;
* Chen and Yesha [7]: ``O(log m + log^2 n)`` time with ``O(n^2 m + n^3)``
  processors.

The functions below return concrete numbers with all hidden constants set to
one, which is the convention used throughout EXPERIMENTS.md: the reproduction
compares *shapes and ratios*, not absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "log2",
    "loglog",
    "fussell_tutte_depth",
    "fussell_tutte_processors",
    "sequential_tutte_query_work",
    "sequential_tutte_build_work",
    "sequential_solve_work",
    "merge_verify_work",
    "certify_narrowing_tests",
    "certify_work",
    "wire_dispatch_bytes",
    "pool_startup_work",
    "serve_fleet_dispatch_work",
    "parallel_fanout_worthwhile",
    "batch_split_savings",
    "paper_depth_bound",
    "paper_processor_bound",
    "paper_processor_bound_dense",
    "density_factor",
    "klein_processors",
    "chen_yesha_processors",
    "chen_yesha_depth",
    "PriorWorkRow",
    "prior_work_comparison",
]


def log2(x: float) -> float:
    """``log2`` clamped below at 1 so ratios never divide by zero."""
    return max(1.0, math.log2(max(2.0, float(x))))


def loglog(x: float) -> float:
    """``log2 log2`` clamped below at 1."""
    return max(1.0, math.log2(log2(x)))


# ---------------------------------------------------------------------- #
# the substrate charge: parallel Tutte decomposition (Fussell et al.)
# ---------------------------------------------------------------------- #
def fussell_tutte_depth(n: int) -> int:
    """Depth charged for one parallel Tutte decomposition: ``O(log n)``."""
    return int(math.ceil(log2(n)))


def fussell_tutte_processors(n: int, m: int) -> int:
    """Processors charged: ``(m + n)·loglog n / log n``."""
    return max(1, int(math.ceil((m + n) * loglog(n) / log2(n))))


# ---------------------------------------------------------------------- #
# the *sequential* substrate actually run by this reproduction
# ---------------------------------------------------------------------- #
def sequential_tutte_query_work(n: int, m: int, engine: str = "spqr") -> int:
    """Work charged for one 2-separation location query (constants one).

    The ``"spqr"`` engine (palm-tree DFS + lowpoint rules,
    :mod:`repro.graph.spqr`) answers a query in ``O(n + m)``; the
    ``"splitpair"`` reference search probes every vertex and recomputes
    articulation points, ``O(n(n+m))`` (see :mod:`repro.graph.separation`).
    These are the numbers the sequential-scaling benchmark compares against
    the measured decomposition-build times.
    """
    if engine == "spqr":
        return max(1, n + m)
    if engine == "splitpair":
        return max(1, n * (n + m))
    raise ValueError(f"unknown decomposition engine {engine!r}")


def sequential_tutte_build_work(n: int, m: int, engine: str = "spqr") -> int:
    """Work charged for one full decomposition build (``O(m)`` queries).

    A build performs one location query per simple decomposition plus the
    final confirmations; the number of simple decompositions is bounded by
    the number of members, i.e. ``O(m)``.
    """
    return max(1, m) * sequential_tutte_query_work(n, m, engine)


def sequential_solve_work(p: int) -> int:
    """Work charged for one sequential solve: ``p·log p`` (constants one).

    The paper's sequential bound on an instance with ``p`` ones — the
    unit every other charge in this module is compared against, and the
    analytic counterpart of the measured ``solve.path``/``solve.cycle``
    spans in :mod:`repro.obs.calibrate`.
    """
    return max(1, int(math.ceil(max(1, p) * log2(max(2, p)))))


def merge_verify_work(p: int) -> int:
    """Work charged for one verified pairwise merge over ``p`` ones.

    A merge re-verifies every placed column against the candidate layout
    once — linear in the total size of the two sides (constants one).
    The measured counterpart is the ``merge.verify`` span.
    """
    return max(1, p)


# ---------------------------------------------------------------------- #
# certification: witness-extraction work (DESIGN.md, Substitution 4)
# ---------------------------------------------------------------------- #
def certify_narrowing_tests(length: int, witness: int) -> int:
    """Narrowing re-solves charged along one axis (rows or atoms).

    The greedy chunked deletion schedule runs ``log2(length)`` chunk levels;
    at each level every one of the ``witness`` surviving obstruction items
    can refuse at most one deletion, and committed deletions shrink the list
    geometrically — so we charge ``(witness + 1)·(log2(length) + 1)`` tests
    (constants one, matching the conventions of this module).
    """
    return max(1, int(math.ceil((witness + 1) * (log2(max(2, length)) + 1))))


def certify_work(
    n: int,
    m: int,
    p: int,
    *,
    witness_rows: int = 8,
    witness_atoms: int = 8,
) -> int:
    """Sequential work charged for one Tucker-witness extraction.

    ``n``/``m``/``p`` are the rejected instance's atoms/columns/ones.  Each
    narrowing test re-solves a shrunken instance, charged at the paper's
    sequential ``O(p log p)`` bound; the test count follows
    :func:`certify_narrowing_tests` for the row pass (over ``m`` columns)
    plus the atom pass (over ``n`` atoms).  ``witness_rows``/``witness_atoms``
    are the expected obstruction size (Tucker families are ``O(k)``-sized;
    the defaults cover every ``k <= 5`` family).

    This is the number the ``bench_certify_overhead`` gate compares measured
    certified-rejection overhead against: the charge is a small multiple of
    one solve, not one solve per row.
    """
    tests = certify_narrowing_tests(m, witness_rows) + certify_narrowing_tests(
        n, witness_atoms
    )
    return tests * sequential_solve_work(p)


# ---------------------------------------------------------------------- #
# serving-layer dispatch costs (repro.serve; DESIGN.md, Substitution 5)
# ---------------------------------------------------------------------- #
#: per-worker charge for cold-starting an executor, in the same
#: constants-one "work units" as the solve charges.  Calibrated to the
#: observation that forking + importing a worker costs on the order of one
#: medium solve, which is why cold pools lose on fleets of small instances.
_POOL_SPAWN_UNITS = 1024

#: per-task charge for one warm pool round trip (pack, segment, queue,
#: result pipe, wake-ups).  On a 2-CPU host a round trip took 0.35–0.56 ms
#: and serial solves of 16-atom instances and of 300-atom live-set
#: components 2–3 µs per unit, so a round trip is worth 110–270 units.
_POOL_TASK_UNITS = 256


def wire_dispatch_bytes(n: int, m: int, label_bytes: int = 0) -> int:
    """Bytes shipped per task by the packed shared-memory wire format.

    Mirrors :func:`repro.serve.wire.packed_size` symbolically: a fixed
    28-byte header plus ``m`` contiguous ``ceil(n/8)``-byte column masks
    plus the interned label table (``0`` for int-labelled fleets, which
    need no table at all).
    """
    return 28 + m * ((n + 7) // 8) + max(0, label_bytes)


def pool_startup_work(workers: int, *, cold: bool = True) -> int:
    """Work charged for bringing a pool's workers up (``0`` once warm)."""
    if not cold:
        return 0
    return max(1, workers) * _POOL_SPAWN_UNITS


def serve_fleet_dispatch_work(
    instances: int,
    n: int,
    m: int,
    p: int,
    *,
    workers: int = 1,
    cold: bool = False,
    label_bytes: int = 0,
) -> int:
    """Total dispatch-side work for a fleet, excluding the solves themselves.

    Every task ships its packed wire payload (:func:`wire_dispatch_bytes`)
    through a shared-memory segment, the :class:`repro.serve.ServePool`
    path, so the instance's ``p`` ones do not enter the charge; ``cold``
    adds the pool-startup charge, paid once per transient pool.  Bytes are
    converted to work at one unit per 8-byte word, so the result is
    comparable with :func:`certify_work` and the solve charges when
    modelling where a serving profile's time goes.
    """
    per_task = wire_dispatch_bytes(n, m, label_bytes)
    return pool_startup_work(workers, cold=cold) + max(0, instances) * (
        (per_task + 7) // 8
    )


# ---------------------------------------------------------------------- #
# intra-instance parallel fan-out (repro.parallel; DESIGN.md, Substitution 7)
# ---------------------------------------------------------------------- #
def parallel_fanout_worthwhile(
    p: int,
    *,
    workers: int,
    tasks: int,
    cold: bool = True,
) -> bool:
    """Whether fanning one instance's components across real workers pays.

    :class:`repro.parallel.ParallelSolver` asks once per solve, after its
    parent-side split has counted the components of the top-level column
    list (``p`` ones in all) that become pool ``tasks`` — those with more
    than two atoms and at least one column; the rest are laid out inline —
    and before it spawns or submits anything; ``cold`` is true while it
    has no workers.  A wave of fewer than two tasks is declined outright:
    one task is a pure round trip.  The saving is the fraction of the
    sequential solve charge (``p·log p``, the paper's sequential bound with
    constants one) that disappears when ``min(workers, tasks)`` sub-solves
    run concurrently; the cost is the pool startup charge (``0`` once
    warm) plus one pool round trip per task (:data:`_POOL_TASK_UNITS`).

    This is deliberately conservative — below the cutoff the serial
    kernel runs unchanged, so a false negative costs only the speedup,
    never correctness.
    """
    if workers < 2 or tasks < 2:
        return False
    saved = sequential_solve_work(p) * (1.0 - 1.0 / min(workers, tasks))
    overhead = pool_startup_work(workers, cold=cold) + tasks * _POOL_TASK_UNITS
    return saved > overhead


def batch_split_savings(
    n: int, m: int, p: int, *, components: int, circular: bool = False
) -> float:
    """Fraction of the sequential solve charge saved by batch splitting.

    The batch layer (:func:`repro.batch.solve_many`) splits *linear*
    instances into connected components where it solves them — in-process
    or inside the one pool task that carries the instance; with ``k``
    components of roughly equal weight the per-instance charge drops from
    ``p·log p`` to ``p·log(p/k)``, a saving of
    ``1 - log(p/k)/log(p)``.

    Circular instances are **never** split by the batch layer — dropping
    trivial and full columns preserves only linear layouts, and the cycle
    solver's own column normalisation decides which columns are trivial
    (``BatchResult.split == "circular-skip"``) — so the saving is exactly
    ``0.0`` and cost models must not claim split savings for circular
    batches.
    """
    if circular or components <= 1 or p <= 1:
        return 0.0
    per_comp = max(2.0, p / components)
    return max(0.0, 1.0 - log2(per_comp) / log2(max(2, p)))


# ---------------------------------------------------------------------- #
# Theorem 9 bounds
# ---------------------------------------------------------------------- #
def paper_depth_bound(n: int) -> float:
    """``log^2 n`` — the parallel time bound of Theorem 9 (constant 1)."""
    return log2(n) ** 2


def paper_processor_bound(n: int, p: int) -> float:
    """``p·loglog n / log n`` — the processor bound of Theorem 9."""
    return max(1.0, p * loglog(n) / log2(n))


def density_factor(n: int, m: int, p: int) -> float:
    """``f = nm / p`` — the paper's density factor (Section 5)."""
    return (n * m) / max(1, p)


def paper_processor_bound_dense(n: int, m: int, p: int) -> float:
    """``p / log n`` when the instance is dense enough (f <= log n / loglog n)."""
    return max(1.0, p / log2(n))


# ---------------------------------------------------------------------- #
# prior parallel algorithms (Section 1.3)
# ---------------------------------------------------------------------- #
def klein_processors(n: int, m: int) -> float:
    """Klein [13]: ``O(log^2 n)`` time with linearly many processors.

    "Linearly many" refers to the size of the PQ-tree problem, i.e. the
    number of matrix entries; we charge ``n·m + n``.
    """
    return float(n * m + n)


def chen_yesha_processors(n: int, m: int) -> float:
    """Chen & Yesha [7]: ``O(n^2 m + n^3)`` processors."""
    return float(n * n * m + n ** 3)


def chen_yesha_depth(n: int, m: int) -> float:
    """Chen & Yesha [7]: ``O(log m + log^2 n)`` time."""
    return log2(m) + log2(n) ** 2


@dataclass(frozen=True)
class PriorWorkRow:
    """One row of the Section 1.3 comparison table."""

    algorithm: str
    depth: float
    processors: float
    work: float


def prior_work_comparison(n: int, m: int, p: int) -> list[PriorWorkRow]:
    """The Section 1.3 comparison at concrete sizes (constants set to one).

    Returns one row per algorithm: this paper, Klein [13] and Chen–Yesha [7].
    The sequential Booth–Lueker baseline is included with depth equal to its
    work (a sequential algorithm).
    """
    rows = [
        PriorWorkRow(
            "Annexstein-Swaminathan (this paper)",
            paper_depth_bound(n),
            paper_processor_bound(n, p),
            paper_depth_bound(n) * paper_processor_bound(n, p),
        ),
        PriorWorkRow(
            "Klein [13]",
            paper_depth_bound(n),
            klein_processors(n, m),
            paper_depth_bound(n) * klein_processors(n, m),
        ),
        PriorWorkRow(
            "Chen-Yesha [7]",
            chen_yesha_depth(n, m),
            chen_yesha_processors(n, m),
            chen_yesha_depth(n, m) * chen_yesha_processors(n, m),
        ),
        PriorWorkRow(
            "Booth-Lueker (sequential)",
            float(p + n + m),
            1.0,
            float(p + n + m),
        ),
    ]
    return rows
