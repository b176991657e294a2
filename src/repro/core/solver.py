"""The Path-Realization / Cycle-Realization drivers (Fig. 3).

``path_realization`` decides the consecutive-ones property of an ensemble and
returns a realizing atom order; ``cycle_realization`` does the same for the
circular-ones property.  Both follow the paper's divide-and-conquer scheme:

1. trivial columns are dropped and connected components are solved
   independently (Step 1);
2. the atom set is partitioned into a segment ``A1`` and the rest ``A2``
   (Section 3.2): a proper-size column (Case 1), a connected collection of
   small columns (Case 2a), or — when only big columns prevent a balanced
   split — the Tucker transform reduces the problem to a circular-ones
   instance which is solved and cut at the new atom ``r`` (Case 2b);
3. the sub-ensembles are solved recursively (Step 2);
4. the two realizations are aligned with Whitney switches over their Tutte
   decompositions and merged (Steps 3–7, via :mod:`repro.core.merge`).

The returned order is always verified against every column before being
handed back, so a non-``None`` result is guaranteed correct; ``None`` means
the ensemble does not have the property.

Two interchangeable execution engines are exposed through the ``kernel``
keyword of the public functions:

* ``"indexed"`` (the default) compiles the ensemble once into an
  :class:`~repro.core.indexed.IndexedEnsemble` — dense integer atoms, bitmask
  columns — and runs the recursion entirely in mask space
  (:mod:`repro.core.indexed`), avoiding per-node container revalidation;
* ``"reference"`` runs the original label-level recursion below, which stays
  the executable specification the kernel is verified against.

Orthogonally, the ``engine`` keyword selects how the combine step's Tutte
decompositions are built (``"spqr"``, the near-linear palm-tree engine, or
``"splitpair"``, the polynomial reference search); ``None`` defers to
:data:`repro.tutte.decomposition.DEFAULT_ENGINE`.  Both engines produce the
identical canonical decomposition, so the kernel/engine grid is a pure
performance choice.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from ..ensemble import (
    Ensemble,
    verify_circular_layout,
    verify_linear_layout,
)
from .instrument import SolverStats
from .merge import merge_cycle, merge_path
from .partition import choose_partition
from ..obs.trace import Tracer, current_tracer, use_tracer

Atom = Hashable

__all__ = [
    "path_realization",
    "cycle_realization",
    "find_consecutive_ones_order",
    "find_circular_ones_order",
    "has_consecutive_ones",
    "has_circular_ones",
    "KERNELS",
    "ENGINES",
]

#: the recognised values of the public ``kernel`` keyword
KERNELS = ("indexed", "reference")

# re-exported for convenience: the recognised decomposition engines
from ..tutte.decomposition import ENGINES, resolve_engine as _resolve_engine


def _check_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


def _check_parallel(parallel: int | None) -> None:
    if parallel is None:
        return
    if isinstance(parallel, bool) or not isinstance(parallel, int) or parallel < 1:
        raise ValueError(
            f"parallel must be a positive worker count or None, got {parallel!r}"
        )


class _TransformAtom:
    """A fresh atom object used by the Tucker transform (never equal to user atoms)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<r>"


class _SplitAtom:
    """A fresh atom standing for the split vertex ``w`` of GAP condition (2).

    The combine step needs a realization of ``(A2, C2)`` together with a
    split vertex at which every crossing column is anchored.  Solving the
    sub-ensemble augmented with this marker atom (each crossing column's
    ``A2``-part extended by it) yields both at once; this is the "one new
    atom per subproblem per level" the paper's Section 5 accounting already
    allows for.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<w>"


def _effective_columns(ensemble: Ensemble) -> list[frozenset]:
    """Columns that actually constrain a layout: size >= 2, not the full set,
    one representative per distinct set."""
    full = frozenset(ensemble.atoms)
    seen: set[frozenset] = set()
    out: list[frozenset] = []
    for col in ensemble.columns:
        if len(col) <= 1 or col == full or col in seen:
            continue
        seen.add(col)
        out.append(col)
    return out


# ---------------------------------------------------------------------- #
# path realization
# ---------------------------------------------------------------------- #
def path_realization(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    kernel: str = "indexed",
    engine: str | None = None,
    certify: bool = False,
    parallel: int | None = None,
    trace: Tracer | None = None,
) -> list[Atom] | None:
    """A consecutive-ones layout of ``ensemble``, or ``None`` if none exists.

    With ``certify=True`` the return value is a
    :class:`~repro.certify.CertifiedResult` instead: the layout plus an
    ``OrderCertificate`` on acceptance, or ``None`` plus a checkable
    ``TuckerWitness`` on rejection (see :mod:`repro.certify`).

    ``parallel=N`` (N >= 2) executes the indexed kernel's top-level divide
    with N real worker processes, one pool task per component
    (:mod:`repro.parallel`); the layout is byte-for-byte the serial
    kernel's.  Small instances fall back to the serial kernel below a
    cost-model cutoff, and ``kernel="reference"`` always runs serially
    (the reference recursion's frozenset iteration order is not stable
    across process boundaries — see DESIGN.md, Substitution 7).

    ``trace=`` installs a :class:`repro.obs.Tracer` as the ambient tracer
    for the solve: phase spans (``solve.path``, ``tutte.build``,
    ``merge.verify``, …) are recorded into it, including worker-side
    spans stitched back from parallel executions.  ``None`` (the
    default) inherits whatever tracer :func:`repro.obs.use_tracer` has
    installed — usually none, which costs nothing.
    """
    _check_kernel(kernel)
    _resolve_engine(engine)
    _check_parallel(parallel)
    if certify:
        from ..certify.api import certified_path_realization

        return certified_path_realization(
            ensemble, stats, kernel=kernel, engine=engine, parallel=parallel,
            trace=trace,
        )
    tracer = trace if trace is not None else current_tracer()
    with use_tracer(tracer):
        if parallel is not None and parallel > 1 and kernel == "indexed":
            from ..parallel.solver import ParallelSolver

            with ParallelSolver(parallel) as solver:
                return solver.solve_path(ensemble, stats, engine=engine)
        if kernel == "indexed":
            from .indexed import IndexedEnsemble

            return IndexedEnsemble.from_ensemble(ensemble).solve_path(
                stats, engine=engine
            )
        return _path_realization_reference(ensemble, stats, engine=engine)


def _path_realization_reference(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    engine: str | None = None,
    _depth: int = 0,
) -> list[Atom] | None:
    """The label-level reference recursion (the seed implementation)."""
    atoms = list(ensemble.atoms)
    n = len(atoms)
    if stats is not None:
        stats.enter(_depth, n, ensemble.num_columns, ensemble.total_size)

    if n <= 2:
        return atoms

    columns = _effective_columns(ensemble)
    if not columns:
        return atoms

    # Solve connected components independently and concatenate.
    working = Ensemble(tuple(atoms), tuple(columns))
    components = working.components()
    if len(components) > 1:
        if stats is not None:
            stats.record_case("components")
        order: list[Atom] = []
        for comp in components:
            sub = working.restrict(comp)
            sub_order = _path_realization_reference(
                sub, stats, engine=engine, _depth=_depth + 1
            )
            if sub_order is None:
                return None
            order.extend(sub_order)
        return order

    decision = choose_partition(atoms, columns)
    if stats is not None:
        stats.record_case(decision.case or decision.kind)

    if decision.kind == "circular":
        # Case 2b: Tucker transform and circular solve (Section 3.2).
        r = _TransformAtom()
        transformed = working.tucker_transform(r)
        circ = _cycle_realization_reference(
            transformed, stats, engine=engine, _depth=_depth + 1
        )
        if circ is None:
            return None
        idx = circ.index(r)
        linear = list(circ[idx + 1 :]) + list(circ[:idx])
        if verify_linear_layout(working, linear):
            return linear
        return None

    a1 = decision.segment
    a2 = frozenset(atoms) - a1
    if stats is not None:
        stats.record_split(n, len(a1))

    sub1 = working.restrict(a1)
    order1 = _path_realization_reference(sub1, stats, engine=engine, _depth=_depth + 1)
    if order1 is None:
        return None

    # Side 2 is solved together with the split-marker atom x standing for the
    # split vertex w of GAP condition (2):
    #   * a type-b crossing column keeps its A2-part and additionally requires
    #     the part plus x to be contiguous (anchored at w),
    #   * a type-a crossing column (one containing all of A1) only requires
    #     its part plus x to be contiguous — the part itself may be split by
    #     the inserted segment (it must span or touch w),
    #   * non-crossing columns inside A2 are kept as they are (they must not
    #     be split by x, i.e. must not span w).
    # A realization of this augmented sub-ensemble therefore encodes both an
    # order of A2 and a feasible split vertex; if it is not path graphic, no
    # such pair exists and (by Theorem 4) neither is (A, C).
    sub2 = working.restrict(a2)
    x = _SplitAtom()
    augmented_columns: list[frozenset] = []
    for col in columns:
        part = col & a2
        if not part:
            continue
        if not (col & a1):
            augmented_columns.append(frozenset(part))
        elif a1 <= col:
            if part != a2:
                augmented_columns.append(frozenset(part | {x}))
        else:
            augmented_columns.append(frozenset(part))
            if part != a2:
                augmented_columns.append(frozenset(part | {x}))
    sub2_aug = Ensemble(sub2.atoms + (x,), tuple(augmented_columns))
    order2_aug = _path_realization_reference(
        sub2_aug, stats, engine=engine, _depth=_depth + 1
    )
    if order2_aug is None:
        return None

    merged = merge_path(order1, order2_aug, x, columns, stats=stats, engine=engine)
    if merged is None:
        return None
    if not verify_linear_layout(working, merged):  # pragma: no cover - safety net
        return None
    return merged


# ---------------------------------------------------------------------- #
# cycle realization
# ---------------------------------------------------------------------- #
def cycle_realization(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    kernel: str = "indexed",
    engine: str | None = None,
    certify: bool = False,
    parallel: int | None = None,
    trace: Tracer | None = None,
) -> list[Atom] | None:
    """A circular-ones layout of ``ensemble``, or ``None`` if none exists.

    With ``certify=True`` the return value is a
    :class:`~repro.certify.CertifiedResult` carrying an ``OrderCertificate``
    or a pivot-complemented ``TuckerWitness`` (see :mod:`repro.certify`).

    ``parallel=N`` fans the post-normalisation components out across real
    worker processes exactly as in :func:`path_realization`; the same
    serial fallbacks apply.  ``trace=`` installs an ambient
    :class:`repro.obs.Tracer` exactly as in :func:`path_realization`.
    """
    _check_kernel(kernel)
    _resolve_engine(engine)
    _check_parallel(parallel)
    if certify:
        from ..certify.api import certified_cycle_realization

        return certified_cycle_realization(
            ensemble, stats, kernel=kernel, engine=engine, parallel=parallel,
            trace=trace,
        )
    tracer = trace if trace is not None else current_tracer()
    with use_tracer(tracer):
        if parallel is not None and parallel > 1 and kernel == "indexed":
            from ..parallel.solver import ParallelSolver

            with ParallelSolver(parallel) as solver:
                return solver.solve_cycle(ensemble, stats, engine=engine)
        if kernel == "indexed":
            from .indexed import IndexedEnsemble

            return IndexedEnsemble.from_ensemble(ensemble).solve_cycle(
                stats, engine=engine
            )
        return _cycle_realization_reference(ensemble, stats, engine=engine)


def _cycle_realization_reference(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    engine: str | None = None,
    _depth: int = 0,
) -> list[Atom] | None:
    """The label-level reference recursion (the seed implementation)."""
    atoms = list(ensemble.atoms)
    n = len(atoms)
    if stats is not None:
        stats.enter(_depth, n, ensemble.num_columns, ensemble.total_size)

    if n <= 3:
        return atoms

    # Complementing a column does not change circular contiguity; normalising
    # every column to at most half the atoms guarantees that the divide step
    # below never needs a further transform.
    full = set(atoms)
    normalised: list[frozenset] = []
    seen: set[frozenset] = set()
    for col in ensemble.columns:
        c = frozenset(col)
        if 2 * len(c) > n:
            c = frozenset(full - c)
        if len(c) <= 1 or c in seen:
            continue
        seen.add(c)
        normalised.append(c)
    if not normalised:
        return atoms

    working = Ensemble(tuple(atoms), tuple(normalised))
    components = working.components()
    if len(components) > 1:
        # With two or more independent parts, every part must be realizable on
        # a path: a part needing the full cycle would leave no uncovered gap
        # to host the other parts' atoms.
        if stats is not None:
            stats.record_case("cycle-components")
        order: list[Atom] = []
        for comp in components:
            sub = working.restrict(comp)
            sub_order = _path_realization_reference(
                sub, stats, engine=engine, _depth=_depth + 1
            )
            if sub_order is None:
                return None
            order.extend(sub_order)
        return order

    decision = choose_partition(atoms, normalised)
    if stats is not None:
        stats.record_case("cycle-" + (decision.case or decision.kind))
    if decision.kind == "circular":  # pragma: no cover - defensive
        # Cannot happen: all columns have at most n/2 atoms after
        # normalisation, so either a proper-size column or a connected
        # collection exists for a connected ensemble.
        return None

    a1 = decision.segment
    a2 = frozenset(atoms) - a1
    if stats is not None:
        stats.record_split(n, len(a1))

    sub1 = working.restrict(a1)
    sub2 = working.restrict(a2)
    order1 = _path_realization_reference(sub1, stats, engine=engine, _depth=_depth + 1)
    if order1 is None:
        return None
    order2 = _path_realization_reference(sub2, stats, engine=engine, _depth=_depth + 1)
    if order2 is None:
        return None

    merged = merge_cycle(order1, order2, normalised, stats=stats, engine=engine)
    if merged is None:
        return None
    if not verify_circular_layout(working, merged):  # pragma: no cover - safety net
        return None
    return merged


# ---------------------------------------------------------------------- #
# convenience wrappers
# ---------------------------------------------------------------------- #
def find_consecutive_ones_order(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    kernel: str = "indexed",
    engine: str | None = None,
    certify: bool = False,
    parallel: int | None = None,
    trace: Tracer | None = None,
) -> list[Atom] | None:
    """Alias of :func:`path_realization` (kept for API symmetry)."""
    return path_realization(
        ensemble, stats, kernel=kernel, engine=engine, certify=certify,
        parallel=parallel, trace=trace,
    )


def find_circular_ones_order(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    kernel: str = "indexed",
    engine: str | None = None,
    certify: bool = False,
    parallel: int | None = None,
    trace: Tracer | None = None,
) -> list[Atom] | None:
    """Alias of :func:`cycle_realization`."""
    return cycle_realization(
        ensemble, stats, kernel=kernel, engine=engine, certify=certify,
        parallel=parallel, trace=trace,
    )


def has_consecutive_ones(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    kernel: str = "indexed",
    engine: str | None = None,
    parallel: int | None = None,
) -> bool:
    """Decision version of the consecutive-ones property."""
    return (
        path_realization(ensemble, stats, kernel=kernel, engine=engine, parallel=parallel)
        is not None
    )


def has_circular_ones(
    ensemble: Ensemble,
    stats: SolverStats | None = None,
    *,
    kernel: str = "indexed",
    engine: str | None = None,
    parallel: int | None = None,
) -> bool:
    """Decision version of the circular-ones property."""
    return (
        cycle_realization(ensemble, stats, kernel=kernel, engine=engine, parallel=parallel)
        is not None
    )
