"""Real intra-instance parallel solve over shared-memory slices.

This module executes the paper's top-level divide with actual worker
processes (:class:`~repro.parallel.executor.SliceExecutor`) instead of the
simulated PRAM of :mod:`repro.pram`:

1. the parent computes the serial kernel's *top-level column list* — the
   effective masks for a path solve, the complement-normalised masks for a
   cycle solve — and splits it into connected components with the
   kernel's own Step 1 (``core.indexed._split``: member lists in the
   kernel's component order, before anything is spawned or packed);
2. with the component count known it asks
   :func:`~repro.pram.costmodel.parallel_fanout_worthwhile` once;
3. it packs the column list once into one shared-memory segment (``C1PW``
   wire format, labels omitted) and sends one wave of ``solve`` tasks, one
   per non-trivial component: the worker re-densifies the component (a
   strictly-increasing index remap, under which every mask comparison the
   kernel makes is invariant), runs the *serial* indexed kernel on it and
   answers in the instance's atom indices;
4. the parent concatenates the layouts in component order and verifies
   the result once: a permutation, every top-level column consecutive.

Because the serial kernel's components branch is itself "solve each
component independently, concatenate in component order" (with no
cross-component merging — components share no columns), the result is
byte-for-byte the serial kernel's, which the differential sweep pins
across kernels, engines and circular mode.

Below the cutoff, with fewer than two components, or for
``kernel="reference"`` (whose frozenset iteration order is not
reproducible across process boundaries), the solve falls back to the
serial kernel unchanged — a cost-model false negative loses speedup,
never correctness (DESIGN.md, Substitution 7).
"""

from __future__ import annotations

from array import array
from typing import Hashable

from ..core.bitset import all_consecutive, is_permutation_of
from ..core.indexed import (
    IndexedEnsemble,
    _effective_masks,
    _normalised_masks,
    _split,
    solve_cycle_indexed,
    solve_path_indexed,
)
from ..core.instrument import SolverStats
from ..ensemble import Ensemble
from ..errors import ParallelError
from ..obs.trace import current_tracer
from ..pram.costmodel import parallel_fanout_worthwhile
from ..serve import wire
from .executor import SliceExecutor

Atom = Hashable

__all__ = ["ParallelSolver", "FANOUT_MODES"]

#: fan-out policies: ``"auto"`` asks the cost model, ``"always"`` fans out
#: whenever there are two components (the differential suite uses this to
#: exercise the real slice machinery on small instances).
FANOUT_MODES = ("auto", "always")


class ParallelSolver:
    """Intra-instance parallel solver with spawn-once warm workers.

    The executor is spawned lazily on the first solve that actually fans
    out, and reused across solves — a warm solver amortises worker
    startup over every instance it solves.  Use as a context manager, or
    call :meth:`close`.
    """

    def __init__(self, workers: int, *, fanout: str = "auto") -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if fanout not in FANOUT_MODES:
            raise ValueError(
                f"unknown fanout mode {fanout!r}; expected one of {FANOUT_MODES}"
            )
        self.workers = workers
        self.fanout = fanout
        self._executor: SliceExecutor | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------ #
    @property
    def executor(self) -> SliceExecutor | None:
        """The live executor, or ``None`` before the first real fan-out."""
        return self._executor

    def _ensure_executor(self) -> SliceExecutor:
        if self._closed:
            raise ParallelError("solver is closed")
        if self._executor is None:
            with current_tracer().span(
                "pool.spawn", workers=self.workers, kind="slice"
            ):
                self._executor = SliceExecutor(self.workers)
        return self._executor

    def close(self) -> None:
        self._closed = True
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "ParallelSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public solves -------------------------------------------------- #
    def solve_path(
        self,
        ensemble: Ensemble,
        stats: SolverStats | None = None,
        *,
        engine: str | None = None,
    ) -> list[Atom] | None:
        """A consecutive-ones layout in atom labels, or ``None``.

        Byte-for-byte the serial ``IndexedEnsemble.solve_path`` result.
        """
        indexed = IndexedEnsemble.from_ensemble(ensemble)
        order = self.solve_path_indices(indexed, stats, engine=engine)
        if order is None:
            return None
        return [indexed.atoms[i] for i in order]

    def solve_cycle(
        self,
        ensemble: Ensemble,
        stats: SolverStats | None = None,
        *,
        engine: str | None = None,
    ) -> list[Atom] | None:
        """A circular-ones layout in atom labels, or ``None``."""
        indexed = IndexedEnsemble.from_ensemble(ensemble)
        order = self.solve_cycle_indices(indexed, stats, engine=engine)
        if order is None:
            return None
        return [indexed.atoms[i] for i in order]

    def solve_path_indices(
        self,
        indexed: IndexedEnsemble,
        stats: SolverStats | None = None,
        *,
        engine: str | None = None,
    ) -> list[int] | None:
        """Index-level path solve, fanning components across workers.

        Mirrors the serial kernel's top level: the trivial shortcut, the
        effective columns, the component split.  A declined fan-out runs
        the serial kernel on the original instance.
        """
        if indexed.num_atoms > 2 and self.workers > 1:
            columns = _effective_masks(indexed.universe_mask, indexed.masks)
            order = self._fanout(indexed, columns, "components", stats, engine)
            if order is not _SERIAL:
                return order
        return solve_path_indexed(indexed, stats, engine=engine)

    def solve_cycle_indices(
        self,
        indexed: IndexedEnsemble,
        stats: SolverStats | None = None,
        *,
        engine: str | None = None,
    ) -> list[int] | None:
        """Index-level cycle solve.

        The serial cycle kernel first complement-normalises every column
        to at most half the atoms, and *then* splits into components, each
        solved as a path; the fan-out splits the same normalised columns.
        A declined fan-out runs the serial cycle kernel.
        """
        if indexed.num_atoms > 3 and self.workers > 1:
            columns = _normalised_masks(indexed.universe_mask, indexed.masks)
            order = self._fanout(
                indexed, columns, "cycle-components", stats, engine
            )
            if order is not _SERIAL:
                return order
        return solve_cycle_indexed(indexed, stats, engine=engine)

    # -- internals ------------------------------------------------------ #
    def _fanout(
        self,
        indexed: IndexedEnsemble,
        columns: list[int],
        case: str,
        stats: SolverStats | None,
        engine: str | None,
    ):
        """Split, decide, one solve wave, concatenate, verify — or
        ``_SERIAL`` to decline."""
        if not columns:
            return _SERIAL
        n = indexed.num_atoms
        tracer = current_tracer()
        with tracer.span("parallel.components", n=n, m=len(columns)):
            components = _split(n, columns)
        if len(components) < 2:
            return _SERIAL
        if self.fanout == "auto" and not parallel_fanout_worthwhile(
            n,
            len(columns),
            sum(c.bit_count() for c in columns),
            workers=self.workers,
            components=len(components),
            cold=self._executor is None,
        ):
            return _SERIAL
        executor = self._ensure_executor()
        if stats is not None:
            stats.enter(0, n, len(indexed.masks), indexed.total_size)
            stats.record_case(case)
            stats.execution = "parallel"
            stats.parallel_workers = self.workers
        with tracer.span("parallel.pack", n=n, m=len(columns)):
            payload = wire.pack_ensemble(
                range(n), columns, None, with_labels=False
            )
            executor.set_instance(payload)
        try:
            with tracer.span("parallel.solve", n=n, components=len(components)):
                layouts = self._solve_components(
                    executor, components, stats, engine
                )
        finally:
            executor.release_instance()
        if layouts is None:
            return None
        order = [atom for layout in layouts for atom in layout]
        with tracer.span("parallel.verify", n=n, m=len(columns)):
            if not (
                is_permutation_of(order, indexed.universe_mask)
                and all_consecutive(order, columns)
            ):
                raise ParallelError(
                    "fan-out verification failed: the concatenated component "
                    "layouts do not realize the top-level columns"
                )
        return order

    def _solve_components(
        self,
        executor: SliceExecutor,
        components: list[tuple[list[int], list[int]]],
        stats: SolverStats | None,
        engine: str | None,
    ) -> list | None:
        """One wave of per-component path solves; the layouts in order.

        Components of one or two atoms, or with no columns, are laid out
        inline (the serial kernel's shortcut for both is the component's
        atoms ascending); the rest become ``solve`` slice tasks.  Returns
        ``None`` when any component rejects — the serial kernel's verdict
        (it stops at the first rejection; the accepted layouts are the
        same either way).
        """
        layouts: list = []
        specs: list[tuple] = []
        slots: list[int] = []
        for members, rows in components:
            if len(members) > 2 and rows:
                slots.append(len(layouts))
                specs.append(
                    (array("I", members).tobytes(), array("I", rows).tobytes(), engine)
                )
            elif stats is not None:
                stats.enter(1, len(members), len(rows), 0)
            layouts.append(members)
        rejected = False
        for slot, outcome in zip(slots, executor.run(specs)):
            layout_bytes, seconds, depth, subproblems = outcome
            if stats is not None:
                stats.parallel_tasks += 1
                stats.parallel_task_seconds += seconds
                stats.max_depth = max(stats.max_depth, 1 + depth)
                stats.subproblems += subproblems
            if layout_bytes is None:
                rejected = True
                continue
            layouts[slot] = array("I")
            layouts[slot].frombytes(layout_bytes)
        return None if rejected else layouts


#: sentinel: the fan-out path declined and the caller should run serially.
_SERIAL = object()
