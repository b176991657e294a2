"""Real intra-instance parallel solve: one wave of component tasks on a pool.

This module executes the paper's top-level divide with actual worker
processes (a :class:`~repro.serve.ServePool`, the one worker fleet of the
package) instead of the simulated PRAM of :mod:`repro.pram`:

1. the parent computes the serial kernel's *top-level column list* — the
   effective masks for a path solve, the complement-normalised masks for a
   cycle solve — and splits it into connected components with the
   kernel's own Step 1 (``core.indexed._split``: member lists in the
   kernel's component order, before anything is spawned or packed);
2. with the number of components that become tasks known (more than two
   atoms and at least one column) it asks
   :func:`~repro.pram.costmodel.parallel_fanout_worthwhile` once;
3. it re-densifies each such component in the parent
   (``core.indexed._component_ensemble``: a strictly-increasing index
   remap, under which every mask comparison the kernel makes is
   invariant, labelled by the instance's atom indices) and submits it to
   the pool as one whole-instance task, so each ships at its own width;
   the worker runs the *serial* indexed kernel on it and answers in those
   labels;
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

from typing import Hashable

from ..core.bitset import all_consecutive, is_permutation_of
from ..core.indexed import (
    IndexedEnsemble,
    _component_ensemble,
    _effective_masks,
    _needs_solve,
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
from ..serve.fleet import CLOSE_TIMEOUT
from ..serve.pool import ServePool

Atom = Hashable

__all__ = ["ParallelSolver", "FANOUT_MODES"]

#: fan-out policies: ``"auto"`` asks the cost model, ``"always"`` fans out
#: whenever there are two components (the differential suite uses this to
#: exercise the real worker round trip on small instances).
FANOUT_MODES = ("auto", "always")


class ParallelSolver:
    """Intra-instance parallel solver with spawn-once warm workers.

    The pool is spawned lazily on the first solve that actually fans
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
        self._pool: ServePool | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------ #
    @property
    def executor(self) -> ServePool | None:
        """The live worker pool, or ``None`` before the first real fan-out."""
        return self._pool

    def _ensure_pool(self) -> ServePool:
        if self._closed:
            raise ParallelError("solver is closed")
        if self._pool is None:
            self._pool = ServePool(self.workers)
        return self._pool

    def close(self) -> None:
        """Stop the workers within the fleet's one-second deadline."""
        self._closed = True
        if self._pool is not None:
            self._pool.close(wait=False, timeout=CLOSE_TIMEOUT)
            self._pool = None

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
            components = _split(indexed.universe_mask, columns)
        if len(components) < 2:
            return _SERIAL
        if self.fanout == "auto" and not parallel_fanout_worthwhile(
            sum(c.bit_count() for c in columns),
            workers=self.workers,
            tasks=sum(1 for members, rows in components if _needs_solve(members, rows)),
            cold=self._pool is None,
        ):
            return _SERIAL
        pool = self._ensure_pool()
        if stats is not None:
            stats.enter(0, n, len(indexed.masks), indexed.total_size)
            stats.record_case(case)
            stats.execution = "parallel"
            stats.parallel_workers = self.workers
        with tracer.span("parallel.solve", n=n, components=len(components)):
            layouts = self._solve_components(
                pool, columns, components, stats, engine
            )
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
        pool: ServePool,
        columns: list[int],
        components: list[tuple[list[int], list[int]]],
        stats: SolverStats | None,
        engine: str | None,
    ) -> list | None:
        """One wave of per-component path solves; the layouts in order.

        Components of one or two atoms, or with no columns, are laid out
        inline (the serial kernel's shortcut for both is the component's
        atoms ascending); the rest are submitted to ``pool``.  Returns
        ``None`` when any component rejects — the serial kernel's verdict
        (it stops at the first rejection; the accepted layouts are the
        same either way).
        """
        busy = pool.metrics.counter("serve.busy_seconds")
        busy_before = busy.value
        layouts: list = []
        futures = []
        for members, rows in components:
            if stats is not None:
                stats.enter(1, len(members), len(rows), 0)
            if _needs_solve(members, rows):
                part = _component_ensemble(members, [columns[j] for j in rows])
                futures.append((len(layouts), pool.submit(part, engine=engine)))
            layouts.append(members)
        rejected = False
        for slot, future in futures:
            order, _ = future.result()
            if order is None:
                rejected = True
            else:
                layouts[slot] = order
        if stats is not None:
            stats.parallel_tasks += len(futures)
            stats.parallel_task_seconds += busy.value - busy_before
        return None if rejected else layouts


#: sentinel: the fan-out path declined and the caller should run serially.
_SERIAL = object()
