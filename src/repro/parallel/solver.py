"""Real intra-instance parallel solve over shared-memory slices.

This module executes the paper's top-level divide with actual worker
processes (:class:`~repro.parallel.executor.SliceExecutor`) instead of the
simulated PRAM of :mod:`repro.pram`:

1. the parent computes the serial kernel's *top-level column list* — the
   effective masks for a path solve, the complement-normalised masks for a
   cycle solve — and packs exactly that list once into one shared-memory
   segment (``C1PW`` wire format, labels omitted);
2. workers run a parallel connected-component pass over slices of the
   packed columns; the parent merges the partial union-find forests and
   reproduces the serial kernel's component order (first-seen = minimum
   atom, ascending);
3. each non-trivial component becomes one ``solve`` slice task: the
   worker re-densifies the component (a strictly-increasing index remap,
   under which every mask comparison the kernel makes is invariant), runs
   the *serial* indexed kernel on it, and maps the layout back;
4. a parallel merge ladder concatenates component layouts level by level,
   each rung verifying its combined slice.

Because the serial kernel's components branch is itself "solve each
component independently, concatenate in component order" (with no
cross-component merging — components share no columns), the result is
byte-for-byte the serial kernel's, which the differential sweep pins
across kernels, engines and circular mode.

Below the :func:`~repro.pram.costmodel.parallel_fanout_worthwhile`
cutoff, with fewer than two components, or for ``kernel="reference"``
(whose frozenset iteration order is not reproducible across process
boundaries), the solve falls back to the serial kernel unchanged — a
cost-model false negative loses speedup, never correctness (DESIGN.md,
Substitution 7).
"""

from __future__ import annotations

from array import array
from typing import Hashable

from ..core.bitset import mask_from_indices, mask_to_bytes
from ..core.indexed import (
    IndexedEnsemble,
    _components,
    _effective_masks,
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
#: exercise the real slice machinery on small instances), ``"never"``
#: pins the serial kernel (useful as an in-process baseline).
FANOUT_MODES = ("auto", "always", "never")


class ParallelSolver:
    """Intra-instance parallel solver with spawn-once warm workers.

    The executor is spawned lazily on the first solve that actually fans
    out, and reused across solves — a warm solver amortises worker
    startup over every instance it solves.  Use as a context manager, or
    call :meth:`close`.
    """

    def __init__(
        self,
        workers: int,
        *,
        fanout: str = "auto",
        max_task_retries: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if fanout not in FANOUT_MODES:
            raise ValueError(
                f"unknown fanout mode {fanout!r}; expected one of {FANOUT_MODES}"
            )
        self.workers = workers
        self.fanout = fanout
        self._max_task_retries = max_task_retries
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
                self._executor = SliceExecutor(
                    self.workers, max_task_retries=self._max_task_retries
                )
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

        Mirrors the serial kernel's top level exactly: trivial shortcuts,
        the effective-column computation, the component split.  A single
        component (or a cost-model veto) falls through to the serial
        kernel on the original instance.
        """
        n = indexed.num_atoms
        masks = list(indexed.masks)
        if n <= 2 or not self._should_try(n, masks):
            return solve_path_indexed(indexed, stats, engine=engine)
        effective = _effective_masks(indexed.universe_mask, masks)
        if not effective:
            return solve_path_indexed(indexed, stats, engine=engine)
        order = self._fanout_solve(
            indexed, effective, "components", stats, engine=engine
        )
        if order is _SERIAL:
            return solve_path_indexed(indexed, stats, engine=engine)
        return order

    def solve_cycle_indices(
        self,
        indexed: IndexedEnsemble,
        stats: SolverStats | None = None,
        *,
        engine: str | None = None,
    ) -> list[int] | None:
        """Index-level cycle solve.

        The serial cycle kernel first complement-normalises every column
        to at most half the atoms, and *then* splits into components —
        each solved as a path.  The parent replicates that normalisation
        and fans the path sub-solves out; a single post-normalisation
        component falls back to the serial cycle kernel.
        """
        n = indexed.num_atoms
        masks = list(indexed.masks)
        if n <= 3 or not self._should_try(n, masks):
            return solve_cycle_indexed(indexed, stats, engine=engine)
        universe = indexed.universe_mask
        normalised: list[int] = []
        seen: set[int] = set()
        for c in masks:
            if 2 * c.bit_count() > n:
                c = universe ^ c
            if c.bit_count() <= 1 or c in seen:
                continue
            seen.add(c)
            normalised.append(c)
        if not normalised:
            return solve_cycle_indexed(indexed, stats, engine=engine)
        order = self._fanout_solve(
            indexed, normalised, "cycle-components", stats, engine=engine
        )
        if order is _SERIAL:
            return solve_cycle_indexed(indexed, stats, engine=engine)
        return order

    # -- internals ------------------------------------------------------ #
    def _should_try(self, n: int, masks: list[int]) -> bool:
        """Pre-pack gate: is a fan-out even conceivably worthwhile?"""
        if self.fanout == "never" or self.workers < 2:
            return False
        if self.fanout == "always":
            return True
        warm = self._executor is not None
        return parallel_fanout_worthwhile(
            n,
            len(masks),
            sum(c.bit_count() for c in masks),
            workers=self.workers,
            cold=not warm,
        )

    def _fanout_solve(
        self,
        indexed: IndexedEnsemble,
        columns: list[int],
        case: str,
        stats: SolverStats | None,
        *,
        engine: str | None,
    ):
        """Pack, split, fan out, merge — or return ``_SERIAL`` to decline."""
        n = indexed.num_atoms
        tracer = current_tracer()
        executor = self._ensure_executor()
        with tracer.span("parallel.pack", n=n, m=len(columns)):
            payload = wire.pack_ensemble(
                range(n), columns, None, with_labels=False
            )
            executor.set_instance(payload)
        try:
            with tracer.span("parallel.components", n=n, m=len(columns)):
                members, comp_of = self._parallel_components(
                    executor, n, columns
                )
            if len(members) <= 1:
                return _SERIAL
            if self.fanout == "auto" and not parallel_fanout_worthwhile(
                n,
                len(columns),
                sum(c.bit_count() for c in columns),
                workers=self.workers,
                components=len(members),
                cold=False,
            ):
                return _SERIAL
            if stats is not None:
                stats.enter(
                    0, n, len(indexed.masks), indexed.total_size
                )
                stats.record_case(case)
                stats.execution = "parallel"
                stats.parallel_workers = self.workers
            comp_cols = self._assign_columns(comp_of, len(members), columns)
            with tracer.span(
                "parallel.solve", n=n, components=len(members)
            ):
                layouts = self._solve_components(
                    executor, n, members, comp_cols, stats, engine=engine
                )
            if layouts is None:
                return None
            with tracer.span("parallel.merge_ladder", components=len(members)):
                return self._merge_ladder(executor, comp_cols, layouts, stats)
        finally:
            executor.release_instance()

    def _parallel_components(
        self, executor: SliceExecutor, n: int, columns: list[int]
    ) -> tuple[list[list[int]], list[int]]:
        """The serial kernel's ``_components`` via sliced union-find.

        Workers each union a contiguous slice of the packed columns and
        return partial ``(atom, root)`` pairs; the parent merges the
        forests and rebuilds the components in first-seen (minimum atom,
        ascending) order — exactly the serial enumeration.  Returns
        ``(members, comp_of)``: ``members[k]`` lists component ``k``'s
        atoms ascending, ``comp_of[atom]`` is the component index.  Kept
        as index lists, never per-component atom masks: uncovered atoms
        are singleton components (as in the serial kernel), and tens of
        thousands of full-width singleton masks would cost more to build
        than the whole solve.
        """
        m = len(columns)
        slices = min(m, max(1, self.workers * 2))
        step = (m + slices - 1) // slices
        tasks = [
            ("components", (lo, min(m, lo + step))) for lo in range(0, m, step)
        ]
        blobs = executor.run(tasks)
        parent: dict[int, int] = {}

        def find(a: int) -> int:
            root = a
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(a, a) != root:
                parent[a], a = root, parent[a]
            return root

        for blob in blobs:
            pairs = array("I")
            pairs.frombytes(blob)
            for k in range(0, len(pairs), 2):
                atom, root = pairs[k], pairs[k + 1]
                parent.setdefault(atom, atom)
                parent.setdefault(root, root)
                ra, rr = find(atom), find(root)
                if ra != rr:
                    parent[rr] = ra
        groups: dict[int, int] = {}
        members: list[list[int]] = []
        comp_of = [0] * n
        for atom in range(n):
            root = find(atom) if atom in parent else atom
            ci = groups.get(root)
            if ci is None:
                ci = groups[root] = len(members)
                members.append([])
            members[ci].append(atom)
            comp_of[atom] = ci
        return members, comp_of

    def _assign_columns(
        self, comp_of: list[int], count: int, columns: list[int]
    ) -> list[list[int]]:
        """Packed-column indices per component, preserving column order.

        Every column lies wholly inside one component (that is what the
        component pass computed), so its lowest set bit identifies it.
        """
        assigned: list[list[int]] = [[] for _ in range(count)]
        for j, mask in enumerate(columns):
            lowest = (mask & -mask).bit_length() - 1
            assigned[comp_of[lowest]].append(j)
        return assigned

    def _solve_components(
        self,
        executor: SliceExecutor,
        n: int,
        members: list[list[int]],
        comp_cols: list[list[int]],
        stats: SolverStats | None,
        *,
        engine: str | None,
    ) -> list[list[int] | None] | None:
        """Fan per-component path solves across workers.

        Components of one or two atoms, or with no columns, are solved
        inline (the serial kernel's shortcut for both is the component's
        atoms ascending); the rest become ``solve`` slice tasks.
        Returns ``None`` as soon as any component rejects — matching the
        serial kernel's overall verdict (it short-circuits on the first
        rejection; the set of accepted layouts is identical either way).
        """
        mask_bytes = (n + 7) // 8
        layouts: list[list[int] | None] = []
        tasks: list[tuple[str, tuple]] = []
        slots: list[int] = []
        for ci, atoms in enumerate(members):
            if len(atoms) <= 2 or not comp_cols[ci]:
                layouts.append(list(atoms))
                if stats is not None:
                    stats.enter(1, len(atoms), len(comp_cols[ci]), 0)
                continue
            spec = (
                mask_to_bytes(mask_from_indices(atoms), mask_bytes),
                array("I", comp_cols[ci]).tobytes(),
                engine,
            )
            tasks.append(("solve", spec))
            slots.append(ci)
            layouts.append(None)
        outcomes = executor.run(tasks)
        rejected = False
        for ci, outcome in zip(slots, outcomes):
            layout_bytes, seconds, depth, subproblems = outcome
            if stats is not None:
                stats.parallel_tasks += 1
                stats.parallel_task_seconds += seconds
                stats.max_depth = max(stats.max_depth, 1 + depth)
                stats.subproblems += subproblems
            if layout_bytes is None:
                rejected = True
                continue
            layout = array("I")
            layout.frombytes(layout_bytes)
            layouts[ci] = list(layout)
        if rejected:
            return None
        return layouts

    def _merge_ladder(
        self,
        executor: SliceExecutor,
        comp_cols: list[list[int]],
        layouts: list[list[int] | None],
        stats: SolverStats | None,
    ) -> list[int]:
        """Combine component layouts pairwise, level by level.

        Components are independent, so every combination step is
        concatenation in component order — exactly the serial kernel's.
        The components are first coalesced (still in component order)
        into at most ``2 * workers`` contiguous chunks: an instance can
        have tens of thousands of trivial singleton components, and a
        per-component ladder would drown in dispatch overhead.  The
        chunk layouts then climb a pairwise merge ladder whose rungs
        re-verify their combined slice — a defence against a broken
        slice assignment that the serial components branch does not
        perform; the top rung has seen every atom and every column.
        """
        chunk_count = max(2, 2 * self.workers)
        k = len(layouts)
        step = (k + chunk_count - 1) // chunk_count
        groups: list[tuple[list[int], list[int]]] = []
        for lo in range(0, k, step):
            hi = min(k, lo + step)
            layout = [a for ci in range(lo, hi) for a in layouts[ci]]
            cols = [j for ci in range(lo, hi) for j in comp_cols[ci]]
            groups.append((layout, cols))
        while len(groups) > 1:
            next_groups: list = []
            tasks: list[tuple[str, tuple]] = []
            slots: list[int] = []
            for i in range(0, len(groups) - 1, 2):
                left_layout, left_cols = groups[i]
                right_layout, right_cols = groups[i + 1]
                spec = (
                    array("I", left_layout).tobytes(),
                    array("I", right_layout).tobytes(),
                    array("I", left_cols + right_cols).tobytes(),
                )
                tasks.append(("merge", spec))
                slots.append(len(next_groups))
                next_groups.append(([], left_cols + right_cols))
            if len(groups) % 2:
                next_groups.append(groups[-1])
            outcomes = executor.run(tasks)
            for slot, (merged_bytes, seconds) in zip(slots, outcomes):
                _, group_cols = next_groups[slot]
                merged = array("I")
                merged.frombytes(merged_bytes)
                next_groups[slot] = (list(merged), group_cols)
                if stats is not None:
                    stats.parallel_tasks += 1
                    stats.parallel_task_seconds += seconds
                    stats.merges += 1
            groups = next_groups
        return groups[0][0]


#: sentinel: the fan-out path declined and the caller should run serially.
_SERIAL = object()
