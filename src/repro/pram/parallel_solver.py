"""Level-synchronous PRAM schedule of the divide-and-conquer algorithm.

The paper's Section 5 argues that every level of the recursion tree can be
scheduled in ``O(log n)`` PRAM time with ``p·loglog n/log n`` processors, and
that the recursion has ``O(log n)`` levels, giving Theorem 9's
``O(log^2 n)``-time bound.

:func:`parallel_path_realization` reproduces that schedule:

1. the *sequential* solver is run first (it provides the answer and the full
   recursion tree via :class:`~repro.core.instrument.SolverStats` — the PRAM
   simulation never changes what is computed, only how it is accounted);
2. for every level of the recursion tree, every subproblem is charged the
   per-step costs of Section 5: the partition step at the Miller–Reif tree
   contraction bound, the Tutte decomposition at the Fussell et al. bound,
   type identification and the switch checks as constant-depth steps with
   ``n_i + m_i`` (resp. ``p_i``) processors, and the merge prefix scan is
   *measured* by running the scan primitive on the simulator;
3. the level's depth is the maximum over its subproblems (they run in
   parallel), its work is the sum; the totals over all levels are the
   quantities compared against Theorem 9 in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable

from ..core.instrument import SolverStats
from ..core.solver import path_realization
from ..ensemble import Ensemble
from .costmodel import (
    fussell_tutte_depth,
    fussell_tutte_processors,
    paper_depth_bound,
    paper_processor_bound,
)
from .machine import PRAM
from .primitives import parallel_prefix_sums

Atom = Hashable

__all__ = ["ParallelReport", "parallel_path_realization"]


@dataclass
class ParallelReport:
    """Outcome of the simulated — or measured — parallel execution.

    ``mode`` distinguishes the two honestly: ``"simulated"`` means the
    depth/work columns are the Section 5 analytic charges over the
    recorded recursion tree; ``"measured"`` means the real worker fan-out
    (:mod:`repro.parallel`) ran and the ``measured_*`` fields carry
    wall-clock observations (the analytic columns are left at zero rather
    than mixed with measurements).
    """

    order: list | None
    n: int
    m: int
    p: int
    levels: int = 0
    depth: int = 0
    work: int = 0
    max_processors: int = 0
    per_level: list[dict] = field(default_factory=list)
    #: ``"simulated"`` (analytic PRAM charges) or ``"measured"`` (the real
    #: executor ran; see the ``measured_*`` fields)
    mode: str = "simulated"
    #: worker processes of a measured run (0 when simulated)
    workers: int = 0
    #: wall-clock seconds of the whole solve (measured mode only)
    measured_seconds: float = 0.0
    #: summed worker busy seconds of the fan-out's tasks (measured work)
    measured_task_seconds: float = 0.0
    #: component tasks submitted to workers (measured mode only)
    parallel_tasks: int = 0

    # reference bounds (constants set to one)
    def theorem9_depth_bound(self) -> float:
        return paper_depth_bound(self.n)

    def theorem9_processor_bound(self) -> float:
        return paper_processor_bound(self.n, self.p)

    def implied_processors(self) -> float:
        return self.work / self.depth if self.depth else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "measured_seconds": self.measured_seconds,
            "measured_task_seconds": self.measured_task_seconds,
            "parallel_tasks": self.parallel_tasks,
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "levels": self.levels,
            "depth": self.depth,
            "work": self.work,
            "max_processors": self.max_processors,
            "implied_processors": self.implied_processors(),
            "theorem9_depth_bound": self.theorem9_depth_bound(),
            "theorem9_processor_bound": self.theorem9_processor_bound(),
        }


def _schedule_subproblem(ensemble: Ensemble) -> tuple[int, int, int]:
    """Depth, work and processor usage charged for one subproblem at one level."""
    n_i = ensemble.num_atoms
    m_i = ensemble.num_columns
    p_i = ensemble.total_size

    machine = PRAM()
    # Step 1/2: transformation + finding a connected collection of columns.
    # The paper schedules this with tree contraction (Miller–Reif) in
    # O(log n) time using (m + n + p)/log n processors; it is charged at that
    # bound (the measured hooking CC primitive has an extra log factor, see
    # repro.pram.primitives).
    machine.charge(
        depth=fussell_tutte_depth(max(2, n_i)),
        work=max(1, n_i + m_i + p_i),
        processors=max(
            1, int((n_i + m_i + p_i) / fussell_tutte_depth(max(2, n_i)))
        ),
        label="partition",
    )
    # Step 3: parallel Tutte decomposition — charged at the published bound.
    machine.charge(
        depth=fussell_tutte_depth(max(2, n_i)),
        work=fussell_tutte_depth(max(2, n_i)) * fussell_tutte_processors(max(2, n_i), m_i),
        processors=fussell_tutte_processors(max(2, n_i), m_i),
        label="tutte",
    )
    # Step 4: identify edge types — one step with p_i processors.
    machine.charge(depth=1, work=max(1, p_i), processors=max(1, p_i), label="types")
    # Step 5/6: minimal decomposition + switch checks — constant depth with
    # n_i + m_i processors (Euler-tour bookkeeping charged at one log-step).
    machine.charge(
        depth=max(1, fussell_tutte_depth(max(2, n_i))),
        work=max(1, n_i + m_i),
        processors=max(1, n_i + m_i),
        label="switches",
    )
    # Step 7: the merge prefix scan — measured.
    if n_i:
        parallel_prefix_sums(machine, [1] * n_i)
    return machine.depth, machine.work, machine.max_processors


def parallel_path_realization(
    ensemble: Ensemble,
    *,
    kernel: str = "indexed",
    engine: str | None = None,
    parallel: int | None = None,
) -> ParallelReport:
    """Run the solver and produce the level-synchronous PRAM accounting.

    ``kernel`` selects the execution engine (see
    :func:`repro.core.solver.path_realization`) and ``engine`` the Tutte
    decomposition engine of the combine step; the accounting below depends
    only on the recorded subproblem shapes, and every kernel/engine
    combination records the same Fig. 3 recursion tree (the indexed kernel
    keeps its internal merge-tier re-solves out of the stats, and the
    decomposition engines differ only in how they locate splits).  The
    parallel Tutte step stays charged at the Fussell et al. bound either way;
    the *sequential* substrate cost the engines change is modelled by
    :func:`repro.pram.costmodel.sequential_tutte_build_work`.

    ``parallel=N`` runs the solve through the *real* worker fan-out
    (:mod:`repro.parallel`).  When the solver actually fans out, the
    report comes back in ``mode="measured"``: wall-clock and worker task
    seconds instead of analytic charges — never a mix of the two.  If the
    cost model kept the solve sequential (small instance, one component),
    the report stays ``"simulated"``, which is itself the honest answer.
    """
    stats = SolverStats()
    started = time.perf_counter()
    order = path_realization(
        ensemble, stats, kernel=kernel, engine=engine, parallel=parallel
    )
    elapsed = time.perf_counter() - started
    report = ParallelReport(
        order=order,
        n=ensemble.num_atoms,
        m=ensemble.num_columns,
        p=ensemble.total_size,
    )
    if stats.execution == "parallel":
        report.mode = "measured"
        report.workers = stats.parallel_workers
        report.measured_seconds = elapsed
        report.measured_task_seconds = stats.parallel_task_seconds
        report.parallel_tasks = stats.parallel_tasks
        # The analytic columns stay zero: worker-side recursion shapes are
        # merged only as aggregate counters, so charging the Section 5
        # schedule here would silently understate the tree.  Simulated and
        # measured numbers must never be summed.
        return report

    # Reconstruct the level structure from the recorded subproblem shapes; the
    # solver enters every subproblem exactly once, tagging it with its depth.
    levels = sorted(stats.shapes_per_level)
    report.levels = len(levels)
    for level in levels:
        shapes = stats.shapes_per_level[level]
        level_depth = 0
        level_work = 0
        level_procs = 0
        for n_i, m_i, p_i in shapes:
            # The schedule cost of a subproblem depends only on its shape
            # (n_i atoms, m_i columns, p_i ones); a synthetic interval
            # ensemble of the same shape is used so the measured primitives
            # run on graphs of the right size without retaining every
            # sub-ensemble in memory.
            sub = _representative_ensemble(n_i, m_i, p_i)
            d, w, procs = _schedule_subproblem(sub)
            level_depth = max(level_depth, d)
            level_work += w
            level_procs += procs
        report.depth += level_depth
        report.work += level_work
        report.max_processors = max(report.max_processors, level_procs)
        report.per_level.append(
            {
                "level": level,
                "subproblems": len(shapes),
                "depth": level_depth,
                "work": level_work,
                "processors": level_procs,
            }
        )
    return report


def _representative_ensemble(n_i: int, m_i: int, p_i: int) -> Ensemble:
    """A synthetic interval ensemble with (approximately) the given shape."""
    if n_i <= 0:
        return Ensemble((), ())
    m_i = max(0, m_i)
    columns: list[frozenset] = []
    if m_i:
        avg = max(1, min(n_i, round(p_i / m_i))) if p_i else 1
        for j in range(m_i):
            start = j % max(1, n_i - avg + 1)
            columns.append(frozenset(range(start, min(n_i, start + avg))))
    return Ensemble(tuple(range(n_i)), tuple(columns))
