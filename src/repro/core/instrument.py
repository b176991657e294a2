"""Recursion statistics for the complexity experiments (Theorem 9, E7).

A :class:`SolverStats` instance can be passed to the solvers; it records the
shape of the recursion tree (depth, number of subproblems, subproblem sizes
per level), how often each divide case fired, and how much work the combine
step did (Tutte splits performed, alignment plans computed, merge candidates
verified).  The benchmarks use these counters to reproduce the paper's
``O(log n)`` recursion-depth and balance claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SolverStats"]


@dataclass
class SolverStats:
    """Counters filled in by :func:`repro.core.solver.path_realization`."""

    #: maximum recursion depth reached
    max_depth: int = 0
    #: total number of recursive calls (subproblems)
    subproblems: int = 0
    #: number of atoms per subproblem, grouped by recursion depth
    sizes_per_level: dict[int, list[int]] = field(default_factory=dict)
    #: (atoms, columns, ones) per subproblem, grouped by recursion depth
    shapes_per_level: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)
    #: how many times each divide case fired
    case_counts: dict[str, int] = field(default_factory=dict)
    #: number of simple decompositions (splits) performed by Tutte builds.
    #: NOTE: engine-dependent — the "spqr" and "splitpair" engines may reach
    #: the canonical decomposition through different split sequences; compare
    #: ``tutte_members`` across engines instead.
    tutte_splits: int = 0
    #: number of Tutte decompositions built
    tutte_builds: int = 0
    #: total members over all decompositions built (engine-independent: the
    #: canonical decomposition is unique, so both engines record the same)
    tutte_members: int = 0
    #: number of alignment plans attempted
    alignments: int = 0
    #: number of merge candidates verified against the GAP/GAC conditions
    merge_candidates: int = 0
    #: number of merges performed
    merges: int = 0
    #: explicit split balance records: (|A|, |A1|)
    splits: list[tuple[int, int]] = field(default_factory=list)
    #: how the solve actually executed: ``"sequential"`` (the serial
    #: kernels), or ``"parallel"`` (one instance's components fanned out as
    #: tasks of a worker pool — see :mod:`repro.parallel`).  A request for
    #: parallel execution that fell below the cost-model cutoff reports
    #: ``"sequential"``: the field describes what ran, not what was asked.
    execution: str = "sequential"
    #: worker processes used by a parallel execution (0 when sequential)
    parallel_workers: int = 0
    #: component tasks submitted to the pool, one per component with more
    #: than two atoms and at least one column
    parallel_tasks: int = 0
    #: growth of the pool's ``serve.busy_seconds`` over the fan-out's wave —
    #: measured work, as opposed to the analytic PRAM charge of ``repro.pram``
    parallel_task_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    def enter(
        self, depth: int, size: int, num_columns: int = 0, total_size: int = 0
    ) -> None:
        self.subproblems += 1
        self.max_depth = max(self.max_depth, depth)
        self.sizes_per_level.setdefault(depth, []).append(size)
        self.shapes_per_level.setdefault(depth, []).append(
            (size, num_columns, total_size)
        )

    def record_case(self, case: str) -> None:
        self.case_counts[case] = self.case_counts.get(case, 0) + 1

    def record_split(self, total: int, first_side: int) -> None:
        self.splits.append((total, first_side))

    def balance_ratios(self) -> list[float]:
        """``|A1| / |A|`` for every split performed.

        The paper's balance property guarantees each side holds at least one
        third of the atoms; these ratios are asserted in the property tests.
        """
        return [first / total for total, first in self.splits if total]

    def summary(self) -> dict[str, object]:
        return {
            "execution": self.execution,
            "parallel_workers": self.parallel_workers,
            "parallel_tasks": self.parallel_tasks,
            "parallel_task_seconds": self.parallel_task_seconds,
            "max_depth": self.max_depth,
            "subproblems": self.subproblems,
            "case_counts": dict(self.case_counts),
            "tutte_builds": self.tutte_builds,
            "tutte_splits": self.tutte_splits,
            "tutte_members": self.tutte_members,
            "alignments": self.alignments,
            "merge_candidates": self.merge_candidates,
            "merges": self.merges,
        }
