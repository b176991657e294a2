"""Simulated CRCW PRAM with work/depth accounting (the paper's machine model).

The paper's parallel claims (Theorem 9) are stated for a CRCW PRAM: time
``O(log^2 n)`` using ``p·loglog n / log n`` processors.  A CRCW PRAM cannot
be built out of CPython threads (GIL), so this package provides the
substitution documented in DESIGN.md: a synchronous PRAM *simulator* that
executes parallel steps sequentially while charging one unit of depth per
step and one unit of work per processor-operation — exactly the accounting
the paper's Section 5 analysis uses.

Fidelity to the *machine model* lives here; real wall-clock speedup lives in
:mod:`repro.parallel`, which executes the same top-level divide with actual
worker processes, one pool task per component (Substitution 7 in
DESIGN.md).
:func:`parallel_path_realization` bridges the two: its report is
``mode="simulated"`` (Section 5 analytic charges) by default and
``mode="measured"`` when ``parallel=N`` engages the real workers;
:func:`repro.pram.costmodel.parallel_fanout_worthwhile` is the shared
cutoff deciding when fan-out beats the serial kernel.

Contents
--------
* :mod:`repro.pram.machine` — the simulator (shared memory, concurrent-write
  resolution, work/depth/processor counters),
* :mod:`repro.pram.primitives` — the standard primitives the paper invokes
  (prefix scan, pointer-jumping list ranking, Euler tour, connected
  components by hooking),
* :mod:`repro.pram.costmodel` — analytical bounds: the Fussell–Ramachandran–
  Thurimella parallel Tutte decomposition, Theorem 9's processor bounds, and
  the prior-work baselines of Section 1.3 (Klein, Chen–Yesha),
* :mod:`repro.pram.parallel_solver` — a level-synchronous schedule of the
  divide-and-conquer algorithm with measured + charged depth and work.
"""

from .machine import PRAM, SharedMemory, WriteConflictError
from .primitives import (
    parallel_connected_components,
    parallel_list_ranking,
    parallel_maximum,
    parallel_prefix_sums,
)
from .costmodel import (
    batch_split_savings,
    chen_yesha_processors,
    fussell_tutte_depth,
    fussell_tutte_processors,
    klein_processors,
    paper_depth_bound,
    paper_processor_bound,
    parallel_fanout_worthwhile,
    prior_work_comparison,
    sequential_tutte_build_work,
    sequential_tutte_query_work,
)
from .parallel_solver import ParallelReport, parallel_path_realization

__all__ = [
    "PRAM",
    "SharedMemory",
    "WriteConflictError",
    "parallel_prefix_sums",
    "parallel_list_ranking",
    "parallel_connected_components",
    "parallel_maximum",
    "fussell_tutte_depth",
    "fussell_tutte_processors",
    "paper_depth_bound",
    "paper_processor_bound",
    "klein_processors",
    "chen_yesha_processors",
    "prior_work_comparison",
    "sequential_tutte_query_work",
    "sequential_tutte_build_work",
    "parallel_fanout_worthwhile",
    "batch_split_savings",
    "ParallelReport",
    "parallel_path_realization",
]
