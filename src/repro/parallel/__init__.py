"""Real intra-instance parallelism: the paper's divide on actual processes.

Where :mod:`repro.serve` parallelises *across* instances (one worker per
whole solve) and :mod:`repro.pram` *simulates* the paper's PRAM schedule,
this package executes one instance's top-level divide with real worker
processes operating on slices of a single shared-memory segment:

* :class:`SliceExecutor` — spawn-once workers on the fleet core ServePool
  also runs on (:mod:`repro.serve.fleet`: EOF crash detection, respawn,
  bounded re-dispatch), with one op: solve one component of the published
  instance;
* :class:`ParallelSolver` — a thin scatter layer: the kernel's own
  component split in the parent (``core.indexed._split``), one cost-model
  check, one wave of component solves, concatenation in component order
  and one verification, with byte-for-byte serial parity.

Entry points thread through as ``path_realization(..., parallel=N)``,
``cycle_realization`` and ``repro FILE --parallel N``.  See DESIGN.md,
Substitution 7 for how this deviates from the paper's processor
allocation and why.
"""

from .executor import SliceExecutor
from .solver import FANOUT_MODES, ParallelSolver

__all__ = ["SliceExecutor", "ParallelSolver", "FANOUT_MODES"]
