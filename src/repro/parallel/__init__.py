"""Real intra-instance parallelism: the paper's divide on actual processes.

Where :mod:`repro.serve` parallelises *across* instances (one worker per
whole solve) and :mod:`repro.pram` *simulates* the paper's PRAM schedule,
this package executes one instance's top-level divide with real worker
processes.  :class:`ParallelSolver` is a thin scatter layer over the
serving pool (:class:`repro.serve.ServePool`, the one worker fleet of the
package): the kernel's own component split in the parent
(``core.indexed._split``), one cost-model check, each non-trivial
component re-densified in the parent and submitted as one pool task,
concatenation in component order and one verification, with byte-for-byte
serial parity.

Entry points thread through as ``path_realization(..., parallel=N)``,
``cycle_realization`` and ``repro FILE --parallel N``.  See DESIGN.md,
Substitution 7 for how this deviates from the paper's processor
allocation and why.
"""

from .solver import FANOUT_MODES, ParallelSolver

__all__ = ["ParallelSolver", "FANOUT_MODES"]
