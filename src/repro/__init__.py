"""repro — reproduction of Annexstein & Swaminathan,
"On Testing Consecutive-Ones Property in Parallel" (SPAA 1995 / DAM 88, 1998).

The package implements the paper's divide-and-conquer consecutive-ones (C1P)
algorithm based on Tutte decomposition and Whitney switches, together with
every substrate it relies on (graph connectivity, Tutte decomposition, a
simulated CRCW PRAM with work/depth accounting), the Booth–Lueker PQ-tree
baseline it is compared against, and the applications that motivate it
(physical mapping of genomes, interval graph recognition, gate-matrix layout,
consecutive-retrieval file organization).

Quick start
-----------
>>> from repro import BinaryMatrix, find_consecutive_ones_order
>>> m = BinaryMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 0]])
>>> order = find_consecutive_ones_order(m.row_ensemble())
>>> order is not None
True

Execution engines and throughput
--------------------------------
The solvers accept ``kernel="indexed"`` (the default: the ensemble is
compiled once into an :class:`IndexedEnsemble` — dense integer atoms,
bitmask columns — and the whole recursion runs in mask space) or
``kernel="reference"`` (the label-level recursion the kernel is verified
against).  For many instances at once, :func:`solve_many` fans independent
instances and independent connected components out over a process pool:

>>> from repro import solve_many
>>> results = solve_many([m.row_ensemble()])   # serial; processes=0 for all CPUs
>>> results[0].ok
True

For *long-lived* streams of instances, :class:`ServePool`
(:mod:`repro.serve`) keeps worker processes warm and ships each task as a
packed bitmask payload through ``multiprocessing.shared_memory`` instead of
pickling ensembles — same results, certificates included:

>>> with ServePool(2) as pool:                  # doctest: +SKIP
...     results = pool.solve_many([m.row_ensemble()])
...     for result in pool.solve_stream(stream_of_ensembles):
...         ...                                 # completion order

For one *large* instance, ``parallel=N`` on a single-instance solver (or
:class:`ParallelSolver` directly, :mod:`repro.parallel`) executes the
paper's top-level divide with N real worker processes, one pool task per
component — byte-for-byte the serial kernel's answer, with a cost-model
cutoff that keeps small or connected instances on the serial kernel:

>>> order = path_realization(big_ensemble, parallel=4)   # doctest: +SKIP

Orthogonally, ``engine="spqr"`` (the default) or ``engine="splitpair"``
selects the Tutte decomposition engine used by the combine step: the
near-linear Hopcroft–Tarjan-style palm-tree engine (:mod:`repro.graph.spqr`)
or the polynomial split-pair reference search it is differentially verified
against (see DESIGN.md, substitution 3).

Certification
-------------
Every solver answer can carry a proof (``certify=True``, or the
``certified_*`` / ``require_*`` entry points): accepted instances return
their layout as an ``OrderCertificate``; rejected instances return a
``TuckerWitness`` naming the minimal obstruction family (Tucker's theorem)
and its row/column embedding.  Both are validated by a fully independent
checker (:mod:`repro.certify.checker`) with no solver code on its import
path — see DESIGN.md, substitution 4.

>>> bad = Ensemble(("a", "b", "c"), (frozenset("ab"), frozenset("bc"), frozenset("ac")))
>>> result = path_realization(bad, certify=True)
>>> result.ok, result.certificate.family
(False, 'M_I')
"""

from .ensemble import (
    Ensemble,
    is_circular_consecutive,
    is_consecutive,
    verify_circular_layout,
    verify_linear_layout,
)
from .matrix import BinaryMatrix
from .batch import BatchResult, solve_many
from .core import (
    ENGINES,
    IndexedEnsemble,
    KERNELS,
    SolverStats,
    cycle_realization,
    find_circular_ones_order,
    find_consecutive_ones_order,
    has_circular_ones,
    has_consecutive_ones,
    path_realization,
)
from .certify import (
    CertifiedResult,
    OrderCertificate,
    TuckerWitness,
    certified_cycle_realization,
    certified_path_realization,
    extract_tucker_witness,
    require_circular_ones_order,
    require_consecutive_ones_order,
)
from .serve import ServePool
from .parallel import ParallelSolver
from .incremental import IncrementalSolver, ResultCache
from .errors import (
    AlignmentError,
    CertificationError,
    DecompositionError,
    GraphError,
    IncrementalError,
    InvalidEnsembleError,
    LintError,
    NotC1PError,
    NotTwoConnectedError,
    ParallelError,
    PQTreeError,
    PRAMError,
    ReproError,
    ServeError,
    WireFormatError,
)

__version__ = "1.0.0"

__all__ = [
    "Ensemble",
    "BinaryMatrix",
    "IndexedEnsemble",
    "BatchResult",
    "solve_many",
    "ServePool",
    "ParallelSolver",
    "IncrementalSolver",
    "ResultCache",
    "KERNELS",
    "ENGINES",
    "SolverStats",
    "path_realization",
    "cycle_realization",
    "find_consecutive_ones_order",
    "find_circular_ones_order",
    "has_consecutive_ones",
    "has_circular_ones",
    "is_consecutive",
    "is_circular_consecutive",
    "verify_linear_layout",
    "verify_circular_layout",
    "CertifiedResult",
    "OrderCertificate",
    "TuckerWitness",
    "certified_path_realization",
    "certified_cycle_realization",
    "require_consecutive_ones_order",
    "require_circular_ones_order",
    "extract_tucker_witness",
    "ReproError",
    "InvalidEnsembleError",
    "NotC1PError",
    "ServeError",
    "WireFormatError",
    "ParallelError",
    "CertificationError",
    "GraphError",
    "NotTwoConnectedError",
    "DecompositionError",
    "AlignmentError",
    "PQTreeError",
    "IncrementalError",
    "PRAMError",
    "LintError",
    "__version__",
]
