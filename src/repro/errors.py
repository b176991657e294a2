"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything produced by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the :mod:`repro` package."""


class InvalidEnsembleError(ReproError):
    """Raised when an ensemble or matrix is structurally malformed.

    Examples: a column referencing an atom that is not part of the atom set,
    a matrix with entries other than 0/1, or an empty atom universe where one
    is required.
    """


class GraphError(ReproError):
    """Raised on structurally invalid graph operations.

    Examples: querying an edge id that does not exist, asking for the Tutte
    decomposition of a graph that is not 2-connected, or composing a
    decomposition whose marker links are inconsistent.
    """


class NotTwoConnectedError(GraphError):
    """Raised when an operation requires a 2-connected graph but the input
    graph has a cut vertex or is disconnected."""


class DecompositionError(GraphError):
    """Raised when a Tutte decomposition is internally inconsistent, for
    example when a marker edge does not appear in exactly two members."""


class AlignmentError(ReproError):
    """Raised when the Whitney-switch alignment machinery is invoked with
    arguments that violate its preconditions (e.g. a target edge that is not
    present in the realization graph)."""


class PQTreeError(ReproError):
    """Raised by the PQ-tree baseline on invalid reductions or malformed
    trees."""


class PRAMError(ReproError):
    """Raised by the PRAM simulator on invalid programs, e.g. reading an
    uninitialised shared-memory cell in COMMON concurrent-write mode."""


class NotC1PError(ReproError):
    """Raised when an ensemble or matrix lacks the requested ones property.

    Carries the :class:`~repro.certify.TuckerWitness` proving the rejection in
    the :attr:`witness` attribute, so callers that want exceptions instead of
    ``None`` returns still receive a checkable proof (see
    :func:`repro.certify.require_consecutive_ones_order`).
    """

    def __init__(self, message: str, witness=None) -> None:
        super().__init__(message)
        self.witness = witness


class IncrementalError(ReproError):
    """Raised by the incremental serving layer (:mod:`repro.incremental`).

    Examples: adding a column that references atoms outside the session
    universe, removing a column no accepted column matches, or applying an
    unknown delta operation.  A *refused* add — the column cannot join the
    consecutive arrangement — is not an error: it is reported as a
    rejected :class:`~repro.incremental.DeltaOutcome`, witness included.
    """


class ServeError(ReproError):
    """Raised by the persistent serving pool (:mod:`repro.serve`).

    Examples: submitting to a pool that has been shut down, a task whose
    packed payload exceeds the pool's segment budget, or a task abandoned
    after repeatedly crashing its worker process.
    """


class WireFormatError(ServeError):
    """Raised when a packed shared-memory payload cannot be decoded.

    Examples: a truncated or foreign buffer (bad magic), an unsupported
    wire version, a declared geometry that does not match the buffer size,
    a column mask referencing atom indices outside the declared universe,
    or an undecodable label table.  Decoding never returns garbage: every
    structural inconsistency raises this error instead.
    """


class ParallelError(ReproError):
    """Raised by the intra-instance parallel solver (:mod:`repro.parallel`).

    Examples: a solve on a solver that has been closed, or a failed
    verification of the concatenated component layouts (which indicates a
    bug, not a bad input — the serial kernel verifies the same invariant).
    A component task that fails in its worker, or exhausts its retries,
    raises the pool's :class:`ServeError` instead.
    """


class LintError(ReproError):
    """Raised by the static-analysis pass (:mod:`repro.analysis`) on
    unusable inputs.

    Examples: a source file that does not parse, a malformed or
    incomplete baseline file (every entry needs a rule, path, context
    and a non-empty justification), or a request for an unknown rule
    id.  Findings themselves are *data*, not exceptions — this error
    means the pass could not run, not that it found something.
    """


class CertificationError(ReproError):
    """Raised when certificate machinery cannot do its job.

    Examples: witness extraction invoked on an instance that *has* the
    property (there is no obstruction to extract), or the narrowed matrix
    failing to classify as a Tucker family (an internal invariant violation —
    by Tucker's theorem every minimal non-C1P matrix is one of the five
    families, so this indicates a bug rather than a bad input).
    """
