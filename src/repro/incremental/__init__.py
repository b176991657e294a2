"""Incremental serving: delta-stream PQ-tree sessions and canonical caching.

Two stateful serving primitives on top of the batch engine (DESIGN.md,
Substitution 9):

* :class:`IncrementalSolver` — PQ-tree session state over column
  add/remove deltas; each add is one Booth–Lueker reduction, refusals
  carry checked Tucker witnesses (:mod:`repro.incremental.solver`);
* :class:`ResultCache` — answers keyed by canonical form modulo
  atom/column relabeling, remapped onto each request's labels on hit
  (:mod:`repro.incremental.canon` / :mod:`repro.incremental.cache`).

The cache fronts :func:`repro.batch.solve_many` (``cache=``, serially
or on a pool) and :meth:`repro.serve.ServePool.solve_stream`, through one
cache front; :func:`cached_solve` is ``solve_many`` on one instance.
Delta sessions run on the pool (``solve_stream(incremental=True)``).  CLI:
``repro serve --cache`` / ``--incremental``.
"""

from .cache import CacheProbe, ResultCache, cached_solve
from .canon import CanonicalForm, canonical_ensemble, canonical_form
from .solver import DeltaOutcome, IncrementalSolver

__all__ = [
    "CacheProbe",
    "CanonicalForm",
    "DeltaOutcome",
    "IncrementalSolver",
    "ResultCache",
    "cached_solve",
    "canonical_ensemble",
    "canonical_form",
]
