"""Incremental consecutive/circular-ones solving over column deltas.

The batch engine re-solves from scratch on every request; serving traffic
(ROADMAP item 3) is dominated by *deltas* — a column arrives, a column
retires, and the caller wants the updated layout (or a proof that the new
column cannot join).  :class:`IncrementalSolver` promotes the in-repo
PQ-tree baseline (:mod:`repro.pqtree`) from test oracle to production
path: the tree *is* the session state, and each ``add_column`` is a single
Booth–Lueker reduction, which visits only the column's pertinent subtree,
instead of an ``O(n·m)`` re-solve (DESIGN.md, Substitution 9).

Semantics
---------
* The session state is always *realizable*: an ``add_column`` whose
  reduction fails is **refused** — the column is not admitted, the failed
  reduction leaves the tree exactly as it was, and (with ``certify=True``) the
  refusal carries a checked :class:`~repro.certify.TuckerWitness` extracted
  by the existing :mod:`repro.certify` narrower from the current column
  set plus the offending column.  There is no "rejected session" state to
  recover from.
* ``remove_column`` deletes the first matching occurrence: the tree keeps
  one journal entry per accepted column, rolls back to just before the
  victim and replays only the columns accepted after it (C1P/circular-ones
  are closed under column deletion, so the replay cannot fail).  The
  state is therefore *deterministic in the accepted history*: it is always
  a fresh tree reduced by the live columns in arrival order, so a crashed
  serve worker re-applies the session's live columns and lands on a
  byte-identical tree (``tests/test_serve_stress.py``).
* Circular mode rides Tucker's pivot complementation: fix the pivot atom
  (the first atom of the universe) and complement every added column
  containing it with respect to the universe.  The transformed family has
  C1P iff the original has circular-ones, and any PQ frontier of the
  transformed family is a valid circular layout of the original — a block
  of complemented-consecutive atoms is exactly a circular arc.

Differential contract: after every delta the accepted column set agrees
byte-for-byte with a from-scratch ``path_realization``/``cycle_realization``
on status, the layout verifies, and refusal witnesses equal the from-scratch
extraction (``tests/test_incremental_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from ..ensemble import Ensemble
from ..errors import IncrementalError, PQTreeError
from ..obs.trace import current_tracer
from ..pqtree.pqtree import PQTree

Atom = Hashable

__all__ = ["DeltaOutcome", "IncrementalSolver"]

#: delta operation names, as they appear on outcomes and in delta streams.
OP_OPEN, OP_ADD, OP_REMOVE = "open", "add", "remove"


@dataclass(frozen=True)
class DeltaOutcome:
    """The result of applying one delta to an :class:`IncrementalSolver`.

    ``accepted`` is ``False`` only for a refused ``add``; the session state
    is unchanged in that case.  ``order`` is the current layout of the
    accepted columns after the delta (always present — the state is always
    realizable).  ``certificate`` carries the refusal's
    :class:`~repro.certify.TuckerWitness` when the add was refused with
    ``certify=True``, else ``None``.
    """

    op: str
    accepted: bool
    order: tuple = ()
    certificate: object | None = None
    num_columns: int = 0

    @property
    def status(self) -> str:
        """``"realized"`` / ``"rejected"``, matching batch-layer naming."""
        return "realized" if self.accepted else "rejected"


@dataclass
class _History:
    """The accepted column sequence (the replayable part of the state)."""

    columns: list = field(default_factory=list)


class IncrementalSolver:
    """PQ-tree session state over a stream of column add/remove deltas."""

    def __init__(
        self,
        atoms: Iterable[Atom],
        *,
        circular: bool = False,
        kernel: str = "indexed",
        engine: str | None = None,
    ) -> None:
        self._atoms = tuple(atoms)
        if len(set(self._atoms)) != len(self._atoms):
            raise IncrementalError("atom universe contains duplicates")
        self._universe = frozenset(self._atoms)
        self._circular = bool(circular)
        self._kernel = kernel
        self._engine = engine
        self._pivot = self._atoms[0] if self._circular and self._atoms else None
        self._history = _History()
        self._tree = PQTree(self._atoms)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def atoms(self) -> tuple:
        return self._atoms

    @property
    def circular(self) -> bool:
        return self._circular

    @property
    def num_columns(self) -> int:
        return len(self._history.columns)

    @property
    def columns(self) -> tuple:
        """The accepted columns, in arrival order (refused adds excluded)."""
        return tuple(self._history.columns)

    def ensemble(self) -> Ensemble:
        """The accepted state as a plain :class:`~repro.ensemble.Ensemble`."""
        return Ensemble(self._atoms, tuple(self._history.columns))

    def layout(self) -> tuple:
        """A layout realizing every accepted column.

        Linear mode: a consecutive-ones order (the PQ frontier).  Circular
        mode: a circular-ones order — the frontier of the pivot-transformed
        family, valid because each transformed block is a circular arc of
        the original columns.
        """
        return tuple(self._tree.frontier())

    # ------------------------------------------------------------------ #
    # deltas
    # ------------------------------------------------------------------ #
    def _validated(self, column: Iterable[Atom]) -> frozenset:
        col = frozenset(column)
        unknown = col - self._universe
        if unknown:
            raise IncrementalError(
                f"column references atoms outside the session universe: "
                f"{sorted(map(repr, unknown))}"
            )
        return col

    def _transform(self, col: frozenset) -> frozenset:
        if self._pivot is not None and self._pivot in col:
            return self._universe - col
        return col

    def add_column(
        self, column: Iterable[Atom], *, certify: bool = False
    ) -> DeltaOutcome:
        """Admit ``column`` via one Booth–Lueker reduction, or refuse it.

        A refused add leaves the session byte-for-byte unchanged: a failed
        reduction undoes its own rewrites, so crash-replayed state cannot
        diverge from the original.  With ``certify=True`` the refusal carries a Tucker witness over
        ``accepted columns + [column]``, whose ``row_indices`` index that
        column list (the offending column is index ``num_columns``).
        """
        col = self._validated(column)
        if self._tree.reduce(self._transform(col)):
            self._history.columns.append(col)
            return DeltaOutcome(
                op=OP_ADD,
                accepted=True,
                order=self.layout(),
                num_columns=self.num_columns,
            )
        certificate = None
        if certify:
            from ..certify.witness import extract_tucker_witness

            rejected = Ensemble(
                self._atoms, tuple(self._history.columns) + (col,)
            )
            certificate = extract_tucker_witness(
                rejected,
                kernel=self._kernel,
                engine=self._engine,
                circular=self._circular,
                assume_rejected=True,
            )
        return DeltaOutcome(
            op=OP_ADD,
            accepted=False,
            order=self.layout(),
            certificate=certificate,
            num_columns=self.num_columns,
        )

    def remove_column(self, column: Iterable[Atom]) -> DeltaOutcome:
        """Retire the first accepted occurrence of ``column`` by rollback.

        Raises :class:`~repro.errors.IncrementalError` when no accepted
        column matches.  The tree journals one entry per accepted column,
        so it rolls back to the state just before the victim
        (:meth:`~repro.pqtree.PQTree.rollback`) and replays only the
        columns accepted after it, in arrival order — deletion cannot
        invalidate a realizable set, so every replayed reduction succeeds.
        The result is the tree a fresh replay of the surviving columns
        would build.  One ``pqtree.replay`` span covers the rollback and
        the replay, with the victim's ``position`` and the number of
        columns ``replayed``.
        """
        col = self._validated(column)
        columns = self._history.columns
        try:
            position = columns.index(col)
        except ValueError:
            raise IncrementalError(
                "remove_column: no accepted column matches the given atom set"
            ) from None
        later = columns[position + 1 :]
        with current_tracer().span(
            "pqtree.replay", position=position, replayed=len(later)
        ):
            self._tree.rollback(position)
            del columns[position:]
            for accepted in later:
                if not self._tree.reduce(self._transform(accepted)):
                    raise PQTreeError(
                        "replay of accepted columns failed after a removal; "
                        "the property is closed under deletion, so this is a bug"
                    )
                columns.append(accepted)
        return DeltaOutcome(
            op=OP_REMOVE,
            accepted=True,
            order=self.layout(),
            num_columns=self.num_columns,
        )

    def apply(self, op: str, column: Iterable[Atom] = (), *, certify: bool = False):
        """Dispatch one ``("add" | "remove", column)`` delta by name."""
        if op == OP_ADD:
            return self.add_column(column, certify=certify)
        if op == OP_REMOVE:
            return self.remove_column(column)
        raise IncrementalError(f"unknown delta op {op!r}")
