"""Ensembles of atoms and columns (Section 2 of the paper).

The paper poses the consecutive-ones property in terms of *ensembles*: an
ensemble ``(A, C)`` is a finite set ``A`` of atoms together with a collection
``C`` of columns, each column being a subset of ``A``.  The C1P problem asks
for a linear layout of the atoms such that every column occupies a contiguous
block of the layout; the circular-ones problem asks the same for a circular
layout.

This module provides the :class:`Ensemble` container plus the structural
operations the divide-and-conquer algorithm needs:

* restriction of an ensemble to a subset of atoms (sub-ensembles),
* connected components of the associated bipartite graph,
* the Tucker transform of Section 3.2 (complement big columns with respect to
  ``A ∪ {r}``), used to reduce Case 2 of the divide step to a circular-ones
  instance, and
* verification helpers that check a proposed linear or circular layout.

Atoms may be arbitrary hashable labels; internally most algorithms work with
the atom *indices* ``0 .. n-1`` in the order given by :attr:`Ensemble.atoms`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InvalidEnsembleError

Atom = Hashable

__all__ = [
    "Ensemble",
    "is_consecutive",
    "is_circular_consecutive",
    "verify_linear_layout",
    "verify_circular_layout",
]


def _as_frozensets(columns: Iterable[Iterable[Atom]]) -> tuple[frozenset, ...]:
    return tuple(frozenset(col) for col in columns)


@dataclass(frozen=True)
class Ensemble:
    """An ensemble ``(A, C)``: atoms plus a collection of columns.

    Parameters
    ----------
    atoms:
        The atom universe, in a fixed order.  Order matters only for
        presentation (layouts are reported in terms of these labels).
    columns:
        The columns, each a subset of ``atoms``.
    column_names:
        Optional display names, one per column.  When omitted, columns are
        named ``"c0", "c1", ...``.
    """

    atoms: tuple[Atom, ...]
    columns: tuple[frozenset, ...]
    column_names: tuple[str, ...] = field(default=())

    # ------------------------------------------------------------------ #
    # construction / validation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "columns", _as_frozensets(self.columns))
        if len(set(self.atoms)) != len(self.atoms):
            raise InvalidEnsembleError("duplicate atoms in ensemble")
        if not self.column_names:
            names = tuple(f"c{i}" for i in range(len(self.columns)))
            object.__setattr__(self, "column_names", names)
        else:
            object.__setattr__(self, "column_names", tuple(self.column_names))
        if len(self.column_names) != len(self.columns):
            raise InvalidEnsembleError(
                "column_names length does not match number of columns"
            )
        atom_set = set(self.atoms)
        for name, col in zip(self.column_names, self.columns):
            extra = col - atom_set
            if extra:
                raise InvalidEnsembleError(
                    f"column {name!r} references atoms outside the universe: {sorted(map(repr, extra))}"
                )

    @classmethod
    def from_columns(
        cls,
        columns: Iterable[Iterable[Atom]],
        atoms: Sequence[Atom] | None = None,
        column_names: Sequence[str] | None = None,
    ) -> "Ensemble":
        """Build an ensemble from columns, inferring atoms when not given.

        When ``atoms`` is ``None`` the atom universe is the union of the
        columns, sorted when sortable (falling back to insertion order).
        """
        cols = _as_frozensets(columns)
        if atoms is None:
            seen: dict[Atom, None] = {}
            for col in cols:
                for a in col:
                    seen.setdefault(a, None)
            try:
                universe: tuple[Atom, ...] = tuple(sorted(seen))
            except TypeError:
                universe = tuple(seen)
        else:
            universe = tuple(atoms)
        return cls(universe, cols, tuple(column_names or ()))

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def total_size(self) -> int:
        """``p``: the sum of column cardinalities (the number of ones)."""
        return sum(len(c) for c in self.columns)

    def atom_index(self) -> dict[Atom, int]:
        """Mapping from atom label to its index in :attr:`atoms`."""
        return {a: i for i, a in enumerate(self.atoms)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Ensemble(n={self.num_atoms}, m={self.num_columns}, p={self.total_size})"
        )

    # ------------------------------------------------------------------ #
    # structural operations
    # ------------------------------------------------------------------ #
    def restrict(self, atom_subset: Iterable[Atom], *, drop_empty: bool = True) -> "Ensemble":
        """The sub-ensemble induced by ``atom_subset`` (Section 3).

        Each column is intersected with the subset; empty restrictions are
        dropped unless ``drop_empty`` is false.  Atom order is inherited from
        the parent ensemble.
        """
        subset = set(atom_subset)
        unknown = subset - set(self.atoms)
        if unknown:
            raise InvalidEnsembleError(
                f"restriction references unknown atoms: {sorted(map(repr, unknown))}"
            )
        new_atoms = tuple(a for a in self.atoms if a in subset)
        new_cols: list[frozenset] = []
        new_names: list[str] = []
        for name, col in zip(self.column_names, self.columns):
            inter = col & subset
            if inter or not drop_empty:
                new_cols.append(frozenset(inter))
                new_names.append(name)
        return Ensemble(new_atoms, tuple(new_cols), tuple(new_names))

    def drop_trivial_columns(self, *, max_size: int = 1, drop_full: bool = False) -> "Ensemble":
        """Remove columns with at most ``max_size`` atoms (Step 1 of Fig. 3).

        When ``drop_full`` is true, columns equal to the whole atom set are
        removed as well; such columns are contiguous in every layout and carry
        no constraint.
        """
        full = frozenset(self.atoms)
        keep_cols: list[frozenset] = []
        keep_names: list[str] = []
        for name, col in zip(self.column_names, self.columns):
            if len(col) <= max_size:
                continue
            if drop_full and col == full:
                continue
            keep_cols.append(col)
            keep_names.append(name)
        return Ensemble(self.atoms, tuple(keep_cols), tuple(keep_names))

    def deduplicate_columns(self) -> "Ensemble":
        """Keep a single representative of every distinct column set."""
        seen: set[frozenset] = set()
        keep_cols: list[frozenset] = []
        keep_names: list[str] = []
        for name, col in zip(self.column_names, self.columns):
            if col in seen:
                continue
            seen.add(col)
            keep_cols.append(col)
            keep_names.append(name)
        return Ensemble(self.atoms, tuple(keep_cols), tuple(keep_names))

    def components(self) -> list[tuple[Atom, ...]]:
        """Connected components of the associated bipartite graph (Section 3).

        Two atoms are in the same component when they are linked by a chain of
        columns with pairwise shared atoms.  Atoms contained in no column form
        singleton components.  Returned components preserve atom order.
        """
        index = self.atom_index()
        parent = list(range(self.num_atoms))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        for col in self.columns:
            ids = [index[a] for a in col]
            for other in ids[1:]:
                union(ids[0], other)

        groups: dict[int, list[Atom]] = {}
        for i, atom in enumerate(self.atoms):
            groups.setdefault(find(i), []).append(atom)
        return [tuple(v) for v in groups.values()]

    def is_connected(self) -> bool:
        """True when the ensemble has a single component spanning all atoms."""
        comps = self.components()
        return len(comps) <= 1

    def overlap_components(self) -> list[list[int]]:
        """Connected components of columns under the shares-an-atom relation.

        Returns lists of column indices.  Columns with no atoms form singleton
        components.  Used by the divide step (Section 3.2) to grow connected
        collections of columns, and by tests.
        """
        m = self.num_columns
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        atom_to_first: dict[Atom, int] = {}
        for ci, col in enumerate(self.columns):
            for a in col:
                if a in atom_to_first:
                    union(atom_to_first[a], ci)
                else:
                    atom_to_first[a] = ci
        groups: dict[int, list[int]] = {}
        for ci in range(m):
            groups.setdefault(find(ci), []).append(ci)
        return list(groups.values())

    # ------------------------------------------------------------------ #
    # the Tucker transform (Section 3.2, Case 2)
    # ------------------------------------------------------------------ #
    def tucker_transform(self, new_atom: Atom = "__r__") -> "Ensemble":
        """The transform of Section 3.2: ``(A', C') = Transform((A, C))``.

        A new atom ``r`` is appended to the universe, and every column with
        more than ``2|A'|/3`` atoms is replaced by its complement with respect
        to ``A' = A ∪ {r}``.  The transformed ensemble has the circular-ones
        property if and only if the original has the consecutive-ones property
        (Tucker 1972; used by the paper to handle Case 2 of the divide step).
        """
        if new_atom in self.atoms:
            raise InvalidEnsembleError(
                f"transform atom {new_atom!r} already present in the universe"
            )
        new_atoms = self.atoms + (new_atom,)
        full = set(new_atoms)
        threshold = 2 * len(new_atoms) / 3
        new_cols: list[frozenset] = []
        new_names: list[str] = []
        for name, col in zip(self.column_names, self.columns):
            if len(col) > threshold:
                new_cols.append(frozenset(full - col))
                new_names.append(f"{name}~")
            else:
                new_cols.append(col)
                new_names.append(name)
        return Ensemble(new_atoms, tuple(new_cols), tuple(new_names))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_matrix(self) -> "list[list[int]]":
        """The (0,1)-matrix of the ensemble: rows are atoms, columns are columns."""
        index = self.atom_index()
        mat = [[0] * self.num_columns for _ in range(self.num_atoms)]
        for j, col in enumerate(self.columns):
            for a in col:
                mat[index[a]][j] = 1
        return mat

    def relabel(self, mapping: Mapping[Atom, Atom]) -> "Ensemble":
        """Rename atoms according to ``mapping`` (must be injective).

        Raises :class:`~repro.errors.InvalidEnsembleError` when two atoms map
        to the same new label (which would silently merge columns), naming
        the colliding labels.
        """
        new_atoms = tuple(mapping.get(a, a) for a in self.atoms)
        collisions = {
            label: [a for a in self.atoms if mapping.get(a, a) == label]
            for label, count in Counter(new_atoms).items()
            if count > 1
        }
        if collisions:
            detail = "; ".join(
                f"{sorted(map(repr, sources))} -> {label!r}"
                for label, sources in sorted(collisions.items(), key=lambda kv: repr(kv[0]))
            )
            raise InvalidEnsembleError(f"relabel mapping is not injective: {detail}")
        new_cols = tuple(frozenset(mapping.get(a, a) for a in col) for col in self.columns)
        return Ensemble(new_atoms, new_cols, self.column_names)


# ---------------------------------------------------------------------- #
# layout verification helpers
# ---------------------------------------------------------------------- #
def is_consecutive(order: Sequence[Atom], column: Iterable[Atom]) -> bool:
    """True when ``column``'s atoms occupy consecutive positions in ``order``.

    Atoms of the column that do not appear in ``order`` make the answer
    ``False``.  Empty and singleton columns are trivially consecutive.
    """
    col = set(column)
    if len(col) <= 1:
        return col <= set(order)
    positions = [i for i, a in enumerate(order) if a in col]
    if len(positions) != len(col):
        return False
    return positions[-1] - positions[0] == len(positions) - 1


def is_circular_consecutive(order: Sequence[Atom], column: Iterable[Atom]) -> bool:
    """True when ``column`` occupies a contiguous arc of the circular ``order``."""
    col = set(column)
    n = len(order)
    if len(col) <= 1 or len(col) >= n:
        return col <= set(order)
    member = [1 if a in col else 0 for a in order]
    if sum(member) != len(col):
        return False
    # The column is an arc iff the 0/1 circular sequence has exactly one
    # maximal run of ones, i.e. exactly one 0->1 transition.
    transitions = sum(
        1 for i in range(n) if member[i] == 0 and member[(i + 1) % n] == 1
    )
    return transitions == 1


def verify_linear_layout(ensemble: Ensemble, order: Sequence[Atom]) -> bool:
    """Check that ``order`` is a valid consecutive-ones layout of ``ensemble``.

    ``order`` must be a permutation of the ensemble's atoms and every column
    must be consecutive in it.  The permutation test compares the atoms
    themselves (two distinct atoms with equal ``repr`` never pass for each
    other).
    """
    if Counter(order) != Counter(ensemble.atoms):
        return False
    return all(is_consecutive(order, col) for col in ensemble.columns)


def verify_circular_layout(ensemble: Ensemble, order: Sequence[Atom]) -> bool:
    """Check that ``order`` is a valid circular-ones layout of ``ensemble``."""
    if Counter(order) != Counter(ensemble.atoms):
        return False
    return all(is_circular_consecutive(order, col) for col in ensemble.columns)
