"""(0,1)-matrix front end for the consecutive-ones machinery.

The paper states the problem on a (0,1)-matrix ``A``: *is there a permutation
of the rows such that in each column all non-zero entries are adjacent?*  The
physical-mapping motivation in Section 1.1 uses the transposed convention
(permute the STS columns so that each clone row becomes a block of ones); both
are exposed here.

:class:`BinaryMatrix` wraps a NumPy array and converts to/from the
:class:`~repro.ensemble.Ensemble` representation used by the solvers.
NumPy is imported only when a matrix is built or scanned: nothing else in
``repro`` uses it, so ``import repro`` neither needs nor loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .ensemble import Ensemble, verify_linear_layout
from .errors import InvalidEnsembleError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BinaryMatrix"]


class BinaryMatrix:
    """A dense (0,1)-matrix with named rows and columns.

    Parameters
    ----------
    data:
        Anything convertible to a 2-d NumPy array of zeros and ones.
    row_names, col_names:
        Optional labels; default to ``r0, r1, ...`` / ``c0, c1, ...``.
    """

    def __init__(
        self,
        data: Iterable[Iterable[int]] | np.ndarray,
        row_names: Sequence[str] | None = None,
        col_names: Sequence[str] | None = None,
    ) -> None:
        import numpy as np

        arr = np.asarray(data)
        if arr.ndim != 2:
            raise InvalidEnsembleError("matrix data must be two-dimensional")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise InvalidEnsembleError("matrix entries must be 0 or 1")
        self._data = arr.astype(np.int8, copy=True)
        nrows, ncols = self._data.shape
        # `is not None` (not truthiness): an explicitly passed empty sequence
        # for a non-empty axis must hit the length check below, not be
        # silently replaced by generated default names.
        self.row_names = (
            tuple(row_names) if row_names is not None else tuple(f"r{i}" for i in range(nrows))
        )
        self.col_names = (
            tuple(col_names) if col_names is not None else tuple(f"c{j}" for j in range(ncols))
        )
        if len(self.row_names) != nrows or len(self.col_names) != ncols:
            raise InvalidEnsembleError("row/column name lengths do not match matrix shape")

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def data(self) -> np.ndarray:
        """A copy of the underlying array."""
        return self._data.copy()

    @property
    def num_ones(self) -> int:
        """``p``: the total number of ones in the matrix."""
        return int(self._data.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (
            self._data.shape == other._data.shape
            and bool((self._data == other._data).all())
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        r, c = self.shape
        return f"BinaryMatrix({r}x{c}, ones={self.num_ones})"

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ensemble(cls, ensemble: Ensemble) -> "BinaryMatrix":
        """Matrix whose rows are the ensemble's atoms, columns its columns."""
        return cls(
            ensemble.to_matrix(),
            row_names=tuple(str(a) for a in ensemble.atoms),
            col_names=ensemble.column_names,
        )

    def row_ensemble(self) -> Ensemble:
        """The ensemble whose atoms are the matrix *rows* (the paper's convention).

        Column ``j`` of the matrix becomes the set of row labels where it has
        a one; a consecutive-ones layout of this ensemble is a row permutation
        making every column's ones adjacent.
        """
        import numpy as np

        cols = []
        for j in range(self.shape[1]):
            cols.append(frozenset(self.row_names[i] for i in np.flatnonzero(self._data[:, j])))
        return Ensemble(self.row_names, tuple(cols), self.col_names)

    def column_ensemble(self) -> Ensemble:
        """The ensemble whose atoms are the matrix *columns* (bio convention).

        Row ``i`` becomes the set of column labels where it has a one; a
        consecutive-ones layout of this ensemble is a column permutation
        making every row's ones adjacent (the physical-mapping view of
        Section 1.1: rows are clones, columns are STS probes).
        """
        import numpy as np

        rows = []
        for i in range(self.shape[0]):
            rows.append(frozenset(self.col_names[j] for j in np.flatnonzero(self._data[i, :])))
        return Ensemble(self.col_names, tuple(rows), self.row_names)

    # ------------------------------------------------------------------ #
    # permutation helpers
    # ------------------------------------------------------------------ #
    def permute_rows(self, order: Sequence[str]) -> "BinaryMatrix":
        """Return the matrix with rows rearranged into ``order`` (by name)."""
        index = {name: i for i, name in enumerate(self.row_names)}
        try:
            rows = [index[name] for name in order]
        except KeyError as exc:  # pragma: no cover - defensive
            raise InvalidEnsembleError(f"unknown row name {exc.args[0]!r}") from exc
        if len(rows) != len(self.row_names):
            raise InvalidEnsembleError("row order must mention every row exactly once")
        return BinaryMatrix(self._data[rows, :], tuple(order), self.col_names)

    def permute_columns(self, order: Sequence[str]) -> "BinaryMatrix":
        """Return the matrix with columns rearranged into ``order`` (by name)."""
        index = {name: j for j, name in enumerate(self.col_names)}
        try:
            cols = [index[name] for name in order]
        except KeyError as exc:  # pragma: no cover - defensive
            raise InvalidEnsembleError(f"unknown column name {exc.args[0]!r}") from exc
        if len(cols) != len(self.col_names):
            raise InvalidEnsembleError("column order must mention every column exactly once")
        return BinaryMatrix(self._data[:, cols], self.row_names, tuple(order))

    # ------------------------------------------------------------------ #
    # consecutive-ones checks on concrete matrices
    # ------------------------------------------------------------------ #
    def columns_are_consecutive(self) -> bool:
        """True when, in the current row order, every column's ones are adjacent."""
        import numpy as np

        for j in range(self.shape[1]):
            ones = np.flatnonzero(self._data[:, j])
            if len(ones) > 1 and ones[-1] - ones[0] != len(ones) - 1:
                return False
        return True

    def rows_are_consecutive(self) -> bool:
        """True when, in the current column order, every row's ones are adjacent."""
        import numpy as np

        for i in range(self.shape[0]):
            ones = np.flatnonzero(self._data[i, :])
            if len(ones) > 1 and ones[-1] - ones[0] != len(ones) - 1:
                return False
        return True

    def verify_row_order(self, order: Sequence[str]) -> bool:
        """Check a candidate row permutation against the paper's C1P definition."""
        return verify_linear_layout(self.row_ensemble(), tuple(order))

    def verify_column_order(self, order: Sequence[str]) -> bool:
        """Check a candidate column permutation (bio convention)."""
        return verify_linear_layout(self.column_ensemble(), tuple(order))
