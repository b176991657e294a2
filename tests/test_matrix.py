"""Tests for the BinaryMatrix front end."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import path_realization
from repro.ensemble import Ensemble
from repro.errors import InvalidEnsembleError
from repro.generators import random_c1p_ensemble
from repro.matrix import BinaryMatrix


class TestConstruction:
    def test_basic(self):
        m = BinaryMatrix([[1, 0], [0, 1]])
        assert m.shape == (2, 2)
        assert m.num_ones == 2
        assert m.row_names == ("r0", "r1")
        assert m.col_names == ("c0", "c1")

    def test_named(self):
        m = BinaryMatrix([[1]], row_names=["x"], col_names=["y"])
        assert m.row_names == ("x",) and m.col_names == ("y",)

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidEnsembleError):
            BinaryMatrix([[0, 2]])

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidEnsembleError):
            BinaryMatrix([1, 0, 1])

    def test_rejects_name_mismatch(self):
        with pytest.raises(InvalidEnsembleError):
            BinaryMatrix([[1, 0]], row_names=["a", "b"])

    def test_rejects_explicit_empty_names_for_nonempty_axis(self):
        """Regression: an explicitly passed empty sequence must not be
        silently replaced by generated default names."""
        with pytest.raises(InvalidEnsembleError):
            BinaryMatrix([[1, 0]], row_names=[])
        with pytest.raises(InvalidEnsembleError):
            BinaryMatrix([[1, 0]], col_names=())

    def test_empty_names_accepted_for_empty_axis(self):
        m = BinaryMatrix(np.zeros((0, 2), dtype=int), row_names=[])
        assert m.row_names == ()
        assert m.col_names == ("c0", "c1")

    def test_equality(self):
        assert BinaryMatrix([[1, 0]]) == BinaryMatrix([[1, 0]])
        assert BinaryMatrix([[1, 0]]) != BinaryMatrix([[0, 1]])

    def test_data_is_copied(self):
        arr = np.array([[1, 0], [0, 1]])
        m = BinaryMatrix(arr)
        arr[0, 0] = 0
        assert m.num_ones == 2
        out = m.data
        out[0, 0] = 0
        assert m.num_ones == 2


class TestEnsembleConversion:
    def test_row_ensemble_follows_paper_convention(self):
        # column j becomes the set of rows holding a one
        m = BinaryMatrix([[1, 0], [1, 1], [0, 1]])
        ens = m.row_ensemble()
        assert ens.atoms == ("r0", "r1", "r2")
        assert ens.columns[0] == frozenset({"r0", "r1"})
        assert ens.columns[1] == frozenset({"r1", "r2"})

    def test_column_ensemble_follows_bio_convention(self):
        m = BinaryMatrix([[1, 0], [1, 1], [0, 1]])
        ens = m.column_ensemble()
        assert ens.atoms == ("c0", "c1")
        assert ens.columns[0] == frozenset({"c0"})

    def test_round_trip_through_ensemble(self):
        ens = Ensemble(("x", "y"), (frozenset({"x"}), frozenset({"x", "y"})))
        m = BinaryMatrix.from_ensemble(ens)
        assert m.shape == (2, 2)
        back = m.row_ensemble()
        assert set(back.columns) == set(ens.columns)


class TestPermutations:
    def test_permute_rows(self):
        m = BinaryMatrix([[1, 0], [0, 1]], row_names=["a", "b"])
        p = m.permute_rows(["b", "a"])
        assert p.row_names == ("b", "a")
        assert p.data.tolist() == [[0, 1], [1, 0]]

    def test_permute_columns(self):
        m = BinaryMatrix([[1, 0], [0, 1]], col_names=["a", "b"])
        p = m.permute_columns(["b", "a"])
        assert p.data.tolist() == [[0, 1], [1, 0]]

    def test_permute_requires_full_order(self):
        m = BinaryMatrix([[1, 0], [0, 1]])
        with pytest.raises(InvalidEnsembleError):
            m.permute_rows(["r0"])

    def test_consecutive_checks(self):
        assert BinaryMatrix([[1], [1], [0]]).columns_are_consecutive()
        assert not BinaryMatrix([[1], [0], [1]]).columns_are_consecutive()
        assert BinaryMatrix([[1, 1, 0]]).rows_are_consecutive()
        assert not BinaryMatrix([[1, 0, 1]]).rows_are_consecutive()


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(5))
    def test_solver_row_order_applies_to_matrix(self, seed):
        rng = random.Random(seed)
        inst = random_c1p_ensemble(10, 8, rng)
        m = BinaryMatrix.from_ensemble(inst.ensemble)
        order = path_realization(m.row_ensemble())
        assert order is not None
        assert m.verify_row_order(order)
        permuted = m.permute_rows(order)
        assert permuted.columns_are_consecutive()


@given(
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_property_transpose_swaps_conventions(rows, cols, seed):
    rng = np.random.default_rng(seed)
    data = (rng.random((rows, cols)) < 0.4).astype(int)
    m = BinaryMatrix(data)
    t = BinaryMatrix(data.T, row_names=m.col_names, col_names=m.row_names)
    assert sorted(map(sorted, (tuple(sorted(map(str, c))) for c in m.row_ensemble().columns))) == sorted(
        map(sorted, (tuple(sorted(map(str, c))) for c in t.column_ensemble().columns))
    )


def test_package_and_cli_import_without_numpy():
    """Only ``BinaryMatrix`` needs numpy, and it imports it when used: a
    fresh interpreter imports ``repro`` and ``repro.cli`` without loading
    it, so ``repro lint`` runs where numpy is not installed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, repro, repro.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
