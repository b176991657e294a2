"""Tests for the integer-indexed solver kernel (repro.core.indexed / bitset).

Covers the bitmask primitives, the :class:`IndexedEnsemble` compilation and
the kernel's Tucker transform against their :class:`Ensemble` counterparts,
the components branch, the degenerate-input suite, and the kernel-vs-reference
equivalence sweep over the generator families (C1P positives,
perturbed/Tucker negatives, circular instances).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BinaryMatrix, Ensemble, SolverStats
from repro.core import (
    IndexedEnsemble,
    cycle_realization,
    path_realization,
    solve_cycle_indexed,
    solve_path_indexed,
)
from repro.core.bitset import (
    SORTED_FALLBACK_WIDTH,
    all_circular_consecutive,
    all_consecutive,
    is_permutation_of,
    mask_from_indices,
    mask_to_indices,
)
from repro.core.indexed import _component_ensemble, _tucker_masks
from repro.ensemble import verify_circular_layout, verify_linear_layout
from repro.generators import (
    non_c1p_ensemble,
    random_c1p_ensemble,
    random_circular_ensemble,
    random_ensemble,
    shuffle_ensemble,
    tucker_m1,
    tucker_m2,
    tucker_m3,
    tucker_m4,
    tucker_m5,
)


# ---------------------------------------------------------------------- #
# bitset primitives
# ---------------------------------------------------------------------- #
class TestBitset:
    def test_roundtrip_small(self):
        for indices in ([], [0], [3, 1, 7], list(range(64))):
            mask = mask_from_indices(indices)
            assert mask_to_indices(mask) == sorted(set(indices))

    def test_roundtrip_above_fallback_width(self):
        """Wide masks go through the byte-chunked sorted-array path."""
        indices = [0, 1, 63, SORTED_FALLBACK_WIDTH + 5, SORTED_FALLBACK_WIDTH + 900]
        mask = mask_from_indices(indices)
        assert mask.bit_length() > SORTED_FALLBACK_WIDTH
        assert mask_to_indices(mask) == sorted(indices)

    def test_rejects_negative_mask(self):
        with pytest.raises(ValueError):
            mask_to_indices(-1)

    def test_is_permutation_of(self):
        universe = mask_from_indices([0, 1, 2])
        assert is_permutation_of([2, 0, 1], universe)
        assert not is_permutation_of([0, 1], universe)
        assert not is_permutation_of([0, 1, 1], universe)
        assert not is_permutation_of([0, 1, 2, 3], universe)

    def test_all_consecutive(self):
        order = [4, 2, 0, 1, 3]
        assert all_consecutive(order, [mask_from_indices([2, 0])])
        assert all_consecutive(order, [mask_from_indices([0, 1, 3])])
        assert not all_consecutive(order, [mask_from_indices([4, 0])])
        # a column atom missing from the order fails
        assert not all_consecutive([0, 1], [mask_from_indices([5])])

    def test_all_circular_consecutive_wraps(self):
        order = [0, 1, 2, 3, 4]
        assert all_circular_consecutive(order, [mask_from_indices([4, 0])])
        assert all_circular_consecutive(order, [mask_from_indices([3, 4, 0, 1])])
        assert not all_circular_consecutive(order, [mask_from_indices([0, 2])])

    @given(
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_set_level_checks(self, n, seed):
        from repro.ensemble import is_circular_consecutive, is_consecutive

        rng = random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        col = {a for a in range(n) if rng.random() < 0.5}
        mask = mask_from_indices(col)
        assert all_consecutive(order, [mask]) == is_consecutive(order, col)
        assert all_circular_consecutive(order, [mask]) == is_circular_consecutive(
            order, col
        )


# ---------------------------------------------------------------------- #
# IndexedEnsemble structural operations
# ---------------------------------------------------------------------- #
class TestIndexedEnsemble:
    def test_compile_roundtrip(self):
        ens = Ensemble(("a", "b", "c"), (frozenset("ab"), frozenset("bc")))
        indexed = IndexedEnsemble.from_ensemble(ens)
        assert indexed.num_atoms == 3
        assert indexed.num_columns == 2
        assert indexed.total_size == ens.total_size
        back = indexed.to_ensemble()
        assert back.atoms == ens.atoms
        assert back.columns == ens.columns
        assert back.column_names == ens.column_names

    def test_rejects_out_of_range_mask(self):
        from repro.errors import InvalidEnsembleError

        with pytest.raises(InvalidEnsembleError):
            IndexedEnsemble(("a",), (0b10,))

    def test_component_ensemble_redensifies(self):
        # Atoms 1, 2 and 4 of a split component become indices 0, 1 and 2,
        # labelled by default with their old indices.
        masks = [mask_from_indices([1, 2]), mask_from_indices([2, 4])]
        part = _component_ensemble([1, 2, 4], masks)
        assert part.atoms == (1, 2, 4)
        assert part.masks == (0b011, 0b110)
        # members 0 .. k-1 keep their masks; labels and names pass through
        part = _component_ensemble([0, 1], [0b11], atoms=("a", "b"), names=("c",))
        assert part.to_ensemble().columns == (frozenset("ab"),)
        assert part.to_ensemble().column_names == ("c",)

    def test_tucker_transform_matches_ensemble(self, rng):
        # The kernel's Case 2b transform: the fresh atom r is index n.
        for _ in range(10):
            inst = random_c1p_ensemble(7, 5, rng)
            indexed = IndexedEnsemble.from_ensemble(inst.ensemble)
            n = indexed.num_atoms
            masks = _tucker_masks((1 << (n + 1)) - 1, n + 1, indexed.masks)
            atoms = indexed.atoms + ("__r__",)
            transformed = {
                frozenset(atoms[i] for i in mask_to_indices(mask)) for mask in masks
            }
            expected = inst.ensemble.tucker_transform("__r__")
            assert transformed == set(expected.columns)

    def test_kernel_transform_atom_cannot_collide_with_a_label(self):
        # The kernel's r atom is the fresh index n, never a label, so a
        # universe that already holds the label "__r__" still takes Case 2b.
        atoms = ("__r__", "a1", "a2", "a3", "a4", "a5")
        ens = Ensemble(
            atoms,
            (
                frozenset(atoms) - {"a4"},
                frozenset(atoms) - {"__r__"},
                frozenset({"a1", "a2", "a5"}),
            ),
        )
        stats = SolverStats()
        order = path_realization(ens, stats)
        assert stats.case_counts.get("case2b") == 1
        assert order is not None and verify_linear_layout(ens, order)


# ---------------------------------------------------------------------- #
# the components branch
# ---------------------------------------------------------------------- #
class TestComponentsBranch:
    def test_trivial_components_are_laid_out_inline(self, monkeypatch):
        # Two column-bearing components and 2,993 uncovered atoms: only the
        # top level and the two components cost a recursive call, while
        # the stats still enter every component as its own subproblem.
        import repro.core.indexed as indexed_module

        ens = Ensemble(tuple(range(3000)), ({0, 1, 2}, {10, 11, 12, 13}))
        calls = []
        path_rec = indexed_module._path_rec

        def counting(*args):
            calls.append(args[0])
            return path_rec(*args)

        monkeypatch.setattr(indexed_module, "_path_rec", counting)
        stats = SolverStats()
        order = solve_path_indexed(IndexedEnsemble.from_ensemble(ens), stats)
        assert order == list(range(3000))
        assert len(calls) == 3
        assert stats.subproblems == 2996

    def test_cycle_trivial_components_are_laid_out_inline(self, monkeypatch):
        # The cycle kernel's components branch shares the inline layout: the
        # two column-bearing components are the only path solves.
        import repro.core.indexed as indexed_module

        ens = Ensemble(tuple(range(3000)), ({0, 1, 2}, {10, 11, 12, 13}))
        calls = []
        path_rec = indexed_module._path_rec

        def counting(*args):
            calls.append(args[0])
            return path_rec(*args)

        monkeypatch.setattr(indexed_module, "_path_rec", counting)
        stats = SolverStats()
        order = solve_cycle_indexed(IndexedEnsemble.from_ensemble(ens), stats)
        assert order == list(range(3000))
        assert len(calls) == 2
        assert stats.case_counts == {"cycle-components": 1}
        assert stats.subproblems == 2996

    @pytest.mark.parametrize("realize", [path_realization, cycle_realization])
    def test_sparse_components_record_the_reference_recursion(self, realize):
        # Short columns over a wide universe leave uncovered atoms and
        # one- and two-atom components: laid out inline, they still give the
        # reference kernel's layout and its recursion record, call for call.
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(4, 30)
            columns = []
            for _ in range(rng.randint(0, 6)):
                start = rng.randrange(n)
                columns.append(
                    frozenset(range(start, min(n, start + rng.randint(1, 4))))
                )
            ens = Ensemble(tuple(range(n)), tuple(columns))
            indexed, reference = SolverStats(), SolverStats()
            order = realize(ens, indexed)
            assert order == realize(ens, reference, kernel="reference")
            for name in (
                "subproblems",
                "max_depth",
                "shapes_per_level",
                "case_counts",
                "splits",
            ):
                assert getattr(indexed, name) == getattr(reference, name), name


# ---------------------------------------------------------------------- #
# the kernel's merge steps
# ---------------------------------------------------------------------- #
class TestMaskMergeEntryPoints:
    def test_cheap_path_splice_splices_at_the_split_gap(self):
        from repro.core.merge import cheap_path_splice

        # side 1 = {0, 1}; side 2 = {2, 3} with the split gap between them
        # (split marker 4 in the merge_path tests); crossing column {1, 2}
        # forces 1 adjacent to 2, so only the reversed side 1 fits.
        crossing = [mask_from_indices([1, 2])]
        stats = SolverStats()
        merged = cheap_path_splice([0, 1], [2, 3], 1, crossing, stats)
        assert merged == [2, 1, 0, 3]
        assert (stats.merge_candidates, stats.merges) == (2, 1)

    def test_cheap_path_splice_rejects_impossible_crossing(self):
        from repro.core.merge import cheap_path_splice

        # both 0 and 1 would have to sit next to both 2 and 3: impossible.
        crossing = [mask_from_indices(c) for c in ([0, 2], [1, 2], [0, 3], [1, 3])]
        assert cheap_path_splice([0, 1], [2, 3], 1, crossing) is None

    def test_merge_path_splices_at_the_split_marker(self):
        from repro.core.merge import merge_path

        columns = [frozenset({0, 1}), frozenset({1, 2})]
        merged = merge_path([0, 1], [2, 4, 3], 4, columns)
        assert merged is not None and sorted(merged) == [0, 1, 2, 3]
        assert all_consecutive(merged, [mask_from_indices(c) for c in columns])

    def test_merge_path_rejects_impossible_crossing(self):
        from repro.core.merge import merge_path

        # The full alignment machinery, the kernel's last merge step, finds
        # no realignment of either side that fits the crossing either.
        columns = [frozenset(c) for c in ({0, 2}, {1, 2}, {0, 3}, {1, 3})]
        assert merge_path([0, 1], [2, 4, 3], 4, columns) is None

    def test_merge_cycle_masks_glues_paths(self):
        from repro.core.merge import merge_cycle_masks

        columns = [mask_from_indices([1, 2]), mask_from_indices([3, 0])]
        merged = merge_cycle_masks([0, 1], [2, 3], columns)
        assert merged is not None
        assert all_circular_consecutive(merged, columns)


# ---------------------------------------------------------------------- #
# degenerate inputs
# ---------------------------------------------------------------------- #
class TestDegenerateInputs:
    def test_empty_ensemble(self):
        ens = Ensemble((), ())
        for kernel in ("indexed", "reference"):
            assert path_realization(ens, kernel=kernel) == []
            assert cycle_realization(ens, kernel=kernel) == []

    def test_single_atom_universe(self):
        ens = Ensemble(("a",), (frozenset("a"),))
        for kernel in ("indexed", "reference"):
            assert path_realization(ens, kernel=kernel) == ["a"]

    def test_all_columns_equal_to_universe(self):
        atoms = tuple(range(6))
        ens = Ensemble(atoms, tuple(frozenset(atoms) for _ in range(4)))
        for kernel in ("indexed", "reference"):
            order = path_realization(ens, kernel=kernel)
            assert order is not None and verify_linear_layout(ens, order)
            circ = cycle_realization(ens, kernel=kernel)
            assert circ is not None and verify_circular_layout(ens, circ)

    def test_columnless_and_empty_column_ensembles(self):
        ens = Ensemble(tuple(range(4)), (frozenset(),))
        for kernel in ("indexed", "reference"):
            order = path_realization(ens, kernel=kernel)
            assert order is not None and verify_linear_layout(ens, order)

    def test_zero_row_and_zero_column_matrices(self):
        import numpy as np

        empty = BinaryMatrix(np.zeros((0, 0), dtype=int))
        assert empty.shape == (0, 0)
        assert path_realization(empty.row_ensemble()) == []

        no_rows = BinaryMatrix(np.zeros((0, 3), dtype=int))  # 0 x 3
        assert path_realization(no_rows.row_ensemble()) == []
        order = path_realization(no_rows.column_ensemble())
        assert order is not None and sorted(order) == ["c0", "c1", "c2"]

        no_cols = BinaryMatrix(np.zeros((3, 0), dtype=int))  # 3 x 0
        order = path_realization(no_cols.row_ensemble())
        assert order is not None and sorted(order) == ["r0", "r1", "r2"]

        tall = BinaryMatrix([[1], [1]])  # 2 x 1
        wide = BinaryMatrix([[1, 1]])  # 1 x 2
        for matrix in (tall, wide):
            order = path_realization(matrix.row_ensemble())
            assert order is not None
            assert matrix.verify_row_order(order)

    def test_indexed_empty_universe(self):
        indexed = IndexedEnsemble((), ())
        assert solve_path_indexed(indexed) == []
        assert solve_cycle_indexed(indexed) == []
        assert indexed.solve_path() == []


# ---------------------------------------------------------------------- #
# kernel-vs-reference equivalence sweep over the generators
# ---------------------------------------------------------------------- #
def _assert_kernels_agree_linear(ensemble: Ensemble) -> None:
    stats = SolverStats()
    indexed = path_realization(ensemble, stats)
    reference = path_realization(ensemble, kernel="reference")
    assert (indexed is None) == (reference is None)
    if indexed is not None:
        assert verify_linear_layout(ensemble, indexed)
        assert verify_linear_layout(ensemble, reference)
        assert stats.subproblems >= 1


def _assert_kernels_agree_circular(ensemble: Ensemble) -> None:
    indexed = cycle_realization(ensemble)
    reference = cycle_realization(ensemble, kernel="reference")
    assert (indexed is None) == (reference is None)
    if indexed is not None:
        assert verify_circular_layout(ensemble, indexed)
        assert verify_circular_layout(ensemble, reference)


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_planted_positive_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 36)
        m = rng.randint(1, 30)
        inst = random_c1p_ensemble(n, m, rng)
        _assert_kernels_agree_linear(inst.ensemble)

    @pytest.mark.parametrize("core", ["m1", "m2", "m3", "m4", "m5"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tucker_negative_instances(self, core, seed):
        rng = random.Random(seed)
        inst = non_c1p_ensemble(rng.randint(8, 24), rng.randint(4, 16), rng, core=core)
        assert path_realization(inst.ensemble) is None
        assert path_realization(inst.ensemble, kernel="reference") is None

    @pytest.mark.parametrize(
        "factory", [tucker_m1, tucker_m2, tucker_m3, tucker_m4, tucker_m5]
    )
    def test_bare_tucker_cores_rejected(self, factory):
        ens = factory()
        assert path_realization(ens) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_circular_instances(self, seed):
        rng = random.Random(seed)
        inst = random_circular_ensemble(rng.randint(4, 24), rng.randint(1, 20), rng)
        _assert_kernels_agree_circular(inst.ensemble)

    @pytest.mark.parametrize("seed", range(8))
    def test_unconstrained_random_instances(self, seed):
        rng = random.Random(seed)
        ens = random_ensemble(rng.randint(2, 14), rng.randint(1, 14), 0.35, rng)
        _assert_kernels_agree_linear(ens)
        _assert_kernels_agree_circular(ens)

    def test_shuffle_invariance(self, rng):
        inst = random_c1p_ensemble(20, 15, rng)
        shuffled = shuffle_ensemble(inst.ensemble, rng)
        _assert_kernels_agree_linear(shuffled)

    def test_equivalence_on_string_labelled_atoms(self, rng):
        inst = random_c1p_ensemble(15, 10, rng)
        renamed = inst.ensemble.relabel({i: f"atom-{i}" for i in range(15)})
        _assert_kernels_agree_linear(renamed)


@given(
    n=st.integers(min_value=2, max_value=12),
    m=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=40, deadline=None)
def test_property_kernels_agree_on_random_ensembles(n, m, seed):
    rng = random.Random(seed)
    ens = random_ensemble(n, m, 0.3, rng)
    assert (path_realization(ens) is None) == (
        path_realization(ens, kernel="reference") is None
    )


def test_unknown_kernel_rejected():
    ens = Ensemble(("a",), ())
    with pytest.raises(ValueError):
        path_realization(ens, kernel="warp-drive")
