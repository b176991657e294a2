"""Tests for the PQ-tree baseline, cross-validated against brute force and
the divide-and-conquer solver."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bruteforce import brute_force_has_c1p
from repro.core import path_realization
from repro.ensemble import Ensemble, verify_linear_layout
from repro.errors import PQTreeError
from repro.generators import (
    non_c1p_ensemble,
    random_c1p_ensemble,
    random_ensemble,
    tucker_m1,
    tucker_m2,
    tucker_m3,
    tucker_m4,
    tucker_m5,
)
from repro.pqtree import PQTree, pqtree_consecutive_ones_order, pqtree_has_c1p


class TestPQTreeBasics:
    def test_frontier_of_fresh_tree(self):
        tree = PQTree("abcd")
        assert sorted(tree.frontier()) == ["a", "b", "c", "d"]

    def test_empty_ground_set(self):
        tree = PQTree(())
        assert tree.frontier() == []
        assert tree.reduce(())

    def test_duplicate_ground_set_rejected(self):
        with pytest.raises(PQTreeError):
            PQTree("aa")

    def test_unknown_element_rejected(self):
        tree = PQTree("ab")
        with pytest.raises(PQTreeError):
            tree.reduce({"z"})

    def test_trivial_reductions_always_succeed(self):
        tree = PQTree("abcd")
        assert tree.reduce(set())
        assert tree.reduce({"a"})
        assert tree.reduce({"a", "b", "c", "d"})

    def test_single_reduction_groups_elements(self):
        tree = PQTree("abcde")
        assert tree.reduce({"b", "d"})
        frontier = tree.frontier()
        positions = [frontier.index(x) for x in ("b", "d")]
        assert abs(positions[0] - positions[1]) == 1

    def test_incompatible_reductions_fail(self):
        tree = PQTree("abc")
        assert tree.reduce({"a", "b"})
        assert tree.reduce({"b", "c"})
        assert not tree.reduce({"a", "c"})

    def test_failed_reduction_leaves_tree_unchanged(self):
        # P4/P5/Q2 rewrite a child's children before an ancestor fails; the
        # failed reduce must undo them (here it used to leave 10 leaves for
        # 9 atoms).
        tree = PQTree(range(9))
        for subset in ({0, 1, 3, 4, 5, 8}, {3, 5}, {1, 3, 4, 5, 6, 7, 8}, {3, 4, 8}):
            assert tree.reduce(subset)
        before = tree.frontier()
        assert not tree.reduce({1, 2, 4, 6, 8})
        assert tree.frontier() == before
        assert sorted(before) == list(range(9))

    def test_chain_of_overlapping_pairs(self):
        tree = PQTree(range(6))
        for i in range(5):
            assert tree.reduce({i, i + 1})
        assert tree.frontier() in (list(range(6)), list(range(5, -1, -1)))

    def test_frontier_always_satisfies_reduced_sets(self):
        rng = random.Random(11)
        tree = PQTree(range(9))
        reduced = []
        for _ in range(12):
            size = rng.randint(2, 5)
            start = rng.randint(0, 9 - size)
            s = set(range(start, start + size))
            assert tree.reduce(s)
            reduced.append(s)
            frontier = tree.frontier()
            ens = Ensemble(tuple(range(9)), tuple(frozenset(x) for x in reduced))
            assert verify_linear_layout(ens, frontier)


class TestPQTreeOnEnsembles:
    @pytest.mark.parametrize("seed", range(15))
    def test_planted_positive_instances(self, seed):
        rng = random.Random(seed)
        inst = random_c1p_ensemble(rng.randint(3, 25), rng.randint(1, 30), rng)
        order = pqtree_consecutive_ones_order(inst.ensemble)
        assert order is not None
        assert verify_linear_layout(inst.ensemble, order)

    @pytest.mark.parametrize(
        "ens",
        [tucker_m1(1), tucker_m1(3), tucker_m2(1), tucker_m2(2), tucker_m3(1), tucker_m4(), tucker_m5()],
        ids=["m1k1", "m1k3", "m2k1", "m2k2", "m3k1", "m4", "m5"],
    )
    def test_tucker_configurations_rejected(self, ens):
        assert not pqtree_has_c1p(ens)

    @pytest.mark.parametrize("seed", range(6))
    def test_embedded_forbidden_cores_rejected(self, seed):
        rng = random.Random(seed)
        inst = non_c1p_ensemble(12, 8, rng, core=("m1", "m3")[seed % 2])
        assert not pqtree_has_c1p(inst.ensemble)

    @pytest.mark.parametrize("seed", range(40))
    def test_against_brute_force(self, seed):
        rng = random.Random(7000 + seed)
        n = rng.randint(3, 7)
        m = rng.randint(1, 7)
        ens = random_ensemble(n, m, density=rng.uniform(0.25, 0.7), rng=rng)
        assert pqtree_has_c1p(ens) == brute_force_has_c1p(ens)

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_divide_and_conquer(self, seed):
        rng = random.Random(8000 + seed)
        n = rng.randint(4, 14)
        m = rng.randint(2, 16)
        ens = random_ensemble(n, m, density=rng.uniform(0.2, 0.6), rng=rng)
        assert pqtree_has_c1p(ens) == (path_realization(ens) is not None)


@given(
    n=st.integers(min_value=3, max_value=16),
    m=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=30, deadline=None)
def test_property_pqtree_accepts_planted_instances(n, m, seed):
    rng = random.Random(seed)
    inst = random_c1p_ensemble(n, m, rng)
    order = pqtree_consecutive_ones_order(inst.ensemble)
    assert order is not None
    assert verify_linear_layout(inst.ensemble, order)


@given(
    n=st.integers(min_value=3, max_value=7),
    m=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=40, deadline=None)
def test_property_pqtree_matches_brute_force(n, m, seed):
    rng = random.Random(seed)
    ens = random_ensemble(n, m, density=0.45, rng=rng)
    assert pqtree_has_c1p(ens) == brute_force_has_c1p(ens)


@given(
    n=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=1_000_000),
)
def test_property_failed_reduce_leaves_frontier_unchanged(n, seed):
    """After any failed ``reduce`` the frontier is what it was before."""
    rng = random.Random(seed)
    hidden = list(range(n))
    rng.shuffle(hidden)
    tree = PQTree(range(n))
    # Intervals of a hidden order always reduce; they build the P/Q
    # structure a later failing reduction can partly rewrite.
    for _ in range(rng.randint(1, 10)):
        start = rng.randrange(n)
        assert tree.reduce(hidden[start : rng.randrange(start + 1, n + 1)])
    for _ in range(rng.randint(20, 40)):
        before = tree.frontier()
        if not tree.reduce(rng.sample(range(n), rng.randint(2, n - 1))):
            assert tree.frontier() == before
