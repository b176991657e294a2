"""Unit tests for the divide step (Section 3.2) and the combine step internals."""

from __future__ import annotations

import random

import pytest

from repro.core.gp import RealizationGraph, interval_of, is_prefix_or_suffix
from repro.core.instrument import SolverStats
from repro.core.merge import (
    anchored_candidates,
    merge_cycle,
)
from repro.core.partition import (
    PartitionDecision,
    choose_partition,
    grow_connected_collection,
)
from repro.core import path_realization
from repro.errors import GraphError
from repro.generators import random_c1p_ensemble


class TestPartition:
    def test_case1_prefers_balanced_column(self):
        atoms = list(range(9))
        columns = [frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})]
        decision = choose_partition(atoms, columns)
        assert decision.kind == "split"
        assert decision.case == "case1"
        # size 4 is closer to 9/2 than size 3
        assert decision.segment == frozenset({0, 1, 2, 3})

    def test_case2a_grows_connected_collection(self):
        atoms = list(range(12))
        columns = [frozenset({i, i + 1}) for i in range(11)]
        decision = choose_partition(atoms, columns)
        assert decision.kind == "split"
        assert decision.case == "case2a"
        assert 12 / 3 < len(decision.segment) <= 2 * 12 / 3 + 1

    def test_case2b_requests_circular_transform(self):
        atoms = list(range(9))
        columns = [frozenset(range(7)), frozenset({0, 1})]
        decision = choose_partition(atoms, columns)
        assert decision.kind == "circular"
        assert decision.case == "case2b"

    def test_grow_connected_collection_none_when_components_small(self):
        atoms = list(range(30))
        columns = [frozenset({0, 1}), frozenset({5, 6})]
        assert grow_connected_collection(atoms, columns) is None

    def test_segment_balance_invariant(self):
        rng = random.Random(0)
        for _ in range(20):
            inst = random_c1p_ensemble(rng.randint(6, 30), rng.randint(3, 25), rng)
            ens = inst.ensemble
            columns = [c for c in ens.columns if 1 < len(c) < ens.num_atoms]
            if not columns:
                continue
            decision = choose_partition(list(ens.atoms), columns)
            if decision.kind != "split":
                continue
            size = len(decision.segment)
            n = ens.num_atoms
            assert 3 * size >= n - 2
            assert 3 * size <= 2 * n + 2


class TestGPRealization:
    def test_interval_of(self):
        assert interval_of([3, 1, 4, 1j, 5], {1, 4}) == (1, 2)
        with pytest.raises(GraphError):
            interval_of([0, 1, 2], {0, 2})
        with pytest.raises(GraphError):
            interval_of([0, 1], {7})

    def test_is_prefix_or_suffix(self):
        assert is_prefix_or_suffix([0, 1, 2, 3], {0, 1})
        assert is_prefix_or_suffix([0, 1, 2, 3], {2, 3})
        assert not is_prefix_or_suffix([0, 1, 2, 3], {1, 2})
        assert not is_prefix_or_suffix([0, 1, 2, 3], {0, 2})
        assert is_prefix_or_suffix([0, 1], set())

    def test_graph_shape(self):
        real = RealizationGraph([0, 1, 2, 3], [frozenset({1, 2})])
        # 4 path edges + e + one chord
        assert real.graph.num_edges == 6
        assert real.chord_for({1, 2}) != real.e_eid
        assert real.chord_for({0, 1, 2, 3}) == real.e_eid

    def test_order_round_trip(self):
        real = RealizationGraph([5, 7, 2, 9], [frozenset({7, 2})])
        assert real.order_from(real.graph) == [5, 7, 2, 9]

    def test_duplicate_intervals_share_a_chord(self):
        real = RealizationGraph([0, 1, 2], [frozenset({0, 1}), frozenset({0, 1})])
        assert len(real.chord_eids()) == 1


class TestMergeInternals:
    def test_anchored_candidates_include_alignment(self):
        stats = SolverStats()
        cands = anchored_candidates(
            [0, 1, 2, 3, 4], [frozenset({2, 3})], [frozenset({2, 3})], stats=stats
        )
        assert any(is_prefix_or_suffix(c, {2, 3}) for c in cands)
        assert stats.tutte_builds >= 1

    def test_anchored_candidates_trivial_cases(self):
        assert anchored_candidates([0, 1], [], [frozenset({0})]) == [[0, 1]]
        assert anchored_candidates([0, 1, 2], [], []) == [[0, 1, 2]]

    def test_merge_cycle_glues_paths(self):
        # A1 = {0,1,2} ordered, A2 = {3,4,5}; one crossing column {2,3}
        columns = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
        circ = merge_cycle([0, 1, 2], [3, 4, 5], columns)
        assert circ is not None
        assert sorted(circ) == [0, 1, 2, 3, 4, 5]

    def test_merge_cycle_detects_impossible(self):
        # three crossing columns all anchored at atom 2's side of A1 but
        # needing three different junction neighbours in A2: no gluing works
        columns = [
            frozenset({2, 3}),
            frozenset({2, 4}),
            frozenset({2, 5}),
        ]
        result = merge_cycle([0, 1, 2], [3, 4, 5], columns)
        assert result is None

    def test_merge_cycle_result_is_always_verified(self):
        columns = [frozenset({1, 2}), frozenset({2, 3}), frozenset({5, 0})]
        result = merge_cycle([0, 1, 2], [3, 4, 5], columns)
        if result is not None:
            from repro.ensemble import is_circular_consecutive

            assert all(is_circular_consecutive(result, c) for c in columns)


class TestStatsAndDepth:
    @pytest.mark.parametrize("n", [20, 60, 120])
    def test_recursion_depth_is_logarithmic(self, n):
        rng = random.Random(n)
        inst = random_c1p_ensemble(n, max(4, n // 2), rng)
        stats = SolverStats()
        assert path_realization(inst.ensemble, stats) is not None
        import math

        assert stats.max_depth <= 4 * math.log2(n) + 6

    def test_split_balance(self):
        rng = random.Random(13)
        inst = random_c1p_ensemble(60, 45, rng)
        stats = SolverStats()
        path_realization(inst.ensemble, stats)
        for total, side in stats.splits:
            assert total / 4 <= side <= 3 * total / 4 + 1
