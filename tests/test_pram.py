"""Tests for the PRAM simulator, its primitives, the cost model and the
level-synchronous schedule of the solver."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble import Ensemble
from repro.errors import PRAMError
from repro.generators import random_c1p_ensemble
from repro.pram import (
    PRAM,
    ParallelReport,
    chen_yesha_processors,
    fussell_tutte_depth,
    fussell_tutte_processors,
    klein_processors,
    paper_depth_bound,
    paper_processor_bound,
    parallel_connected_components,
    parallel_list_ranking,
    parallel_maximum,
    parallel_path_realization,
    parallel_prefix_sums,
    prior_work_comparison,
)
from repro.pram.machine import SharedMemory, WriteConflictError, WritePolicy


class TestMachine:
    def test_counters_accumulate(self):
        pram = PRAM()
        pram.parallel_step([lambda pid, m: None for _ in range(4)])
        pram.parallel_step([lambda pid, m: None for _ in range(2)])
        assert pram.depth == 2
        assert pram.work == 6
        assert pram.max_processors == 4
        assert pram.implied_processors() == 3

    def test_empty_step_is_free(self):
        pram = PRAM()
        pram.parallel_step([])
        assert pram.depth == 0 and pram.work == 0

    def test_writes_visible_after_step_not_during(self):
        pram = PRAM()
        pram.memory.load({"x": 1})
        observed = []

        def op(pid, mem):
            observed.append(mem.read("x"))
            mem.write(pid, "x", 2)

        pram.parallel_step([op, op])
        assert observed == [1, 1]
        assert pram.memory.read("x") == 2

    def test_common_mode_conflict_raises(self):
        pram = PRAM(policy=WritePolicy.COMMON)

        def writer(value):
            def op(pid, mem):
                mem.write(pid, "x", value)
            return op

        with pytest.raises(WriteConflictError):
            pram.parallel_step([writer(1), writer(2)])

    def test_priority_mode_lowest_pid_wins(self):
        pram = PRAM(policy=WritePolicy.PRIORITY)

        def writer(value):
            def op(pid, mem):
                mem.write(pid, "x", value)
            return op

        pram.parallel_step([writer("a"), writer("b")])
        assert pram.memory.read("x") == "a"

    def test_charge_validates_and_accumulates(self):
        pram = PRAM()
        pram.charge(depth=3, work=30, processors=10)
        assert pram.depth == 3 and pram.work == 30 and pram.max_processors == 10
        with pytest.raises(PRAMError):
            pram.charge(depth=-1, work=0)


class TestPrimitives:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_prefix_sums_match_serial(self, n):
        rng = random.Random(n)
        values = [rng.randint(-5, 9) for _ in range(n)]
        pram = PRAM()
        result = parallel_prefix_sums(pram, values)
        expected = []
        acc = 0
        for v in values:
            acc += v
            expected.append(acc)
        assert result == expected
        assert pram.depth == max(1, math.ceil(math.log2(n))) if n > 1 else pram.depth >= 0

    def test_prefix_sums_empty(self):
        assert parallel_prefix_sums(PRAM(), []) == []

    @pytest.mark.parametrize("n", [1, 3, 8, 21])
    def test_maximum(self, n):
        rng = random.Random(n)
        values = [rng.randint(-100, 100) for _ in range(n)]
        assert parallel_maximum(PRAM(), values) == max(values)

    def test_maximum_empty_rejected(self):
        with pytest.raises(ValueError):
            parallel_maximum(PRAM(), [])

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_list_ranking(self, n):
        successor = [i + 1 if i + 1 < n else None for i in range(n)]
        pram = PRAM()
        ranks = parallel_list_ranking(pram, successor)
        assert ranks == [n - 1 - i for i in range(n)]
        # pointer jumping is logarithmic, far below the serial n steps
        if n > 2:
            assert pram.depth <= 2 * math.ceil(math.log2(n)) + 1

    def test_connected_components_labels(self):
        pram = PRAM()
        edges = [(0, 1), (1, 2), (4, 5)]
        labels = parallel_connected_components(pram, 6, edges)
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5]
        assert labels[3] not in (labels[0], labels[4])
        assert labels[0] != labels[4]

    def test_connected_components_depth_is_polylogarithmic(self):
        # a long path: hooking collapses it in one round, shortcutting in
        # O(log n) jumps; well below any linear-depth label propagation
        n = 64
        pram = PRAM()
        parallel_connected_components(pram, n, [(i, i + 1) for i in range(n - 1)])
        assert pram.depth <= 3 * math.ceil(math.log2(n)) ** 2
        assert pram.depth < n // 2


class TestCostModel:
    def test_fussell_bounds_grow_slowly(self):
        assert fussell_tutte_depth(1024) == 10
        assert fussell_tutte_processors(1024, 2048) < 3 * 1024

    def test_paper_bounds(self):
        assert paper_depth_bound(256) == pytest.approx(64.0)
        assert paper_processor_bound(256, 10_000) < 10_000

    def test_prior_work_comparison_ordering(self):
        n, m = 200, 150
        p = 3000
        rows = {r.algorithm: r for r in prior_work_comparison(n, m, p)}
        ours = rows["Annexstein-Swaminathan (this paper)"]
        klein = rows["Klein [13]"]
        chen = rows["Chen-Yesha [7]"]
        # the paper's claim: strictly more work-efficient than both baselines
        assert ours.processors < klein.processors < chen.processors
        assert ours.work < klein.work < chen.work
        assert klein_processors(n, m) < chen_yesha_processors(n, m)


class TestParallelSolver:
    def test_report_on_planted_instance(self):
        rng = random.Random(3)
        inst = random_c1p_ensemble(40, 30, rng)
        report = parallel_path_realization(inst.ensemble)
        assert isinstance(report, ParallelReport)
        assert report.order is not None
        assert report.levels >= 1
        assert report.depth > 0 and report.work >= report.depth
        assert report.per_level[0]["subproblems"] == 1

    def test_depth_scales_polylogarithmically(self):
        rng = random.Random(9)
        small = parallel_path_realization(random_c1p_ensemble(16, 12, rng).ensemble)
        large = parallel_path_realization(random_c1p_ensemble(128, 96, rng).ensemble)
        # 8x more atoms should cost far less than 8x more depth
        assert large.depth < 4 * small.depth
        # and stay in the same ballpark as the Theorem 9 bound shape
        ratio_small = small.depth / small.theorem9_depth_bound()
        ratio_large = large.depth / large.theorem9_depth_bound()
        assert ratio_large < 10 * max(1.0, ratio_small)

    def test_infeasible_instance_still_reports(self):
        ens = Ensemble((0, 1, 2), (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
        report = parallel_path_realization(ens)
        assert report.order is None
        assert report.depth > 0


def _fanout_crossing_ensemble(
    n: int = 5000, m: int = 600, comps: int = 8, length: int = 40
) -> Ensemble:
    """Interval columns over ``comps`` disjoint atom ranges — large and
    sparse enough that :func:`parallel_fanout_worthwhile` approves a
    2-worker fan-out, so ``parallel=2`` really runs the worker fan-out."""
    span = n // comps
    columns = []
    for j in range(m):
        base = (j % comps) * span
        start = base + (j * 37) % (span - length)
        columns.append(frozenset(range(start, start + length)))
    return Ensemble(tuple(range(n)), tuple(dict.fromkeys(columns)))


class TestMeasuredMode:
    def test_default_report_is_simulated(self):
        rng = random.Random(5)
        report = parallel_path_realization(random_c1p_ensemble(30, 20, rng).ensemble)
        assert report.mode == "simulated"
        assert report.workers == 0
        assert report.measured_seconds == 0.0
        assert report.measured_task_seconds == 0.0
        assert report.parallel_tasks == 0
        # the analytic PRAM columns are the payload of a simulated report
        assert report.levels >= 1
        assert report.depth > 0 and report.work >= report.depth

    def test_small_instance_stays_simulated_under_parallel(self):
        # parallel=2 requested, but the cost model keeps a tiny instance
        # sequential — the honest answer is a simulated report, not a
        # measured one with a misleading near-zero speedup.
        rng = random.Random(6)
        report = parallel_path_realization(
            random_c1p_ensemble(24, 16, rng).ensemble, parallel=2
        )
        assert report.mode == "simulated"
        assert report.workers == 0
        assert report.depth > 0

    def test_real_fanout_reports_measured_never_mixed(self):
        ens = _fanout_crossing_ensemble()
        report = parallel_path_realization(ens, parallel=2)
        assert report.order is not None
        assert report.mode == "measured"
        assert report.workers == 2
        assert report.measured_seconds > 0.0
        assert report.measured_task_seconds > 0.0
        assert report.parallel_tasks >= 1
        # measured reports never carry analytic charges alongside the
        # wall-clock numbers — the two accountings must not be summed
        assert report.levels == 0
        assert report.depth == 0 and report.work == 0
        assert report.per_level == []
        summary = report.summary()
        assert summary["mode"] == "measured"
        assert summary["workers"] == 2
        assert summary["measured_seconds"] > 0.0
        assert summary["measured_task_seconds"] > 0.0


@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_property_scan_matches_serial(n, seed):
    rng = random.Random(seed)
    values = [rng.randint(-10, 10) for _ in range(n)]
    result = parallel_prefix_sums(PRAM(), values)
    acc, expected = 0, []
    for v in values:
        acc += v
        expected.append(acc)
    assert result == expected


@given(
    n=st.integers(min_value=1, max_value=30),
    extra=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_property_cc_matches_union_find(n, extra, seed):
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    edges = [(u, v) for u, v in edges if u != v]
    labels = parallel_connected_components(PRAM(), n, edges)

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    for u in range(n):
        for v in range(n):
            assert (labels[u] == labels[v]) == (find(u) == find(v))
