"""E2 — PRAM depth of the level-synchronous schedule vs ``log^2 n`` (Theorem 9).

For each instance size the simulated parallel execution is run and the
measured depth is compared with the paper's ``O(log^2 n)`` bound: the ratio
``depth / log^2 n`` should stay (roughly) flat across the size sweep, which
is the shape Theorem 9 predicts.
"""

from __future__ import annotations

import pytest

from repro.pram import parallel_path_realization

from benchmarks import reporting

SIZES = (16, 32, 64, 128, 256)

_rows: dict[int, dict] = {}


@pytest.mark.parametrize("n", SIZES)
def test_pram_schedule_depth(benchmark, planted_instances, n):
    ensemble = planted_instances[n]
    report = benchmark(parallel_path_realization, ensemble)
    assert report.order is not None
    s = report.summary()
    _rows[n] = s


def teardown_module(module):  # pragma: no cover - reporting only
    if not _rows:
        return
    lines = [f"{'n':>6} {'levels':>7} {'depth':>7} {'log^2 n':>9} {'depth/log^2 n':>14}"]
    for n in sorted(_rows):
        s = _rows[n]
        ratio = s["depth"] / s["theorem9_depth_bound"]
        lines.append(f"{n:>6} {s['levels']:>7} {s['depth']:>7} "
                     f"{s['theorem9_depth_bound']:>9.1f} {ratio:>14.2f}")
    reporting.register("E2  PRAM depth vs Theorem 9's log^2 n bound", lines)


def test_depth_ratio_is_flat(planted_instances):
    """The depth / log^2 n ratio may not blow up across a 16x size increase."""
    small = parallel_path_realization(planted_instances[16])
    large = parallel_path_realization(planted_instances[256])
    ratio_small = small.depth / small.theorem9_depth_bound()
    ratio_large = large.depth / large.theorem9_depth_bound()
    assert ratio_large <= 6 * max(1.0, ratio_small)


def test_measured_mode_complements_the_analytic_table():
    """One measured wall-clock row next to the analytic depth table.

    The E2 sizes above stay below the fan-out cutoff, so their reports are
    all analytic (``mode="simulated"``).  This row runs an instance past
    the :func:`repro.pram.costmodel.parallel_fanout_worthwhile` cutoff with
    ``parallel=2``: the real worker fan-out takes over and the report
    switches to wall-clock accounting — depth/work charges stay zero, the
    two columns are never mixed.  Full worker-count sweeps live in
    ``bench_parallel_scaling.py`` (E10).
    """
    from benchmarks.bench_parallel_scaling import build

    ensemble = build(5000, 600, 8, 40, seed=7)
    report = parallel_path_realization(ensemble, parallel=2)
    assert report.order is not None
    assert report.mode == "measured"
    assert report.workers == 2
    assert report.measured_seconds > 0.0
    assert report.depth == 0 and report.work == 0
    reporting.register(
        "E2b  measured-mode report (real 2-worker fan-out; see E10 for sweeps)",
        [
            f"n={report.n} m={report.m} mode={report.mode} "
            f"workers={report.workers} "
            f"wall={report.measured_seconds:.3f}s "
            f"task_seconds={report.measured_task_seconds:.3f}s "
            f"tasks={report.parallel_tasks}",
        ],
    )
