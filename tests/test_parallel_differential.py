"""Differential sweep for the real intra-instance parallel solver.

The load-bearing property mirrors the serve-pool campaign: everything the
:mod:`repro.parallel` fan-out produces — layouts, rejections, witnesses,
certificates — must be byte-for-byte identical to the serial kernel on the
same instance, across kernels, engines and circular mode.  The hypothesis
sweep runs with ``fanout="always"`` so the cost model cannot quietly route
examples back to the serial kernel: every multi-component example
exercises the parent-side split, one wave of real worker sub-solves on the
solver's pool and the parent's final verification; a property ties that
split (the kernel's own Step 1, ``_split``) to the label-level
``Ensemble.components()``.  The CI job
(``parallel-differential``) replays it at 500 fixed-seed examples via
``HYPOTHESIS_PROFILE=parallel-ci``.

On top of the differential core, the suite exercises the fan-out's failure
envelope with the same idioms as ``test_serve_stress.py``: a worker
SIGKILLed between two fan-outs (respawn, and the next wave still matches
serial), ``close()`` against a SIGSTOPped worker, and a wrong worker layout
caught by the final verification.  Re-dispatch of enqueued tasks and retry
exhaustion belong to the pool and are pinned there.  The cost model's
warm decisions are pinned too.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import Ensemble
from repro.certify import (
    certified_cycle_realization,
    certified_path_realization,
)
from repro.core import (
    ENGINES,
    KERNELS,
    cycle_realization,
    path_realization,
)
from repro.core.bitset import mask_to_indices
from repro.core.indexed import (
    _effective_masks,
    _normalised_masks,
    _split,
)
from repro.core.instrument import SolverStats
from repro.errors import ParallelError
from repro.generators import non_c1p_ensemble, random_c1p_ensemble
from repro.parallel.solver import ParallelSolver
from repro.serve.pool import ServeFuture

GRID = st.sampled_from([(k, e) for k in KERNELS for e in ENGINES])

#: up to three blocks on disjoint atom ranges — multi-component by
#: construction — mixing realizable and planted-obstruction shapes.
blocks = st.lists(
    st.fixed_dictionaries(
        {
            "atoms": st.integers(min_value=4, max_value=9),
            "cols": st.integers(min_value=2, max_value=6),
            "bad": st.booleans(),
            "seed": st.integers(min_value=0, max_value=2**20),
        }
    ),
    min_size=1,
    max_size=3,
)


def _build_instance(params: list[dict]) -> Ensemble:
    """Disjoint blocks glued into one (usually disconnected) ensemble."""
    atoms: tuple = ()
    columns: tuple = ()
    offset = 0
    for spec in params:
        rng = random.Random(spec["seed"])
        if spec["bad"]:
            part = non_c1p_ensemble(max(6, spec["atoms"]), spec["cols"], rng).ensemble
        else:
            part = random_c1p_ensemble(spec["atoms"], spec["cols"], rng).ensemble
        mapping = {a: offset + i for i, a in enumerate(part.atoms)}
        part = part.relabel(mapping)
        offset += part.num_atoms
        atoms += part.atoms
        columns += part.columns
    return Ensemble(atoms, columns)


@pytest.fixture(scope="module")
def warm_solver():
    """One spawn-once solver shared by the whole sweep (fanout forced on)."""
    with ParallelSolver(2, fanout="always") as solver:
        yield solver


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, default=str)


@st.composite
def column_lists(draw) -> tuple[int, list[int]]:
    """``(n, masks)``: sparse masks over ``n`` atoms (so some atoms stay
    uncovered), full columns, and repeats of earlier draws."""
    n = draw(st.integers(min_value=1, max_value=12))
    sparse = st.sets(st.integers(0, n - 1), max_size=3).map(
        lambda atoms: sum(1 << a for a in atoms)
    )
    masks = draw(st.lists(st.one_of(sparse, st.just((1 << n) - 1)), max_size=10))
    for mask in draw(st.lists(st.sampled_from(masks), max_size=3)) if masks else []:
        masks.insert(draw(st.integers(0, len(masks))), mask)
    return n, masks


class TestDifferentialSweep:
    @given(params=blocks, grid=GRID, circular=st.booleans())
    @example(  # the two kernels lay this block out differently
        params=[{"atoms": 7, "cols": 4, "bad": False, "seed": 5995}],
        grid=("reference", "spqr"),
        circular=False,
    )
    def test_layouts_match_serial_byte_for_byte(
        self, warm_solver, params, grid, circular
    ):
        # ParallelSolver always runs the indexed kernel, so the byte-for-byte
        # baseline is the indexed kernel's layout.  The reference kernel may
        # return a different valid layout; at its grid points only its
        # verdict must agree.
        kernel, engine = grid
        instance = _build_instance(params)
        serial_solve = cycle_realization if circular else path_realization
        expected = serial_solve(instance, kernel="indexed", engine=engine)
        if circular:
            got = warm_solver.solve_cycle(instance, engine=engine)
        else:
            got = warm_solver.solve_path(instance, engine=engine)
        assert got == expected
        if kernel != "indexed":
            reference = serial_solve(instance, kernel=kernel, engine=engine)
            assert (reference is None) == (got is None)

    @given(params=blocks, engine=st.sampled_from(ENGINES), circular=st.booleans())
    def test_certificates_match_serial_byte_for_byte(
        self, params, engine, circular
    ):
        # Witnesses and order certificates must be bytewise independent of
        # parallel=N — extraction stays sequential, and an accepted layout
        # is byte-identical, so so is its certificate.
        instance = _build_instance(params)
        fn = certified_cycle_realization if circular else certified_path_realization
        base = fn(instance, engine=engine)
        threaded = fn(instance, engine=engine, parallel=2)
        assert _canon(threaded.to_json()) == _canon(base.to_json())

    @given(params=blocks, circular=st.booleans())
    def test_entry_point_threading_matches_serial(self, params, circular):
        # path_realization(parallel=N) at default fanout="auto": the cost
        # model keeps these small instances serial, and the answer must be
        # unchanged either way.
        instance = _build_instance(params)
        serial_solve = cycle_realization if circular else path_realization
        assert serial_solve(instance, parallel=2) == serial_solve(instance)


class TestSplit:
    @given(column_lists())
    def test_split_is_the_kernels_step_one(self, drawn):
        # The kernel's one component split, over the whole universe and over
        # a sparse sub-problem (every other atom), on every column list it
        # is handed: the label-level reference's components in the same
        # order, each with exactly the columns that touch it.
        n, raw = drawn
        for avail in ((1 << n) - 1, sum(1 << a for a in range(0, n, 2))):
            atoms = mask_to_indices(avail)
            live = [c & avail for c in raw]
            for columns in (
                live,
                _effective_masks(avail, live),
                _normalised_masks(avail, live),
            ):
                reference = Ensemble(
                    atoms, [frozenset(mask_to_indices(c)) for c in columns]
                ).components()
                split = _split(avail, columns)
                assert [tuple(members) for members, _ in split] == reference
                for members, rows in split:
                    touching = [
                        j for j, c in enumerate(columns)
                        if set(mask_to_indices(c)) & set(members)
                    ]
                    assert rows == touching


class TestStatsContract:
    def test_connected_instance_spawns_nothing(self):
        # The split runs in the parent before anything is spawned or
        # packed: one component means a serial solve, even when forced.
        chain = Ensemble(
            tuple(range(9)), tuple(frozenset({i, i + 1}) for i in range(8))
        )
        stats = SolverStats()
        with ParallelSolver(2, fanout="always") as solver:
            assert solver.solve_path(chain, stats) == path_realization(chain)
            assert solver.solve_cycle(chain) == cycle_realization(chain)
            assert solver.executor is None
        assert stats.execution == "sequential"

    def test_real_fanout_reports_measured_execution(self, warm_solver):
        instance = _build_instance(
            [
                {"atoms": 9, "cols": 5, "bad": False, "seed": 11},
                {"atoms": 8, "cols": 4, "bad": False, "seed": 12},
            ]
        )
        stats = SolverStats()
        order = warm_solver.solve_path(instance, stats)
        assert order == path_realization(instance)
        assert stats.execution == "parallel"
        assert stats.parallel_workers == 2
        assert stats.parallel_tasks >= 1
        assert stats.parallel_task_seconds > 0.0
        summary = stats.summary()
        assert summary["execution"] == "parallel"
        assert summary["parallel_workers"] == 2

    def test_serial_fallback_reports_sequential_execution(self):
        instance = _build_instance(
            [{"atoms": 6, "cols": 4, "bad": False, "seed": 3}]
        )
        stats = SolverStats()
        order = path_realization(instance, stats, parallel=2)
        assert order == path_realization(instance)
        assert stats.execution == "sequential"
        assert stats.parallel_tasks == 0

    def test_invalid_parallel_rejected(self):
        instance = _build_instance(
            [{"atoms": 5, "cols": 3, "bad": False, "seed": 1}]
        )
        with pytest.raises(ValueError):
            path_realization(instance, parallel=0)
        with pytest.raises(ValueError):
            cycle_realization(instance, parallel=True)


def _chains(*blocks: tuple[int, int], isolated: int = 0) -> Ensemble:
    """Disjoint interval chains ``{i, i+1, i+2}``, one per ``(start, atoms)``
    block, plus ``isolated`` atoms no column covers."""
    columns = [
        frozenset({i, i + 1, i + 2})
        for start, atoms in blocks
        for i in range(start, start + atoms - 2)
    ]
    n = max(start + atoms for start, atoms in blocks) + isolated
    return Ensemble(tuple(range(n)), tuple(columns))


class TestCostModel:
    """What a *warm* ``fanout="auto"`` solver declines: a wave is priced
    by the tasks it dispatches, and a single task is pure round trip."""

    @pytest.fixture
    def warmed(self):
        with ParallelSolver(2, fanout="always") as solver:
            solver.solve_path(_chains((0, 12), (12, 12)))
            assert solver.executor is not None
            solver.fanout = "auto"
            yield solver

    def _assert_declines(self, solver, instance):
        stats = SolverStats()
        assert solver.solve_path(instance, stats) == path_realization(instance)
        assert stats.execution == "sequential"
        assert stats.parallel_tasks == 0

    def test_warm_solver_declines_a_small_two_block_instance(self, warmed):
        self._assert_declines(warmed, _chains((0, 8), (8, 8)))

    def test_one_dispatchable_component_plus_isolated_atoms_declines(
        self, warmed
    ):
        self._assert_declines(warmed, _chains((0, 60), isolated=4))


class TestCrashRecovery:
    def test_sigkill_mid_solve_recovers_and_matches_serial(self):
        instance = _build_instance(
            [
                {"atoms": 9, "cols": 6, "bad": False, "seed": 21},
                {"atoms": 9, "cols": 6, "bad": False, "seed": 22},
                {"atoms": 8, "cols": 5, "bad": True, "seed": 23},
            ]
        )
        expected = path_realization(instance)
        with ParallelSolver(2, fanout="always") as solver:
            assert solver.solve_path(instance) == expected
            executor = solver.executor
            assert executor is not None
            os.kill(executor.worker_pids[0], signal.SIGKILL)
            # The next solve reaps the dead worker inside its first wave.
            assert solver.solve_path(instance) == expected
            assert executor.respawn_count >= 1
            assert executor.alive_workers == 2

    def test_close_honours_its_deadline_with_a_stopped_worker(self):
        # A SIGSTOPped worker never acts on the shutdown sentinel (nor on a
        # SIGTERM): close() must still return near the fleet's deadline
        # and leave no worker process behind.
        instance = _build_instance(
            [
                {"atoms": 9, "cols": 5, "bad": False, "seed": 11},
                {"atoms": 8, "cols": 4, "bad": False, "seed": 12},
            ]
        )
        solver = ParallelSolver(2, fanout="always")
        assert solver.solve_path(instance) == path_realization(instance)
        pids = solver.executor.worker_pids
        os.kill(pids[0], signal.SIGSTOP)
        try:
            started = time.monotonic()
            solver.close()
            elapsed = time.monotonic() - started
            assert elapsed < 3.0, f"close() took {elapsed:.1f}s"
            live = {child.pid for child in multiprocessing.active_children()}
            assert not live & set(pids), "close() left a worker process alive"
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass

    def test_closed_solver_rejected(self):
        solver = ParallelSolver(2, fanout="always")
        solver.close()
        instance = _build_instance(
            [
                {"atoms": 6, "cols": 4, "bad": False, "seed": 5},
                {"atoms": 6, "cols": 4, "bad": False, "seed": 6},
            ]
        )
        with pytest.raises(ParallelError):
            solver.solve_path(instance)

    def test_wrong_worker_layout_fails_the_final_verification(self, monkeypatch):
        # The parent checks the concatenated layout once: a worker answer
        # that loses atoms must raise, never be returned.
        result = ServeFuture.result
        answered = []

        def lossy(self, timeout=None):
            order, witness = result(self, timeout)
            answered.append(order)
            return (order[:-4] if len(answered) == 1 else order), witness

        monkeypatch.setattr(ServeFuture, "result", lossy)
        instance = _build_instance(
            [
                {"atoms": 9, "cols": 5, "bad": False, "seed": 11},
                {"atoms": 8, "cols": 4, "bad": False, "seed": 12},
            ]
        )
        with ParallelSolver(2, fanout="always") as solver:
            with pytest.raises(ParallelError, match="verification failed"):
                solver.solve_path(instance)
