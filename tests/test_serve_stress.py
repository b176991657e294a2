"""Cross-process stress & soak campaign for the serving pool (repro.serve).

The load-bearing property is *differential*: anything streamed through a
warm :class:`~repro.serve.ServePool` — orders, statuses, certificates —
must be byte-for-byte identical to serial :func:`repro.batch.solve_many`
on the same corpus.  On top of that the suite exercises the pool's failure
envelope: a worker SIGKILLed mid-stream (respawn + task re-dispatch),
several submitter threads sharing one pool, the backpressure window, the
segment-budget guard, worker-side errors and shutdown semantics.

Everything runs on fixed seeds with small instances, so the whole module
stays within a bounded wall-clock budget (the ``serve-stress`` CI job adds
a hard timeout on top).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.batch import solve_many
from repro.ensemble import Ensemble
from repro.errors import ServeError
from repro.generators import non_c1p_ensemble, random_c1p_ensemble
from repro.serve import ServePool
from repro.serve import wire

#: soak corpus size (acceptance bar: >= 1k instances through one warm pool).
SOAK_INSTANCES = 1000


def _summary_bytes(result) -> str:
    """Canonical rendering used for byte-for-byte comparisons."""
    return json.dumps(result.summary(), sort_keys=True, default=str)


def _soak_corpus(count: int) -> list[Ensemble]:
    """A fixed-seed stream mixing realized, rejected and disconnected shapes."""
    corpus: list[Ensemble] = []
    for seed in range(count):
        rng = random.Random(0x5E4E + seed)
        shape = seed % 5
        if shape == 3:
            corpus.append(non_c1p_ensemble(8, 6, rng).ensemble)
        elif shape == 4:
            left = random_c1p_ensemble(6, 4, rng).ensemble
            right = random_c1p_ensemble(5, 3, rng).ensemble.relabel(
                {i: 100 + i for i in range(5)}
            )
            corpus.append(
                Ensemble(left.atoms + right.atoms, left.columns + right.columns)
            )
        else:
            corpus.append(random_c1p_ensemble(6 + shape, 5, rng).ensemble)
    return corpus


@pytest.fixture(scope="module")
def soak_corpus() -> list[Ensemble]:
    return _soak_corpus(SOAK_INSTANCES)


@pytest.fixture(scope="module")
def serial_soak(soak_corpus) -> list[str]:
    """Serial ground truth, certificates included, rendered canonically."""
    return [_summary_bytes(r) for r in solve_many(soak_corpus, certify=True)]


class TestSoakDifferential:
    def test_thousand_instance_stream_matches_serial_byte_for_byte(
        self, soak_corpus, serial_soak
    ):
        with ServePool(2) as pool:
            streamed = list(pool.solve_stream(soak_corpus, certify=True))
            assert pool.respawn_count == 0, "soak must not crash any worker"
        assert len(streamed) == SOAK_INSTANCES
        # Completion order is arbitrary; indices recover input positions.
        by_index = sorted(streamed, key=lambda r: r.index)
        assert [r.index for r in by_index] == list(range(SOAK_INSTANCES))
        mismatches = [
            i for i, (got, want) in enumerate(
                zip((_summary_bytes(r) for r in by_index), serial_soak)
            )
            if got != want
        ]
        assert not mismatches, f"stream diverged from serial at {mismatches[:5]}"

    def test_ordered_mode_yields_input_order(self, soak_corpus, serial_soak):
        subset = soak_corpus[:200]
        with ServePool(2) as pool:
            ordered = list(pool.solve_stream(subset, certify=True, ordered=True))
        assert [r.index for r in ordered] == list(range(len(subset)))
        assert [_summary_bytes(r) for r in ordered] == serial_soak[: len(subset)]

    def test_batch_entry_point_routes_through_the_pool(self, soak_corpus, serial_soak):
        subset = soak_corpus[:100]
        with ServePool(2) as pool:
            via_batch = solve_many(subset, certify=True, pool=pool)
        assert [_summary_bytes(r) for r in via_batch] == serial_soak[:100]


class TestWorkerCrashRecovery:
    def test_sigkill_mid_stream_respawns_and_loses_nothing(self):
        corpus = _soak_corpus(400)
        expected = [_summary_bytes(r) for r in solve_many(corpus)]
        with ServePool(2) as pool:
            results: list = []
            some_progress = threading.Event()

            def consume():
                for result in pool.solve_stream(corpus):
                    results.append(result)
                    if len(results) >= 20:
                        some_progress.set()

            consumer = threading.Thread(target=consume)
            consumer.start()
            assert some_progress.wait(60), "stream produced nothing"
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            consumer.join(120)
            assert not consumer.is_alive(), "stream hung after the kill"

            deadline = time.monotonic() + 10
            while pool.respawn_count < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.respawn_count >= 1, "dead worker was never respawned"
            assert pool.alive_workers == 2

        assert len(results) == len(corpus)
        got = [_summary_bytes(r) for r in sorted(results, key=lambda r: r.index)]
        assert got == expected

    def test_retry_budget_exhaustion_fails_the_future_cleanly(self):
        # With no retry budget, a task whose worker dies mid-flight must
        # fail its future with ServeError — never hang, never crash-loop.
        with ServePool(1, max_task_retries=0) as pool:
            warmup = pool.submit(random_c1p_ensemble(6, 4, random.Random(1)).ensemble)
            warmup.result(timeout=60)
            big = random_c1p_ensemble(60, 25, random.Random(2)).ensemble
            for _ in range(10):  # racing the solve; retry until the kill wins
                victim = pool.submit(big)
                os.kill(pool.worker_pids[0], signal.SIGKILL)
                try:
                    victim.result(timeout=60)
                except ServeError:
                    break
            else:
                pytest.fail("kill never beat the solve; future never failed")
            # The pool respawned and keeps serving afterwards.
            small = random_c1p_ensemble(6, 4, random.Random(3)).ensemble
            assert pool.submit(small).result(timeout=60)[0] is not None


class TestConcurrentSubmitters:
    def test_threads_share_one_pool_without_cross_talk(self):
        with ServePool(3) as pool:
            failures: list[BaseException] = []

            def submitter(seed: int) -> None:
                try:
                    rng = random.Random(seed)
                    mine = [
                        random_c1p_ensemble(9, 6, rng).ensemble for _ in range(25)
                    ]
                    mine.append(non_c1p_ensemble(8, 6, rng).ensemble)
                    expected = [_summary_bytes(r) for r in solve_many(mine, certify=True)]
                    got = [
                        _summary_bytes(r)
                        for r in pool.solve_many(mine, certify=True)
                    ]
                    assert got == expected
                except BaseException as exc:  # surfaced below
                    failures.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(180)
                assert not thread.is_alive(), "submitter thread hung"
            assert not failures, failures


class TestBackpressureAndBudget:
    def test_inflight_window_is_never_exceeded(self):
        corpus = _soak_corpus(60)
        with ServePool(2, max_inflight=2) as pool:
            results = pool.solve_many(corpus)
            assert pool.max_inflight_seen <= 2
        assert [_summary_bytes(r) for r in results] == [
            _summary_bytes(r) for r in solve_many(corpus)
        ]

    def test_oversized_payload_is_rejected_before_allocation(self):
        with ServePool(1, max_segment_bytes=256) as pool:
            big = random_c1p_ensemble(300, 100, random.Random(3)).ensemble
            with pytest.raises(ServeError, match="segment budget"):
                pool.submit(big)
            # The pool survives the rejection and keeps serving.
            small = random_c1p_ensemble(6, 4, random.Random(4)).ensemble
            order, witness = pool.submit(small).result(timeout=60)
            assert order is not None and witness is None

    def test_segment_budget_accounts_for_bundle_framing(self):
        inst = random_c1p_ensemble(6, 4, random.Random(8)).ensemble
        from repro.core.indexed import IndexedEnsemble
        from repro.serve import wire

        payload = IndexedEnsemble.from_ensemble(inst).pack_masks()
        framed = wire.bundle_size([len(payload)])
        assert framed > len(payload)
        # A budget that fits the bare payload but not the shipped frame
        # must reject: the *segment* is what the budget bounds.
        with ServePool(1, max_segment_bytes=len(payload)) as pool:
            with pytest.raises(ServeError, match="segment budget"):
                pool.submit(inst)
        with ServePool(1, max_segment_bytes=framed) as pool:
            assert pool.submit(inst).result(timeout=60)[0] is not None

    def test_mid_stream_oversize_task_leaves_window_intact(self):
        # Regression for the _submit_bundle audit: an oversize task hitting
        # the budget mid-stream must raise without stranding an in-flight
        # slot or a registered segment — afterwards the *full* window (here
        # a single slot, the strictest case) must still be available.
        small = [
            random_c1p_ensemble(6, 4, random.Random(30 + i)).ensemble
            for i in range(6)
        ]
        big = random_c1p_ensemble(300, 100, random.Random(31)).ensemble
        corpus = small[:3] + [big] + small[3:]
        with ServePool(1, max_segment_bytes=2048, max_inflight=1) as pool:
            with pytest.raises(ServeError, match="segment budget"):
                list(pool.solve_stream(corpus, ordered=True))
            # Every slot is free again: repeated full-window batches drain
            # without deadlock, matching serial byte-for-byte.
            expected = [_summary_bytes(r) for r in solve_many(small)]
            for _ in range(3):
                again = pool.solve_many(small)
                assert [_summary_bytes(r) for r in again] == expected
            assert pool.max_inflight_seen <= 1
            assert pool.alive_workers == 1

    def test_oversize_bundle_frame_rejected_by_submit_bundle(self):
        # The authoritative check is on the packed frame in _submit_bundle:
        # entries that individually fit can overflow the budget once framed
        # into one bundle, and must be rejected before a slot is acquired.
        from repro.serve import wire

        instances = [
            random_c1p_ensemble(8, 6, random.Random(40 + i)).ensemble
            for i in range(8)
        ]
        from repro.core.indexed import IndexedEnsemble

        payloads = [
            IndexedEnsemble.from_ensemble(e).pack_masks() for e in instances
        ]
        one_framed = wire.bundle_size([len(payloads[0])])
        budget = wire.bundle_size([len(p) for p in payloads]) - 1
        assert budget > one_framed  # each alone fits; the full bundle cannot
        with ServePool(1, max_segment_bytes=budget, max_inflight=1) as pool:
            # chunksize forces every entry into one bundle; the feeder's
            # per-entry running total flushes before overflow, so the
            # stream completes by splitting the bundle, never oversending.
            results = pool.solve_many(instances, chunksize=len(instances))
            assert [r.ok for r in results] == [True] * len(instances)
            assert pool.max_inflight_seen <= 1

    def test_zero_max_inflight_rejected(self):
        with pytest.raises(ValueError, match="max_inflight"):
            ServePool(1, max_inflight=0)

    def test_stream_consumes_lazy_input_incrementally(self):
        # A generator input must start producing results before it is
        # exhausted — the serving contract for stdin/socket feeds.
        produced_all = threading.Event()
        first_result_seen = threading.Event()

        def producer():
            yield random_c1p_ensemble(6, 4, random.Random(20)).ensemble
            if not first_result_seen.wait(60):
                raise AssertionError(
                    "stream buffered the whole input before yielding"
                )
            yield random_c1p_ensemble(6, 4, random.Random(21)).ensemble
            produced_all.set()

        with ServePool(1) as pool:
            results = []
            for result in pool.solve_stream(producer()):
                first_result_seen.set()
                results.append(result)
        assert produced_all.is_set()
        assert sorted(r.index for r in results) == [0, 1]
        assert all(r.ok for r in results)

    def test_worker_side_error_propagates_as_serve_error(self):
        with ServePool(1) as pool:
            inst = random_c1p_ensemble(6, 4, random.Random(5)).ensemble
            future = pool.submit(inst, kernel="no-such-kernel")
            with pytest.raises(ServeError, match="worker task failed"):
                future.result(timeout=60)
            # ...and the worker survives the failed task.
            assert pool.submit(inst).result(timeout=60)[0] is not None


class TestLifecycle:
    def test_submit_after_close_is_refused(self):
        pool = ServePool(1)
        pool.close()
        with pytest.raises(ServeError, match="closed"):
            pool.submit(random_c1p_ensemble(5, 3, random.Random(6)).ensemble)
        pool.close()  # idempotent

    def test_close_resolves_every_pending_future(self):
        inst = random_c1p_ensemble(6, 4, random.Random(7)).ensemble
        pool = ServePool(1)
        futures = [pool.submit(inst) for _ in range(4)]
        pool.close(wait=True)
        for future in futures:
            order, _ = future.result(timeout=5)
            assert order is not None

    def test_negative_processes_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            ServePool(-1)

    def test_close_wakes_submitters_blocked_on_backpressure(self):
        # close() must release the slots of error-resolved bundles so a
        # thread stuck in submit() on a full in-flight window wakes up
        # instead of deadlocking — and it must keep its deadline although
        # the frozen worker never acts on a sentinel or a SIGTERM.
        inst = random_c1p_ensemble(6, 4, random.Random(9)).ensemble
        pool = ServePool(1, max_inflight=1)
        pids = pool.worker_pids
        os.kill(pids[0], signal.SIGSTOP)
        try:
            first = pool.submit(inst)  # takes the only slot; worker is frozen
            outcome: list = []

            def blocked_submitter():
                try:
                    outcome.append(pool.submit(inst))
                except BaseException as exc:
                    outcome.append(exc)

            submitter = threading.Thread(target=blocked_submitter)
            submitter.start()
            time.sleep(0.2)
            assert not outcome, "second submit should be blocked on the window"
            started = time.monotonic()
            pool.close(wait=False, timeout=1.0)
            elapsed = time.monotonic() - started
            assert elapsed < 3.0, f"close(timeout=1.0) took {elapsed:.1f}s"
            live = {child.pid for child in multiprocessing.active_children()}
            assert not live & set(pids), "close() left a worker process alive"
            submitter.join(30)
            assert not submitter.is_alive(), "submitter never woke after close()"
            with pytest.raises(ServeError):
                first.result(timeout=5)
        finally:
            for pid in pool.worker_pids:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            pool.close(wait=False, timeout=1.0)


def _delta_script(seed: int, length: int = 24, n: int = 9) -> list[tuple]:
    """A deterministic mixed add/remove delta stream over ``n`` atoms."""
    rng = random.Random(seed)
    deltas: list[tuple] = [("open", n)]
    added: list[tuple[int, ...]] = []
    for _ in range(length):
        if added and rng.random() < 0.3:
            deltas.append(("remove", rng.choice(added)))
        else:
            column = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 2))))
            deltas.append(("add", column))
            added.append(column)
    return deltas


def _delta_summary(result) -> str:
    payload = dict(result.summary())
    if result.certificate is not None:
        payload["certificate"] = result.certificate.to_json()
    return json.dumps(payload, sort_keys=True, default=str)


def _churn_script(seed: int, n: int = 16, length: int = 260, max_live: int = 10):
    """A session of adds (many refused, some repeating a live column),
    removes of live columns and refused removes, never holding more than
    ``max_live`` columns."""
    from repro.incremental import IncrementalSolver

    rng = random.Random(seed)
    solver = IncrementalSolver(range(n))
    deltas: list[tuple] = [("open", n)]
    refused: list[tuple[int, ...]] = []
    for _ in range(length):
        live = [tuple(sorted(c)) for c in solver.columns]
        if live and (len(live) >= max_live or rng.random() < 0.35):
            column = rng.choice(live)
            solver.remove_column(column)
        elif refused and rng.random() < 0.1:
            column = rng.choice(refused)
            if column in live:
                solver.remove_column(column)
        else:
            column = tuple(sorted(rng.sample(range(n), rng.randint(2, n - 2))))
            if live and rng.random() < 0.15:
                column = rng.choice(live)
            if not solver.add_column(column).accepted:
                refused.append(column)
            deltas.append(("add", column))
            continue
        deltas.append(("remove", column))
    return deltas


class TestDeltaSessionCrashRecovery:
    def test_sigkill_mid_session_replays_with_zero_divergence(self):
        # A worker killed between delta bundles takes the session's whole
        # PQ-tree with it.  The next bundle must arrive with the acked
        # frame log replayed ahead of it, and the full result sequence
        # must match a crash-free pool byte for byte.
        deltas = _delta_script(71)
        with ServePool(1) as clean:
            expected = [
                _delta_summary(r)
                for r in clean.solve_stream(
                    deltas, incremental=True, certify=True, chunksize=2
                )
            ]
        with ServePool(1) as pool:
            got = []
            stream = pool.solve_stream(
                deltas, incremental=True, certify=True, chunksize=2
            )
            for i, result in enumerate(stream):
                got.append(_delta_summary(result))
                if i in (3, 11):  # two separate mid-session crashes
                    os.kill(pool.worker_pids[0], signal.SIGKILL)
                    deadline = time.monotonic() + 10
                    while (
                        pool.alive_workers < 1
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.05)
            assert got == expected
            assert pool.respawn_count >= 2
            replays = pool.metrics_snapshot()["serve.delta_replays"]["value"]
            assert replays >= 2

    def test_sigkill_mid_bundle_redispatches_with_replay_prefix(self):
        # Kill the worker while a delta bundle is *in flight*: the reaper
        # must rebuild the segment (replayed acked log + the unanswered
        # frames) rather than re-shipping the original bundle to a worker
        # that has never seen the session.
        deltas = _delta_script(72, length=40)
        with ServePool(1) as clean:
            expected = [
                _delta_summary(r)
                for r in clean.solve_stream(
                    deltas, incremental=True, certify=True, chunksize=4
                )
            ]
        for attempt in range(10):  # racing the kill against the solves
            with ServePool(1) as pool:
                stop = threading.Event()

                def killer():
                    time.sleep(0.05)
                    if not stop.is_set():
                        try:
                            os.kill(pool.worker_pids[0], signal.SIGKILL)
                        except (ProcessLookupError, IndexError):
                            pass

                thread = threading.Thread(target=killer)
                thread.start()
                got = [
                    _delta_summary(r)
                    for r in pool.solve_stream(
                        deltas, incremental=True, certify=True, chunksize=4
                    )
                ]
                stop.set()
                thread.join(10)
                assert got == expected
                if pool.respawn_count >= 1:
                    return  # the kill landed and recovery still converged
        pytest.fail("the kill never landed during an active session")

    def test_oversize_delta_frame_rejected_without_stranding_a_slot(self):
        # An ADD frame whose mask payload overflows the segment budget
        # must be rejected before a backpressure slot is acquired; the
        # session dies but the pool's full window stays usable.
        big_n = 4096  # OPEN is header-only; the ADD mask is ~512 bytes
        with ServePool(1, max_segment_bytes=256, max_inflight=1) as pool:
            with pytest.raises(ServeError, match="segment budget"):
                list(
                    pool.solve_stream(
                        [("open", big_n), ("add", tuple(range(big_n)))],
                        incremental=True,
                        chunksize=1,
                    )
                )
            small = [
                random_c1p_ensemble(6, 4, random.Random(80 + i)).ensemble
                for i in range(4)
            ]
            expected = [_summary_bytes(r) for r in solve_many(small)]
            for _ in range(3):
                again = pool.solve_many(small)
                assert [_summary_bytes(r) for r in again] == expected
            assert pool.max_inflight_seen <= 1
            # A fresh session on the same pool still works end to end.
            fresh = list(
                pool.solve_stream(_delta_script(73), incremental=True)
            )
            assert fresh and all(r.split == "delta" for r in fresh)

    def test_replay_log_holds_only_the_live_columns(self):
        # After ~200 deltas of churn the session holds at most 10 columns:
        # the bundle that rebuilds it on a respawned worker carries the
        # OPEN frame, the live columns' adds and the one unanswered delta,
        # not every frame the session ever acked.
        n, kill_after = 16, 200
        deltas = _churn_script(74, n=n)
        with ServePool(1) as clean:
            expected = [
                _delta_summary(r)
                for r in clean.solve_stream(deltas, incremental=True, certify=True)
            ]
        with ServePool(1) as pool:
            got, live, replay_bytes = [], None, None
            stream = pool.solve_stream(deltas, incremental=True, certify=True)
            for i, result in enumerate(stream):
                got.append(_delta_summary(result))
                if i == kill_after:
                    live = result.num_columns
                    os.kill(pool.worker_pids[0], signal.SIGKILL)
                    deadline = time.monotonic() + 10
                    while pool.respawn_count < 1 and time.monotonic() < deadline:
                        time.sleep(0.05)
                    before = pool.metrics_snapshot()["serve.dispatch_bytes"]["value"]
                elif i == kill_after + 1:
                    sent = pool.metrics_snapshot()["serve.dispatch_bytes"]["value"]
                    replay_bytes = sent - before
            assert pool.respawn_count >= 1
        assert got == expected
        assert live is not None and live <= 10
        add_frame = wire.packed_size(n, 1)
        assert replay_bytes <= wire.bundle_size([add_frame] * (live + 2))
