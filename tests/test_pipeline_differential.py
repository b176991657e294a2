"""One request pipeline: every cache-fronted path gives the same answers.

Serial ``solve_many(cache=)``, a warm ``ServePool`` stream with a cache
and per-instance ``cached_solve`` all run their requests through the one
cache front (``repro.incremental.cache.CacheFront``) and build every
answer with ``batch._result``, so their ``summary()`` JSON must agree byte
for byte — on relabeled duplicates, linear and circular, certified.  Also
pinned here: coalescing is deterministic when every duplicate lands in its
leader's bundle, a closed stream stops pulling its input (also when the
input blocks), and delta mode still needs a pool.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import threading
import time

import pytest

from repro import Ensemble, solve_many
from repro.generators import (
    random_c1p_ensemble,
    random_circular_ensemble,
    tucker_m1,
    tucker_m2,
    tucker_m4,
)
from repro.incremental import ResultCache, cached_solve, canonical_form
from repro.serve import ServePool


def _relabeled(ensemble: Ensemble, rng: random.Random) -> Ensemble:
    """``ensemble`` with its atoms renamed and its columns shuffled."""
    labels = list(ensemble.atoms)
    rng.shuffle(labels)
    renamed = ensemble.relabel(dict(zip(ensemble.atoms, labels)))
    columns = list(renamed.columns)
    rng.shuffle(columns)
    return Ensemble(renamed.atoms, tuple(columns))


def _requests(circular: bool) -> list[Ensemble]:
    """Accepted and rejected bases, each followed by relabeled duplicates."""
    rng = random.Random(211 + circular)
    generate = random_circular_ensemble if circular else random_c1p_ensemble
    bases = [generate(7, 5, random.Random(seed)).ensemble for seed in (1, 2)]
    bases += [tucker_m1(2), tucker_m2(1), tucker_m4()]
    requests = []
    for base in bases:
        requests.append(base)
        requests.extend(_relabeled(base, rng) for _ in range(2))
    rng.shuffle(requests)
    return requests


def _duplicates(requests: list[Ensemble]) -> int:
    """Requests whose canonical form an earlier request already has."""
    identities = set()
    for request in requests:
        form = canonical_form(request)
        assert form.exact
        identities.add((form.key, form.num_atoms, form.masks))
    return len(requests) - len(identities)


def _summaries(results) -> list[str]:
    return [json.dumps(r.summary(), sort_keys=True, default=str) for r in results]


def _answer(order, certificate) -> str:
    return json.dumps(
        {
            "order": order,
            "certificate": None if certificate is None else certificate.to_json(),
        },
        sort_keys=True,
        default=str,
    )


def _counter(pool: ServePool, name: str) -> int:
    return int(pool.metrics_snapshot().get(name, {}).get("value", 0))


@pytest.mark.parametrize("circular", [False, True])
def test_serial_pool_and_cached_solve_agree(circular):
    requests = _requests(circular)
    serial = solve_many(requests, circular=circular, certify=True, cache=ResultCache(64))
    assert {r.split for r in serial} == {"cache"}
    assert any(r.ok for r in serial) and not all(r.ok for r in serial)
    with ServePool(1) as pool:
        streamed = list(
            pool.solve_stream(
                requests,
                circular=circular,
                certify=True,
                ordered=True,
                chunksize=2,
                cache=ResultCache(64, metrics=pool.metrics),
            )
        )
    assert _summaries(streamed) == _summaries(serial)
    shared = ResultCache(64)
    one_by_one = [
        _answer(*cached_solve(shared, request, circular=circular, certify=True))
        for request in requests
    ]
    assert one_by_one == [_answer(r.order, r.certificate) for r in serial]


def test_serial_cache_answers_duplicates_from_the_store():
    requests = _requests(False)
    cache = ResultCache(64)
    solve_many(requests, certify=True, cache=cache)
    hits = cache.metrics.counter("cache.hits").value
    assert hits == _duplicates(requests)
    assert cache.metrics.counter("cache.coalesced").value == 0


def test_in_chunk_duplicates_coalesce_then_hit():
    requests = _requests(False)
    duplicates = _duplicates(requests)
    assert duplicates > 0
    with ServePool(1) as pool:
        cache = ResultCache(64, metrics=pool.metrics)
        # One bundle holds every leader, so no leader settles before the
        # last request is admitted: each duplicate follows its leader.
        first = pool.solve_many(
            requests, certify=True, cache=cache, chunksize=len(requests)
        )
        assert _counter(pool, "cache.hits") == 0
        assert _counter(pool, "cache.coalesced") == duplicates
        assert _counter(pool, "serve.tasks") == 1
        second = pool.solve_many(
            requests, certify=True, cache=cache, chunksize=len(requests)
        )
        assert _counter(pool, "cache.hits") == len(requests)
        assert _counter(pool, "cache.coalesced") == duplicates
        assert _counter(pool, "serve.tasks") == 1
    assert _summaries(second) == _summaries(first)


def test_incremental_still_needs_a_pool():
    with pytest.raises(ValueError, match="incremental"):
        solve_many([("open", 3), ("add", (0, 1))], incremental=True)


def test_closing_a_stream_stops_its_feeder():
    pulled = 0

    def requests():
        nonlocal pulled
        for seed in range(400):
            pulled += 1
            yield random_c1p_ensemble(8, 5, random.Random(seed)).ensemble

    with ServePool(1) as pool:
        stream = pool.solve_stream(requests())
        for _ in stream:
            break
        stream.close()
        at_close = pulled
        time.sleep(0.3)
        tasks = _counter(pool, "serve.tasks")
    # The feeder stops before its next pull: a few requests past the
    # in-flight window of 4, never the whole input, none after close().
    assert pulled == at_close
    assert pulled < 100
    assert tasks <= pulled


def test_closing_a_stream_takes_nothing_more_from_a_blocking_source():
    # A source that blocks until fed, as stdin or a socket does.  At close()
    # the feeder waits for the one in-flight slot, held by a frozen worker,
    # and the source is drained.  Once the slot frees the feeder must stop;
    # pulling again would block it in the source for close()'s whole join
    # timeout, and the next line fed would be taken and thrown away.
    inbox: queue.Queue = queue.Queue()
    pulled = 0

    def requests():
        nonlocal pulled
        while (request := inbox.get()) is not None:
            pulled += 1
            yield request

    instances = [
        random_c1p_ensemble(8, 5, random.Random(seed)).ensemble for seed in range(3)
    ]
    with ServePool(1, max_inflight=1) as pool:
        (pid,) = pool.worker_pids
        inbox.put(instances[0])
        stream = pool.solve_stream(requests())
        thaw = threading.Timer(0.3, os.kill, (pid, signal.SIGCONT))
        try:
            assert next(stream).index == 0
            os.kill(pid, signal.SIGSTOP)
            inbox.put(instances[1])  # takes the slot on the frozen worker
            inbox.put(instances[2])  # waits for the slot
            deadline = time.monotonic() + 10.0
            while pulled < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pulled == 3
            thaw.start()
            started = time.monotonic()
            stream.close()
            elapsed = time.monotonic() - started
            inbox.put(instances[0])  # a line that arrives after close()
            time.sleep(0.2)
        finally:
            thaw.cancel()
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            inbox.put(None)
    assert elapsed < 4.0, f"close() waited {elapsed:.1f}s on the feeder"
    assert pulled == 3
