"""E9 — serving-pool dispatch: one warm pool vs. a cold transient pool per call.

Standalone JSON gate for the ``repro.serve`` layer (DESIGN.md,
Substitution 5).  The workload is the shape that motivated the subsystem:
a long-lived stream of *many small instances*, arriving in groups of
``--arrival-batch``, where per-call dispatch cost — pool cold start plus
per-group bundling — dominates actual solving.  Both paths run the same
pool code over the packed shared-memory wire format and see the
*identical* arrival granularity and worker count, so the measured
difference is what keeping the workers warm buys:

1. **cold transient pools** — one ``solve_many(group, processes=W)`` call
   per arriving group, the one-shot way: a transient
   :class:`repro.serve.ServePool` spawned, used and closed per call;
2. **warm shared memory** — the same groups through one long-lived
   ``ServePool``: spawn-once workers fed packed bitmask bundles via
   ``multiprocessing.shared_memory`` (pool construction is excluded —
   that is the point of a warm pool);
3. **amortized single call** (informational) — the whole fleet in ONE
   call on each path, where the transient pool amortizes its cold start
   across every instance; reported so the JSON records both ends of the
   arrival spectrum;
4. **submit→result latency** — a two-instance ping, cold pool vs. warm.

Gates: ``--require-speedup X`` fails unless warm shared-memory dispatch
reaches ``X ×`` the cold transient-pool throughput at arrival granularity
(acceptance bar: 2.0 on a fleet of >= 200 small instances; CI smoke: 1.0 —
a warm pool must never lose), and ``--require-latency-speedup Y`` the
same for the latency ping.  The two paths are differentially checked
against each other before any timing is reported.

Usage
-----
::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \
        --instances 240 --arrival-batch 3 --json serve_throughput.json \
        --require-speedup 2.0

    # CI smoke size
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \
        --instances 64 --repeats 2 --require-speedup 1.0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.batch import solve_many
from repro.core.indexed import IndexedEnsemble
from repro.serve import ServePool


def _fleet(instances: int, atoms: int, columns: int) -> list:
    from repro.generators import random_c1p_ensemble

    return [
        random_c1p_ensemble(atoms, columns, random.Random(seed)).ensemble
        for seed in range(instances)
    ]


def _best_of(repeats: int, run) -> float:
    return min(run() for _ in range(max(1, repeats)))


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _check_realized(results) -> None:
    if not all(r.ok for r in results):
        raise SystemExit("a dispatch path rejected a planted C1P instance")


def run(
    instances: int,
    atoms: int,
    columns: int,
    arrival_batch: int,
    repeats: int,
    processes: int,
) -> dict:
    fleet = _fleet(instances, atoms, columns)
    groups = [
        fleet[i : i + arrival_batch] for i in range(0, len(fleet), arrival_batch)
    ]
    # The dispatch comparison needs actual cross-process dispatch on both
    # sides; a 1-CPU host would otherwise let solve_many fall back to a
    # serial in-process loop and measure nothing.
    workers = processes or max(2, os.cpu_count() or 1)

    def cold_groups() -> float:
        elapsed = 0.0
        for group in groups:
            start = time.perf_counter()
            results = solve_many(group, processes=workers)
            elapsed += time.perf_counter() - start
            _check_realized(results)
        return elapsed

    def cold_single_call() -> float:
        start = time.perf_counter()
        results = solve_many(fleet, processes=workers)
        elapsed = time.perf_counter() - start
        _check_realized(results)
        return elapsed

    with ServePool(workers) as pool:
        # Warm the workers (imports, allocator) and differentially check the
        # two dispatch paths before timing anything.
        warm_results = pool.solve_many(fleet)
        serial_results = solve_many(fleet)
        for warm, serial in zip(warm_results, serial_results):
            if (warm.order, warm.status) != (serial.order, serial.status):
                raise SystemExit(
                    f"dispatch paths diverged at instance {warm.index}"
                )

        def warm_groups() -> float:
            elapsed = 0.0
            for group in groups:
                start = time.perf_counter()
                results = pool.solve_many(group)
                elapsed += time.perf_counter() - start
                _check_realized(results)
            return elapsed

        def warm_single_call() -> float:
            start = time.perf_counter()
            results = pool.solve_many(fleet)
            elapsed = time.perf_counter() - start
            _check_realized(results)
            return elapsed

        cold_s = _best_of(repeats, cold_groups)
        warm_s = _best_of(repeats, warm_groups)
        cold_amortized_s = _best_of(repeats, cold_single_call)
        warm_amortized_s = _best_of(repeats, warm_single_call)

        ping = fleet[:2]
        cold_latency = _best_of(
            repeats, lambda: _time(lambda: solve_many(ping, processes=2))
        )
        warm_latency = _best_of(
            repeats, lambda: _time(lambda: pool.solve_many(ping, chunksize=1))
        )

    payload_bytes = len(IndexedEnsemble.from_ensemble(fleet[0]).pack_masks())
    return {
        "host": {"cpu_count": os.cpu_count() or 1},
        "workload": {
            "instances": instances,
            "atoms": atoms,
            "columns": columns,
            "arrival_batch": arrival_batch,
            "calls": len(groups),
            "repeats": max(1, repeats),
            "workers": workers,
            "wire_payload_bytes_per_task": payload_bytes,
        },
        "throughput": {
            "cold_transient_pool_seconds": cold_s,
            "cold_transient_pool_instances_per_second": instances / cold_s,
            "warm_shared_memory_seconds": warm_s,
            "warm_shared_memory_instances_per_second": instances / warm_s,
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        },
        "amortized_single_call": {
            "cold_transient_pool_seconds": cold_amortized_s,
            "warm_shared_memory_seconds": warm_amortized_s,
            "speedup": cold_amortized_s / warm_amortized_s
            if warm_amortized_s > 0
            else float("inf"),
        },
        "latency": {
            "cold_start_seconds": cold_latency,
            "warm_pool_seconds": warm_latency,
            "speedup": cold_latency / warm_latency
            if warm_latency > 0
            else float("inf"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=240,
                        help="fleet size (acceptance bar measures >= 200)")
    parser.add_argument("--atoms", type=int, default=16)
    parser.add_argument("--columns", type=int, default=10)
    parser.add_argument("--arrival-batch", type=int, default=3,
                        help="instances arriving per serving call "
                        "(each cold call pays a transient pool's startup)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--processes", type=int, default=0,
                        help="workers for both pools "
                        "(0 = one per CPU, at least 2)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result record to PATH")
    parser.add_argument("--require-speedup", type=float, default=None, metavar="X",
                        help="exit non-zero when warm shared-memory throughput "
                        "falls below X times a cold transient pool per call")
    parser.add_argument("--require-latency-speedup", type=float, default=None,
                        metavar="Y",
                        help="exit non-zero when the warm-pool latency advantage "
                        "falls below Y")
    args = parser.parse_args(argv)
    if args.arrival_batch < 1:
        parser.error("--arrival-batch must be >= 1")

    record = run(args.instances, args.atoms, args.columns, args.arrival_batch,
                 args.repeats, args.processes)

    tp, amortized, lat = (
        record["throughput"], record["amortized_single_call"], record["latency"]
    )
    print(f"E9  serve dispatch (n={args.atoms}, m={args.columns}, "
          f"{args.instances} instances in groups of {args.arrival_batch}, "
          f"{record['workload']['workers']} workers, "
          f"{record['workload']['wire_payload_bytes_per_task']} wire bytes/task)")
    print(f"  cold transient pools {tp['cold_transient_pool_seconds']:.3f}s   "
          f"{tp['cold_transient_pool_instances_per_second']:.1f} instances/sec")
    print(f"  warm shared memory   {tp['warm_shared_memory_seconds']:.3f}s   "
          f"{tp['warm_shared_memory_instances_per_second']:.1f} instances/sec   "
          f"({tp['speedup']:.2f}x)")
    print(f"  amortized single call   cold {amortized['cold_transient_pool_seconds']:.3f}s   "
          f"warm {amortized['warm_shared_memory_seconds']:.3f}s   "
          f"({amortized['speedup']:.2f}x)")
    print(f"  latency (2-instance ping)   cold {lat['cold_start_seconds'] * 1e3:.1f}ms   "
          f"warm {lat['warm_pool_seconds'] * 1e3:.1f}ms   ({lat['speedup']:.2f}x)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
        print(f"  recorded -> {args.json}")

    failed = False
    if args.require_speedup is not None and tp["speedup"] < args.require_speedup:
        print(f"FAIL: warm shared-memory speedup {tp['speedup']:.2f}x "
              f"< required {args.require_speedup}x", file=sys.stderr)
        failed = True
    if (args.require_latency_speedup is not None
            and lat["speedup"] < args.require_latency_speedup):
        print(f"FAIL: warm-pool latency speedup {lat['speedup']:.2f}x "
              f"< required {args.require_latency_speedup}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
