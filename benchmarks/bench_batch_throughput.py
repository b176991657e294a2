"""E8 — indexed-kernel speedup and batch throughput (instances/sec).

Unlike the pytest-benchmark experiments, this is a standalone script: it is
the regression gate for the integer-indexed kernel and the batch layer, run
by CI on a small size and by hand on the full one.  It measures

1. **single-instance speedup** — ``path_realization`` with the indexed
   kernel vs. the label-level reference kernel on planted interval
   ensembles (the acceptance bar is >= 3x at 1000 atoms), and
2. **batch throughput** — ``solve_many`` instances/sec solving a fleet of
   instances serially vs. over a cold transient pool per call
   (``processes=N``: a :class:`repro.serve.ServePool` spawned, used and
   closed inside the call, its start-up included in the timing).

Results are printed as a table and recorded as JSON (``--json``).

Usage
-----
::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py \
        --atoms 1000 --columns 300 --instances 8 --json batch_throughput.json

    # CI smoke size
    PYTHONPATH=src python benchmarks/bench_batch_throughput.py \
        --atoms 120 --columns 60 --instances 4 --repeats 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.batch import solve_many
from repro.core import path_realization
from repro.generators import random_c1p_ensemble

import random


def _time_solver(ensembles, kernel: str) -> float:
    start = time.perf_counter()
    for ensemble in ensembles:
        if path_realization(ensemble, kernel=kernel) is None:
            raise SystemExit(f"kernel {kernel!r} rejected a planted C1P instance")
    return time.perf_counter() - start


def run(
    atoms: int,
    columns: int,
    instances: int,
    repeats: int,
    processes: int,
    max_len: int,
) -> dict:
    fleet = [
        random_c1p_ensemble(
            atoms, columns, random.Random(seed), min_len=2, max_len=max_len
        ).ensemble
        for seed in range(instances)
    ]

    # 1. single-instance: reference vs indexed kernel on the same instances.
    probe = fleet[: max(1, repeats)]
    reference_s = _time_solver(probe, "reference")
    indexed_s = _time_solver(probe, "indexed")
    speedup = reference_s / indexed_s if indexed_s > 0 else float("inf")

    # 2. batch throughput: serial vs a cold transient pool over the whole fleet.
    start = time.perf_counter()
    serial_results = solve_many(fleet, processes=None)
    serial_s = time.perf_counter() - start
    if not all(r.ok for r in serial_results):
        raise SystemExit("batch serial run rejected a planted C1P instance")

    start = time.perf_counter()
    pool_results = solve_many(fleet, processes=processes)
    pool_s = time.perf_counter() - start
    if not all(r.ok for r in pool_results):
        raise SystemExit("transient pool run rejected a planted C1P instance")

    workers = processes if processes else (os.cpu_count() or 1)
    return {
        "host": {"cpu_count": os.cpu_count() or 1},
        "workload": {
            "atoms": atoms,
            "columns": columns,
            "instances": instances,
            "repeats": max(1, repeats),
            "max_len": max_len,
        },
        "single_instance": {
            "reference_seconds": reference_s,
            "indexed_seconds": indexed_s,
            "speedup": speedup,
        },
        "batch": {
            "serial_seconds": serial_s,
            "serial_instances_per_second": len(fleet) / serial_s,
            "pool_workers": workers,
            "pool_seconds": pool_s,
            "pool_instances_per_second": len(fleet) / pool_s,
            "pool_speedup": serial_s / pool_s if pool_s > 0 else float("inf"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--atoms", type=int, default=1000)
    parser.add_argument("--columns", type=int, default=300)
    parser.add_argument("--instances", type=int, default=8)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="instances timed per kernel for the single-instance comparison",
    )
    parser.add_argument(
        "--processes", type=int, default=0,
        help="transient pool workers for the batch comparison (0 = one per CPU)",
    )
    parser.add_argument("--max-len", type=int, default=40, help="max interval length")
    parser.add_argument("--json", metavar="PATH", help="write the result record to PATH")
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="exit non-zero when the single-instance speedup falls below X",
    )
    args = parser.parse_args(argv)

    record = run(
        args.atoms, args.columns, args.instances, args.repeats,
        args.processes, args.max_len,
    )

    single = record["single_instance"]
    batch = record["batch"]
    print(f"E8  batch throughput (n={args.atoms}, m={args.columns}, "
          f"{args.instances} instances)")
    print(f"  single instance   reference {single['reference_seconds']:.3f}s   "
          f"indexed {single['indexed_seconds']:.3f}s   "
          f"speedup {single['speedup']:.2f}x")
    print(f"  batch serial      {batch['serial_seconds']:.3f}s   "
          f"{batch['serial_instances_per_second']:.2f} instances/sec")
    print(f"  batch transient pool ({batch['pool_workers']} workers)   "
          f"{batch['pool_seconds']:.3f}s   "
          f"{batch['pool_instances_per_second']:.2f} instances/sec   "
          f"({batch['pool_speedup']:.2f}x serial)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
        print(f"  recorded -> {args.json}")

    if args.require_speedup is not None and single["speedup"] < args.require_speedup:
        print(f"FAIL: single-instance speedup {single['speedup']:.2f}x "
              f"< required {args.require_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
