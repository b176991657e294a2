"""E10 — measured wall-clock scaling of the real intra-instance solver.

Standalone JSON gate for the ``repro.parallel`` layer (DESIGN.md,
Substitution 7).  One *large* multi-component instance — the workload the
subsystem exists for — is solved by :class:`repro.parallel.ParallelSolver`
at each worker count in ``--workers``, one pool task per component; the
baseline is the serial indexed kernel on the very same
:class:`IndexedEnsemble`.  Every parallel layout is differentially
checked against the serial one before any timing is reported, so a
speedup can never be bought with a wrong answer.

On a single-core host the speedup does not come from extra CPUs: the
serial kernel drags full-width ``n``-atom masks through every
sub-component, while the fan-out re-densifies each component to its own
width before a worker solves it, shrinking every bitset word-count by the
component ratio.  The
worker-count sweep then shows how the fan-out schedule behaves on top of
that (see DESIGN.md for the measured shape).

Gates: ``--require-speedup X`` fails unless the *highest* worker count in
the sweep fans out (``execution == "parallel"``) and reaches ``X ×`` the
serial kernel (acceptance bar: 1.8 at 4 workers on the default 10^5-atom
ensemble; CI smoke: 1.0 at 2 workers on a 5000-atom shrink — the parallel
path must never lose, and a serial fallback cannot pass at ~1.0x).

Usage
-----
::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        --workers 1,2,4 --json parallel_scaling.json --require-speedup 1.8

    # CI smoke size
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        --atoms 5000 --length 40 --workers 2 --require-speedup 1.0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.core.indexed import IndexedEnsemble
from repro.core.instrument import SolverStats
from repro.ensemble import Ensemble
from repro.parallel import ParallelSolver


def build(n: int, m: int, comps: int, length: int, seed: int) -> Ensemble:
    """Interval columns round-robined over ``comps`` disjoint atom ranges.

    Long intervals keep the column count low while the total size (and so
    the serial kernel's full-width mask traffic) stays high — the regime
    where re-densification pays.  Column starts are drawn per range so the
    components have irregular internal structure.
    """
    if comps < 1 or n // comps <= length:
        raise SystemExit("need comps >= 1 and n/comps > length")
    rng = random.Random(seed)
    span = n // comps
    columns = []
    for j in range(m):
        base = (j % comps) * span
        start = base + rng.randrange(span - length)
        columns.append(frozenset(range(start, start + length)))
    return Ensemble(tuple(range(n)), tuple(dict.fromkeys(columns)))


def run(
    atoms: int, columns: int, components: int, length: int,
    seed: int, workers: list[int],
) -> dict:
    ensemble = build(atoms, columns, components, length, seed)
    indexed = IndexedEnsemble.from_ensemble(ensemble)

    start = time.perf_counter()
    serial_order = indexed.solve_path()
    serial_s = time.perf_counter() - start
    if serial_order is None:
        raise SystemExit("the planted scaling instance must be realizable")

    sweep = []
    for count in workers:
        stats = SolverStats()
        with ParallelSolver(count) as solver:
            begin = time.perf_counter()
            order = solver.solve_path_indices(indexed, stats)
            elapsed = time.perf_counter() - begin
        if order != serial_order:
            raise SystemExit(
                f"{count}-worker layout diverged from the serial kernel"
            )
        sweep.append({
            "workers": count,
            "execution": stats.execution,
            "seconds": elapsed,
            "speedup": serial_s / elapsed if elapsed > 0 else float("inf"),
            "parallel_tasks": stats.parallel_tasks,
            "task_seconds": stats.parallel_task_seconds,
        })

    return {
        "host": {"cpu_count": os.cpu_count() or 1},
        "workload": {
            "atoms": atoms,
            "columns": ensemble.num_columns,
            "components": components,
            "interval_length": length,
            "total_size": ensemble.total_size,
            "seed": seed,
        },
        "serial": {"kernel": "indexed", "seconds": serial_s},
        "sweep": sweep,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--atoms", type=int, default=100_000,
                        help="instance size (acceptance bar measures 10^5)")
    parser.add_argument("--columns", type=int, default=600)
    parser.add_argument("--components", type=int, default=8,
                        help="disjoint atom ranges the columns are planted in")
    parser.add_argument("--length", type=int, default=200,
                        help="interval length of every planted column")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts to sweep")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result record to PATH")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero when the highest worker count "
                        "falls below X times the serial indexed kernel")
    args = parser.parse_args(argv)
    try:
        counts = sorted({int(w) for w in args.workers.split(",") if w.strip()})
    except ValueError:
        parser.error("--workers must be comma-separated integers")
    if not counts or min(counts) < 1:
        parser.error("--workers needs at least one count >= 1")

    record = run(args.atoms, args.columns, args.components, args.length,
                 args.seed, counts)

    wl = record["workload"]
    print(f"E10  parallel scaling (n={wl['atoms']}, m={wl['columns']}, "
          f"{wl['components']} components, total size {wl['total_size']})")
    print(f"  serial indexed kernel   {record['serial']['seconds']:.3f}s")
    for row in record["sweep"]:
        print(f"  {row['workers']} workers   {row['seconds']:.3f}s   "
              f"({row['speedup']:.2f}x, {row['execution']}, "
              f"{row['parallel_tasks']} component tasks)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
        print(f"  recorded -> {args.json}")

    top = record["sweep"][-1]
    if args.require_speedup is None:
        return 0
    if top["execution"] != "parallel":
        print(f"FAIL: the {top['workers']}-worker run did not fan out "
              f"(execution={top['execution']!r})", file=sys.stderr)
        return 1
    if top["speedup"] < args.require_speedup:
        print(f"FAIL: {top['workers']}-worker speedup {top['speedup']:.2f}x "
              f"< required {args.require_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
