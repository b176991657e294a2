"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs it again with tracing on, replays
its inputs through every layer's public functions and prints the
per-layer metrics.  Human-readable lines and a JSON run record come
first; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: the measurement must end within this many seconds, leaving time to
#: stop every process before the run's 180 s limit.
RUN_LIMIT_S = 160


def _expired(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import common

    try:
        return measure(parser, args)
    finally:
        # On every way out, a result or an exception: no process this run
        # started may outlive it.
        signal.alarm(0)
        common.stop_children()


def measure(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # The program under test lives in the checkout's src/; without it
    # there is nothing to measure and the import below fails the run.
    import common
    import workloads

    if args.workload not in workloads.RUNNERS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(RUN_LIMIT_S)

    reference_start = common.reference_loop_s()
    if args.trace:
        import layers

        correct, attempted, failed, metrics, beside = layers.run(
            args.workload, args.seed, args.seconds, ROOT
        )
    else:
        run = workloads.RUNNERS[args.workload](args.seed, args.seconds)
        metrics, beside = workloads.end_to_end(run)
        attempted, failed = run.attempted, len(run.failed)
        correct = attempted > 0 and not run.failed and not run.errors
        for line in run.failed[:20] + run.errors[:20]:
            print(f"WRONG {args.workload}: {line}")
    signal.alarm(0)

    record = common.host_record(ROOT, common.workers() + 1)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        reference_loop_s={"start": reference_start, "end": common.reference_loop_s()},
        beside=beside,
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>14} {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
