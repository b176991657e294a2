"""Shared measurement helpers: order statistics, memory, the host record."""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import resource
import signal
import subprocess
import time

#: tail percentiles tried from the highest down; the first with at least
#: ``TAIL_BEYOND`` samples above it is reported.  There is no p99.9: every
#: serving workload gets thousands of samples a run, so a faster program
#: would otherwise swap p99 for p99.9 and read as slower.  giant gets only
#: 20-40 instance solves a run, which leaves it the p50 rung; the maximum
#: it fell back to without that rung spread 0.16-0.36 between runs.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def workers() -> int:
    """Pool workers: one core stays free for the parent's feeder and collector."""
    return max(1, (os.cpu_count() or 1) - 1)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[float, str, int]:
    """``(value, label, samples beyond)``: the highest ladder percentile
    with at least :data:`TAIL_BEYOND` samples above it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        beyond = n - max(1, math.ceil(q / 100.0 * n))
        if beyond >= TAIL_BEYOND:
            return percentile(ordered, q), f"p{q:g}", beyond
    return ordered[-1], "max", 0


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB.

    ``ru_maxrss`` is in KiB on Linux; children count only once they have
    been waited for, so call this after every pool is closed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: a yardstick for host speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def git_sha(root: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_record(root: str, outstanding: int) -> dict:
    """What a reader needs to tell host drift from a regression."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pool_workers": workers(),
        "outstanding": outstanding,
    }


def _child_pids() -> list[int]:
    """Process ids whose parent is this process, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The pools close their own workers; this also catches any worker a
    failed close left behind, and the multiprocessing resource tracker,
    which the standard library starts for shared memory and never waits
    for: it would otherwise end only after this process has exited.
    Closing the tracker's pipe is how it is told to stop.  Whatever still
    runs after ``grace_s`` is killed; every child is reaped.
    """
    # Finalizers that still talk to the tracker run now, not at exit,
    # where they would start a new one.
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
            tracker._pid = None
    deadline = time.monotonic() + grace_s
    for pid in _child_pids():
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass
