"""Self-tests for the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The file is deliberately not named ``test_*.py``: the tiny end-to-end runs
below take a couple of minutes, so the repository's own test suite does
not collect them.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import workloads  # noqa: E402
from repro import IncrementalSolver, path_realization  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def _fleet(seed):
    return [inputs.fleet_request(seed, i) for i in range(40)]


def _replay(seed):
    cdf = inputs.zipf_cdf()
    return [inputs.replay_request(seed, i, cdf) for i in range(20)]


def _session(seed):
    stream = inputs.DeltaStream(seed)
    return [next(stream) for _ in range(400)]


def _giant(seed):
    return inputs.giant_instances(seed)


@pytest.mark.parametrize("stream", [_fleet, _replay, _session, _giant])
def test_one_seed_repeats_and_another_differs(stream):
    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_giant_draws_differ_within_a_seed():
    assert inputs.giant_instances(7, 0) != inputs.giant_instances(7, 1)


def test_planted_truth_matches_the_solver():
    cdf = inputs.zipf_cdf()
    requests = _fleet(3) + [inputs.population_member(3, rank) for rank in range(16)]
    requests += [inputs.replay_request(3, i, cdf) for i in range(8)]
    for req in requests:
        assert (path_realization(req.ensemble) is not None) == req.accepted
    assert any(not req.accepted for req in requests)


def test_delta_stream_removes_only_accepted_columns_and_keeps_a_bounded_live_set():
    stream = inputs.DeltaStream(3)
    live: list[frozenset] = []
    ops = collections.Counter()
    for _ in range(4000):
        delta = next(stream)
        ops[delta.op, delta.accepted] += 1
        column = frozenset(delta.column)
        if delta.op == "remove":
            assert column in live
            live.remove(column)
        elif delta.op == "add" and delta.accepted:
            assert column not in live
            live.append(column)
        assert live == stream.live
        if stream.warm:
            assert stream.live_target <= len(live) <= stream.live_target + 2
    refused = ops["add", False]
    assert 0.05 * sum(ops.values()) < refused < 0.1 * sum(ops.values())
    assert ops["add", True] - ops["remove", True] == len(live)


def test_delta_stream_verdicts_match_the_incremental_solver():
    stream = inputs.DeltaStream(4)
    solver = IncrementalSolver(range(next(stream).column[0]))
    refusals = 0
    for _ in range(400):
        delta = next(stream)
        if delta.op == "add":
            assert solver.add_column(delta.column).accepted == delta.accepted
            refusals += not delta.accepted
        else:
            solver.remove_column(delta.column)
    assert refusals > 0
    assert [frozenset(c) for c in solver.columns] == stream.live


def _lru_hits(seed: int, arrivals: int) -> list[int]:
    cdf = inputs.zipf_cdf()
    lru: collections.OrderedDict = collections.OrderedDict()
    hits = []
    for index in range(arrivals):
        rank = inputs.replay_rank(seed, index, cdf)
        hits.append(rank in lru)
        lru[rank] = True
        lru.move_to_end(rank)
        if len(lru) > inputs.REPLAY_CACHE_ENTRIES:
            lru.popitem(last=False)
    return hits


def test_replay_warm_up_reaches_a_steady_hit_share():
    fill, window = workloads.REPLAY_FILL, 3000
    hits = _lru_hits(11, fill + 3 * window)
    share = [sum(hits[a:a + window]) / window for a in range(fill, fill + 3 * window, window)]
    assert max(share) - min(share) < 0.03
    assert 0.85 < share[0] < 0.97  # hits, misses and evictions all keep happening
    assert sum(hits[:200]) / 200 < share[0] - 0.1  # the fill is what warms it


def _session_members(sid: int) -> list[int]:
    """Processes, zombies included, still in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_fails_nothing_and_prints_declared_metrics(workload, trace):
    # A session of its own holds every process the run starts, so what is
    # left in it afterwards outlived the run.
    run = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = run.communicate(timeout=180)
    finally:
        run.kill()
        run.wait()
    assert _session_members(run.pid) == []
    assert run.returncode == 0, stderr
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert json.loads(lines[-2])["record"]["beside"]["failed_share"] == 0.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "serve-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
