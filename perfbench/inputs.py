"""Seeded inputs for every benchmark workload.

Everything here is generated by this file's own code from ``(seed, index)``
so that no change to ``repro.generators`` or to the scripts under
``benchmarks/`` can alter a workload.  Requests are pure functions of the
seed and their position in the stream: the timed phase produces them lazily
as the pool pulls them, and the proof phase regenerates the very same
requests afterwards instead of holding them in memory.

Every request carries its planted truth (``accepted``), which the proof
phase compares with the program's verdict.
"""

from __future__ import annotations

import bisect
import random
from typing import NamedTuple

from repro.ensemble import Ensemble

#: serve-fleet shape: 16-atom instances, about a quarter rejecting.
FLEET_ATOMS = 16
FLEET_COLUMNS = 10
FLEET_REJECT_SHARE = 0.25

#: cache-replay shape: Zipf(1.1) traffic over a population larger than
#: the cache's 256 entries, 1 in 8 population members rejecting.
REPLAY_ATOMS = 120
REPLAY_COLUMNS = 40
REPLAY_POPULATION = 400
REPLAY_SKEW = 1.1
REPLAY_CACHE_ENTRIES = 256

#: delta-session shape: one session over a few hundred atoms whose live
#: column count is held at ``SESSION_LIVE`` once the warm-up fill is done.
SESSION_ATOMS = 300
SESSION_LIVE = 40
#: intervals this long make certified refusals clearly slower than removes,
#: so the latency p99 falls among the refusals instead of among removes
#: that a slow moment of the host pushed up.
SESSION_MAX_LENGTH = 60
#: chance that a planning step at the live target refuses instead of
#: adding; about 8% of all deltas end up refused, enough for the p99 to
#: rest on a few dozen refusals per run.
SESSION_REFUSE_CHANCE = 0.2
#: deltas between live sets that the solve passes re-solve from scratch:
#: enough for nearly all of the live columns to turn over.
SESSION_SNAPSHOT = 160

#: giant shapes: the 8-range interval ensemble and one single-component
#: random instance.
GIANT_ATOMS = 5000
GIANT_COLUMNS = 600
GIANT_RANGES = 8
GIANT_LENGTH = 40
WIDE_ATOMS = 1000
WIDE_COLUMNS = 300
WIDE_MAX_LENGTH = 250
WIDE_SEED = 7
#: the parallel solver's warm-up instance is this one draw of the 8-range
#: shape, whatever the run's seed.
GIANT_WARM_SEED = 7


class Request(NamedTuple):
    """One generated instance and its planted verdict."""

    ensemble: Ensemble
    accepted: bool


def seeded(seed: int, *parts) -> random.Random:
    # String seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the order in which requests are generated.
    return random.Random(":".join(map(str, (seed,) + parts)))


# ---------------------------------------------------------------------- #
# building blocks
# ---------------------------------------------------------------------- #
def tucker_core(family: str, k: int) -> tuple[int, list[frozenset]]:
    """``(atoms, rows)`` of the Tucker obstruction ``family(k)`` on ``0..atoms-1``."""
    if family == "M_I":
        n = k + 2
        return n, [frozenset({i, i + 1}) for i in range(n - 1)] + [frozenset({0, n - 1})]
    if family == "M_II":
        rows = [frozenset({i, i + 1}) for i in range(k + 1)]
        rows.append(frozenset(set(range(k + 1)) | {k + 2}))
        rows.append(frozenset(set(range(1, k + 2)) | {k + 2}))
        return k + 3, rows
    if family == "M_III":
        rows = [frozenset({i, i + 1}) for i in range(k + 1)]
        rows.append(frozenset(set(range(1, k + 1)) | {k + 2}))
        return k + 3, rows
    if family == "M_IV":
        return 6, [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}), frozenset({0, 2, 4})]
    if family == "M_V":
        return 5, [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({0, 1, 2, 3}),
            frozenset({0, 2, 4}),
        ]
    raise ValueError(f"unknown Tucker family {family!r}")


TUCKER_FAMILIES = ("M_I", "M_II", "M_III", "M_IV", "M_V")


def _interval(order: list, rng: random.Random, min_len: int, max_len: int) -> frozenset:
    length = rng.randint(min_len, min(max_len, len(order)))
    start = rng.randrange(len(order) - length + 1)
    return frozenset(order[start:start + length])


def planted_accepted(n: int, m: int, rng: random.Random, max_len: int) -> Ensemble:
    """``m`` intervals of a hidden permutation of ``0..n-1``: always C1P."""
    hidden = list(range(n))
    rng.shuffle(hidden)
    columns = [_interval(hidden, rng, 2, max_len) for _ in range(m)]
    return Ensemble(tuple(range(n)), tuple(columns))


def planted_rejected(n: int, m: int, rng: random.Random, max_len: int) -> Ensemble:
    """A Tucker obstruction welded into interval padding: never C1P.

    The core's rows stay intact on their own atoms, so the instance keeps
    the obstruction whatever the padding adds; the padding intervals run
    over a hidden order of *all* atoms, core atoms included, so they weld
    the core into the rest of the instance instead of leaving it as a
    separate component.
    """
    family = rng.choice(TUCKER_FAMILIES)
    k = rng.randint(1, 3) if family in ("M_I", "M_II", "M_III") else 1
    core_n, core_rows = tucker_core(family, k)
    labels = list(range(n))
    rng.shuffle(labels)
    rows = [frozenset(labels[a] for a in row) for row in core_rows]
    hidden = list(range(n))
    rng.shuffle(hidden)
    padding = [_interval(hidden, rng, 2, max_len) for _ in range(max(2, m - len(rows)))]
    columns = rows + padding
    rng.shuffle(columns)
    return Ensemble(tuple(range(n)), tuple(columns))


def relabeled(ensemble: Ensemble, rng: random.Random) -> Ensemble:
    """The same instance with its atoms renamed and its columns shuffled."""
    targets = list(range(ensemble.num_atoms))
    rng.shuffle(targets)
    rename = dict(zip(ensemble.atoms, targets))
    columns = [frozenset(rename[a] for a in column) for column in ensemble.columns]
    rng.shuffle(columns)
    return Ensemble(tuple(range(ensemble.num_atoms)), tuple(columns))


# ---------------------------------------------------------------------- #
# serve-fleet
# ---------------------------------------------------------------------- #
def fleet_request(seed: int, index: int, stream: str = "fleet") -> Request:
    rng = seeded(seed, stream, index)
    if rng.random() < FLEET_REJECT_SHARE:
        return Request(planted_rejected(FLEET_ATOMS, FLEET_COLUMNS, rng, 8), False)
    return Request(planted_accepted(FLEET_ATOMS, FLEET_COLUMNS, rng, 8), True)


# ---------------------------------------------------------------------- #
# cache-replay
# ---------------------------------------------------------------------- #
def zipf_cdf() -> list[float]:
    weights = [1.0 / (rank + 1) ** REPLAY_SKEW for rank in range(REPLAY_POPULATION)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def replay_rank(seed: int, index: int, cdf: list[float]) -> int:
    return bisect.bisect_left(cdf, seeded(seed, "rank", index).random())


def population_draw(seed: int, index: int) -> Request:
    """An accepting population member drawn uniformly (not by popularity),
    relabeled: the solves a cache hit saves.  Rejecting members solve in
    well under half the time (median 11 ms against 27 ms), so drawing them
    too made pass times swing with how many a round happened to get."""
    rng = seeded(seed, "uniform", index)
    rank = rng.randrange(REPLAY_POPULATION)
    while rank % 8 == 7:
        rank = rng.randrange(REPLAY_POPULATION)
    member = population_member(seed, rank)
    return Request(relabeled(member.ensemble, rng), member.accepted)


def population_member(seed: int, rank: int) -> Request:
    """Population member ``rank``; every eighth member rejects."""
    rng = seeded(seed, "population", rank)
    if rank % 8 == 7:
        return Request(planted_rejected(REPLAY_ATOMS, REPLAY_COLUMNS, rng, 60), False)
    return Request(planted_accepted(REPLAY_ATOMS, REPLAY_COLUMNS, rng, 60), True)


def replay_request(seed: int, index: int, cdf: list[float]) -> Request:
    """Arrival ``index``: a Zipf-ranked member, relabeled and column-shuffled."""
    member = population_member(seed, replay_rank(seed, index, cdf))
    return Request(relabeled(member.ensemble, seeded(seed, "relabel", index)), member.accepted)


# ---------------------------------------------------------------------- #
# delta-session
# ---------------------------------------------------------------------- #
class Delta(NamedTuple):
    """One session delta: ``op`` is ``"open"``, ``"add"`` or ``"remove"``."""

    op: str
    column: tuple
    accepted: bool


class DeltaStream:
    """The delta-session traffic, generated one delta at a time.

    Adds are intervals of a hidden order, so every one of them is accepted.
    A refusal closes a triangle ``{a,b}, {b,c}, {a,c}`` over three atoms
    that are consecutive in the hidden order (the Tucker obstruction
    ``M_I(1)``), first adding whichever of the two pairs is not live yet.
    Refusals all have this one shape so that their cost, which sets the
    latency tail, does not swing with the obstruction's size.  Once the
    warm-up fill reaches ``live_target`` columns, the stream removes a
    random live column whenever the count is above the target, so it stays
    within two of it.  ``live`` is the accepted column list in arrival
    order, which is exactly what the session's witnesses index (refused
    column last).
    """

    def __init__(self, seed: int) -> None:
        self.atoms = SESSION_ATOMS
        self.live_target = SESSION_LIVE
        self._rng = seeded(seed, "session")
        self._hidden = list(range(self.atoms))
        self._rng.shuffle(self._hidden)
        self.live: list[frozenset] = []
        self._pending: list[Delta] = [Delta("open", (self.atoms,), True)]

    @property
    def warm(self) -> bool:
        """True once the warm-up fill has reached the live target."""
        return len(self.live) >= self.live_target

    def __iter__(self):
        return self

    def __next__(self) -> Delta:
        if not self._pending:
            self._pending = self._plan()
        delta = self._pending.pop(0)
        column = frozenset(delta.column)
        if delta.op == "add" and delta.accepted:
            self.live.append(column)
        elif delta.op == "remove":
            self.live.remove(column)
        return delta

    def _plan(self) -> list[Delta]:
        rng = self._rng
        live = set(self.live)
        if len(self.live) > self.live_target:
            victim = self.live[rng.randrange(len(self.live))]
            return [Delta("remove", tuple(sorted(victim)), True)]
        if self.warm and rng.random() < SESSION_REFUSE_CHANCE:
            start = rng.randrange(self.atoms - 2)
            a, b, c = self._hidden[start:start + 3]
            plan = [
                Delta("add", tuple(sorted(pair)), True)
                for pair in ((a, b), (b, c))
                if frozenset(pair) not in live
            ]
            plan.append(Delta("add", tuple(sorted((a, c))), False))
            return plan
        while True:
            column = _interval(self._hidden, rng, 2, SESSION_MAX_LENGTH)
            if column not in live:
                return [Delta("add", tuple(sorted(column)), True)]


# ---------------------------------------------------------------------- #
# giant
# ---------------------------------------------------------------------- #
def ranged_intervals(seed: int, draw: int = 0) -> Ensemble:
    """Intervals round-robined over disjoint atom ranges (8 components)."""
    rng = seeded(seed, "giant", draw)
    span = GIANT_ATOMS // GIANT_RANGES
    columns = []
    for j in range(GIANT_COLUMNS):
        start = (j % GIANT_RANGES) * span + rng.randrange(span - GIANT_LENGTH)
        columns.append(frozenset(range(start, start + GIANT_LENGTH)))
    return Ensemble(tuple(range(GIANT_ATOMS)), tuple(dict.fromkeys(columns)))


def wide_single_component() -> Ensemble:
    """Random intervals of a hidden order, chained into one component.

    A spine of overlapping intervals covers the whole hidden order, so the
    instance is one connected component however the random columns fall.
    This is one fixed draw, the same for every seed: across draws of this
    shape the serial solve time ranges over 0.46-0.98 s (coefficient of
    variation 0.25), more than any run length here could average out.
    """
    rng = seeded(WIDE_SEED, "wide")
    hidden = list(range(WIDE_ATOMS))
    rng.shuffle(hidden)
    spine = [frozenset(hidden[s:s + 40]) for s in range(0, WIDE_ATOMS - 10, 30)]
    extra = [_interval(hidden, rng, 2, WIDE_MAX_LENGTH) for _ in range(WIDE_COLUMNS - len(spine))]
    columns = spine + extra
    rng.shuffle(columns)
    return Ensemble(tuple(range(WIDE_ATOMS)), tuple(columns))


def giant_warm() -> Ensemble:
    """The parallel solver's warm-up instance: one fixed draw of the 8-range
    shape, the same for every seed.  Warm parallel solves of different
    draws took 0.33-0.49 s, so a seeded draw made ``setup_s`` on giant
    depend on the seed more than on set-up."""
    return ranged_intervals(GIANT_WARM_SEED, -1)


def giant_instances(seed: int, draw: int = 0) -> list[Request]:
    """Draw ``draw`` of the giant pair: a fresh 8-range ensemble (its
    solve time varies about 7% between draws, so each timed round solves
    a new one and the run reports medians) and the fixed wide instance."""
    return [Request(ranged_intervals(seed, draw), True), Request(wide_single_component(), True)]
