"""Join measured span durations against analytic cost-model charges.

The :mod:`repro.pram.costmodel` charges are *constants-one work units*;
the spans recorded by :mod:`repro.obs.trace` are *measured seconds*.
The PR 7 rule stands: the two are never mixed into one number that
could be mistaken for either.  A :class:`CalibrationRow` keeps
``measured_seconds`` and ``analytic_units`` in separately named fields
and only the explicitly labelled ``seconds_per_unit`` ratio relates
them — that ratio *is* the hidden constant the model sets to one, so a
stable ratio across sizes validates the model's shape and a drifting
one localises where it breaks (DESIGN.md, Substitution 8).

Join semantics
--------------
Each traced phase maps to the cost-model term charging the same
operation, with the term's inputs read from the span's tags:

====================  ===============================  =======================
span name             costmodel term                   analytic units
====================  ===============================  =======================
``solve.path``        ``sequential_solve_work``        ``f(p)``
``solve.cycle``       ``sequential_solve_work``        ``f(p)``
``tutte.build``       ``sequential_tutte_build_work``  ``f(n, m, engine)``
``merge.verify``      ``merge_verify_work``            ``f(p)``
``certify.narrow``    ``certify_work``                 ``f(n, m, p)``
``serve.task``        ``serve_fleet_dispatch_work``    ``ceil(payload_bytes/8)``
``pool.spawn``        ``pool_startup_work``            ``f(workers)``
====================  ===============================  =======================

``serve.task`` joins the *measured* frame size against the model's
bytes→work conversion (one unit per 8-byte word, the
``serve_fleet_dispatch_work`` convention) because the model's byte
count is itself what the span's ``payload_bytes`` tag realizes.

Only ``status == "ok"`` spans are counted — an aborted span's duration
measures a crash window, not the phase.  A span whose *parent* has the
same name is dropped as a self-nesting (the mask-level merge falling
back to the label-level merge re-enters ``merge.verify``; counting both
would double the measured seconds for single analytic work).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..pram import costmodel

__all__ = ["CalibrationReport", "CalibrationRow", "calibrate"]


def _units_solve(tags: dict[str, Any]) -> int | None:
    p = tags.get("p")
    return None if p is None else costmodel.sequential_solve_work(p)


def _units_tutte_build(tags: dict[str, Any]) -> int | None:
    n, m = tags.get("n"), tags.get("m")
    if n is None or m is None:
        return None
    engine = tags.get("engine") or "spqr"
    return costmodel.sequential_tutte_build_work(n, m, engine)


def _units_merge(tags: dict[str, Any]) -> int | None:
    p = tags.get("p")
    return None if p is None else costmodel.merge_verify_work(p)


def _units_certify(tags: dict[str, Any]) -> int | None:
    n, m, p = tags.get("n"), tags.get("m"), tags.get("p")
    if n is None or m is None or p is None:
        return None
    return costmodel.certify_work(n, m, p)


def _units_serve_task(tags: dict[str, Any]) -> int | None:
    payload = tags.get("payload_bytes")
    return None if payload is None else (int(payload) + 7) // 8


def _units_pool_spawn(tags: dict[str, Any]) -> int | None:
    workers = tags.get("workers")
    if workers is None:
        return None
    return costmodel.pool_startup_work(workers, cold=True)


#: span name -> (costmodel term name, tag-reader returning analytic units).
SPAN_JOINS: dict[str, tuple[str, Callable[[dict[str, Any]], int | None]]] = {
    "solve.path": ("sequential_solve_work", _units_solve),
    "solve.cycle": ("sequential_solve_work", _units_solve),
    "tutte.build": ("sequential_tutte_build_work", _units_tutte_build),
    "merge.verify": ("merge_verify_work", _units_merge),
    "certify.narrow": ("certify_work", _units_certify),
    "serve.task": ("serve_fleet_dispatch_work", _units_serve_task),
    "pool.spawn": ("pool_startup_work", _units_pool_spawn),
}


@dataclass(frozen=True)
class CalibrationRow:
    """One cost-model term joined against its measured spans."""

    term: str
    spans: int
    measured_seconds: float
    analytic_units: int

    @property
    def seconds_per_unit(self) -> float | None:
        """The realized hidden constant; ``None`` when units are zero."""
        if self.analytic_units <= 0:
            return None
        return self.measured_seconds / self.analytic_units

    def to_json(self) -> dict[str, Any]:
        return {
            "term": self.term,
            "spans": self.spans,
            "measured_seconds": self.measured_seconds,
            "analytic_units": self.analytic_units,
            "seconds_per_unit": self.seconds_per_unit,
        }


@dataclass(frozen=True)
class CalibrationReport:
    """Per-term calibration rows plus the unjoined remainder."""

    rows: tuple[CalibrationRow, ...]
    unjoined_spans: int

    @property
    def joined_terms(self) -> tuple[str, ...]:
        return tuple(row.term for row in self.rows)

    def to_json(self) -> dict[str, Any]:
        return {
            "mode": "calibration",
            "rows": [row.to_json() for row in self.rows],
            "joined_terms": list(self.joined_terms),
            "unjoined_spans": self.unjoined_spans,
        }

    def render(self) -> str:
        lines = [
            f"{'term':<30} {'spans':>6} {'measured s':>12} "
            f"{'analytic units':>15} {'s/unit':>12}"
        ]
        for row in self.rows:
            ratio = row.seconds_per_unit
            lines.append(
                f"{row.term:<30} {row.spans:>6} {row.measured_seconds:>12.6f} "
                f"{row.analytic_units:>15} "
                f"{'n/a' if ratio is None else format(ratio, '>12.3e')}"
            )
        lines.append(f"unjoined spans: {self.unjoined_spans}")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)


def calibrate(records: Iterable[dict[str, Any]]) -> CalibrationReport:
    """Build the per-term calibration report from span records.

    ``records`` is anything :func:`repro.obs.export.as_records` accepts
    after normalization — typically ``tracer.records()``.
    """
    records = list(records)
    by_id = {r["span_id"]: r for r in records}
    totals: dict[str, list] = {}
    unjoined = 0
    for record in records:
        if record.get("status") != "ok":
            continue
        join = SPAN_JOINS.get(record["name"])
        if join is None:
            unjoined += 1
            continue
        parent = by_id.get(record.get("parent_id"))
        if parent is not None and parent["name"] == record["name"]:
            continue  # self-nesting: the outer span already covers this work
        term, reader = join
        units = reader(record.get("tags") or {})
        duration = record.get("duration")
        if units is None or duration is None:
            unjoined += 1
            continue
        bucket = totals.setdefault(term, [0, 0.0, 0])
        bucket[0] += 1
        bucket[1] += duration
        bucket[2] += units
    rows = tuple(
        CalibrationRow(term, spans, seconds, units)
        for term, (spans, seconds, units) in sorted(totals.items())
    )
    return CalibrationReport(rows=rows, unjoined_spans=unjoined)
