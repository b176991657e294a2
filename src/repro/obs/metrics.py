"""Stdlib-only metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per instrumented object (a ``ServePool``,
including the one behind a ``ParallelSolver``, or a ``ResultCache``);
instruments are get-or-create by name so call sites never need
registration boilerplate.  Histograms use a fixed
geometric bucket ladder sized for solver latencies (10 µs … ~3 min)
and report interpolated p50/p95/p99 — an estimate bounded by bucket
width, which is the documented, deterministic trade for never storing
raw samples.

Everything here measures *wall-clock reality*; analytic PRAM charges
from :mod:`repro.pram.costmodel` never enter a registry (DESIGN.md,
Substitution 8).
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: geometric bucket upper bounds in seconds: 1e-5 · 2^i, i = 0..23
#: (10 µs up to ~84 s), plus an implicit +inf overflow bucket.
_BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-5 * (2.0**i) for i in range(24))


class Counter:
    """A monotonically increasing sum (counts, bytes, respawns)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A point-in-time level (queue depth, utilization)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket latency histogram with interpolated percentiles."""

    __slots__ = ("name", "_counts", "_overflow", "_sum", "_count", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._counts = [0] * len(_BUCKET_BOUNDS)
        self._overflow = 0
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(_BUCKET_BOUNDS):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._overflow += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Interpolated ``q``-quantile (``0 < q <= 1``); 0.0 when empty.

        The estimate interpolates linearly inside the containing bucket,
        so its error is bounded by that bucket's width; overflow samples
        report the top bound (a deliberate floor, not an extrapolation).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = q * total
            cumulative = 0
            lower = 0.0
            for i, bound in enumerate(_BUCKET_BOUNDS):
                in_bucket = self._counts[i]
                if cumulative + in_bucket >= rank:
                    fraction = (rank - cumulative) / in_bucket
                    return lower + (bound - lower) * fraction
                cumulative += in_bucket
                lower = bound
            return _BUCKET_BOUNDS[-1]

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            overflow = self._overflow
            total = self._count
            observed = self._sum
        snap: dict[str, Any] = {
            "type": "histogram",
            "count": total,
            "sum": observed,
            "buckets": [
                {"le": bound, "count": counts[i]}
                for i, bound in enumerate(_BUCKET_BOUNDS)
                if counts[i]
            ],
            "overflow": overflow,
        }
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            snap[label] = self.percentile(q) if total else 0.0
        return snap


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    All instruments share one lock — contention is negligible at solver
    task rates and it keeps :meth:`snapshot` a consistent cut.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, self._lock)
                self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-native snapshot of every instrument, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}
