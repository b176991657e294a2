"""Rule ``span-lifecycle``: begun spans reach ``end()``/``abort()`` on all paths.

The tracing substrate (:mod:`repro.obs.trace`) hands out :class:`Span`
objects two ways.  ``tracer.span(...)`` is a context manager and closes
itself; ``tracer.begin(...)`` hands the caller a *raw* span whose
``end()``/``abort()`` the caller now owes on every control-flow path.
A span that misses its close is worse than a leak: it survives in the
trace as ``status="open"``, the export layer dutifully serialises it,
and the calibration join silently loses the phase it was measuring —
the crash-stitching machinery of the executors exists precisely so that
even a SIGKILLed worker's spans close as ``"aborted"`` rather than
dangle.

The path analysis is the shared lifecycle engine
(:mod:`~repro.analysis.checkers.lifecycle`), run on every
``*.begin(...)`` call: the span must be closed under ``try``, or handed
off (returned, passed bare into a call, or stored on an attribute — the
executors' ``entry.span = ...`` idiom, which obliges the module to close
an attribute-held span somewhere, e.g. ``inflight.span.abort()``).
"""

from __future__ import annotations

import re

from .lifecycle import LifecycleChecker


class SpanLifecycleChecker(LifecycleChecker):
    rule = "span-lifecycle"
    description = (
        "raw spans from Tracer.begin() must reach end()/abort() on every "
        "control-flow path (open spans corrupt traces and calibration)"
    )
    resource = "span"
    acquirers = frozenset({"begin"})
    release_methods = ("end", "abort")
    #: word-anchored: ``append`` must not read as an ``end``.
    releaser_name = re.compile(r"(?:^|_)(?:end|abort|close)", re.IGNORECASE)
    holder_name = re.compile(r"span", re.IGNORECASE)
