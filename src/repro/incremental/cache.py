"""Canonical-form result cache fronting every batch and serving call.

Replayed serving traffic is full of *relabeled duplicates*: the same
instance arrives again with its atoms renamed and its columns shuffled.
:class:`ResultCache` stores every answer in **canonical space**
(:mod:`repro.incremental.canon`) and remaps it through each request's own
canonical permutation on the way out:

* **probe** canonicalizes the request, looks the key up, and compares
  canonical masks (exact canonicalization makes isomorphic instances
  literally identical — a hit is a tuple comparison, never a graph-iso
  search at probe time);
* **miss** hands back the *canonical* instance to solve — so hit and miss
  paths produce byte-identical answers for equal canonical forms: the miss
  solves the very instance whose stored answer a later hit remaps;
* **hit** remaps the stored canonical layout/witness: atom indices through
  the inverse atom permutation onto the request's labels, witness
  ``row_indices`` through the inverse column permutation onto the
  request's column positions.

:class:`CacheFront` runs one call's requests through the cache — probe,
then hit, lead or follow an equal form in flight, then store and remap —
for serial ``solve_many(cache=)``, pool streams and :func:`cached_solve`
alike.  Hit/miss/eviction counters export through a
:class:`repro.obs.MetricsRegistry` (pass the pool's registry to fold them
into ``ServePool.metrics_snapshot()``):

========================  =============================================
``cache.hits``            probes answered from the store
``cache.misses``          probes that fell through to a solve
``cache.coalesced``       misses that rode an equal form's solve
``cache.evictions``       entries retired by the LRU bound
``cache.inexact_forms``   probes whose canonicalization ran out of
                          budget (correct, but relabelings may miss)
``cache.probe_seconds``   canonicalization + lookup latency
========================  =============================================
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Iterable

from ..ensemble import Ensemble
from ..obs.metrics import MetricsRegistry
from .canon import CanonicalForm, canonical_ensemble, canonical_form

__all__ = ["CacheProbe", "ResultCache", "cached_solve"]


class CacheProbe:
    """One cache lookup: either a hit payload or a miss to be filled.

    On a miss, solve :attr:`canonical` (the canonical instance, *not* the
    request) and call :meth:`store` with the canonical-space answer; both
    the store and a hit return the answer remapped onto the request's own
    labels as ``(order, witness_json)``.
    """

    __slots__ = ("cache", "form", "variant", "instance_atoms", "hit", "_payload")

    def __init__(self, cache, form, variant, instance_atoms, hit, payload):
        self.cache = cache
        self.form = form
        self.variant = variant
        self.instance_atoms = instance_atoms
        self.hit = hit
        self._payload = payload

    @property
    def canonical(self) -> Ensemble:
        return canonical_ensemble(self.form)

    def result(self) -> tuple:
        """The hit's answer, remapped onto the request's labels."""
        if not self.hit:
            raise LookupError("cache probe missed; solve and store() instead")
        return self._remap(self._payload)

    def fulfill(self, payload: tuple) -> None:
        """Adopt the canonical-space answer of an equal form's solve (a
        coalesced miss's leader); :meth:`result` then remaps it as a hit's."""
        self.hit = True
        self._payload = payload

    def store(self, order, witness_json) -> tuple:
        """Record a canonical-space answer; returns it remapped."""
        payload = (
            None if order is None else tuple(order),
            witness_json,
        )
        self.cache._store(self.form, self.variant, payload)
        return self._remap(payload)

    def _remap(self, payload) -> tuple:
        order, witness_json = payload
        remapped_order = (
            None
            if order is None
            else _remap_order(self.form, self.instance_atoms, order)
        )
        remapped_witness = (
            None
            if witness_json is None
            else _remap_witness_json(self.form, self.instance_atoms, witness_json)
        )
        return remapped_order, remapped_witness


def _remap_order(form: CanonicalForm, atoms: tuple, order: Iterable) -> list:
    inverse = form.inverse_atom_perm()
    return [atoms[inverse[canonical]] for canonical in order]


def _remap_witness_json(form: CanonicalForm, atoms: tuple, payload: dict) -> dict:
    """Map a canonical-space Tucker witness onto the request's embedding.

    The canonical instance's atoms are its dense indices and its columns
    sit in canonical order, so ``atom_order`` entries are canonical atom
    indices and ``row_indices`` canonical column positions; both remap
    through the form's inverse permutations.  Column contents are
    preserved by the permutation, so validity transfers verbatim.
    """
    inverse_atoms = form.inverse_atom_perm()
    inverse_cols = form.inverse_col_perm()
    remapped = dict(payload)
    remapped["row_indices"] = [
        inverse_cols[row] for row in payload["row_indices"]
    ]
    remapped["atom_order"] = [
        atoms[inverse_atoms[index]] for index in payload["atom_order"]
    ]
    if payload.get("pivot") is not None:
        remapped["pivot"] = atoms[inverse_atoms[payload["pivot"]]]
    return remapped


class ResultCache:
    """LRU cache of solver answers keyed by canonical form.

    ``max_entries`` bounds the number of cached *instances* (each may hold
    several flag variants); ``metrics`` is any
    :class:`~repro.obs.MetricsRegistry` (the pool's, to surface counters in
    its snapshot); ``canon_budget`` meters the canonicalization search.
    Thread-safe: the serve feeder probes while the consumer stores.
    """

    def __init__(
        self,
        max_entries: int = 256,
        *,
        metrics: MetricsRegistry | None = None,
        canon_budget: int = 512,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.canon_budget = canon_budget
        self._lock = threading.Lock()
        # key -> list of buckets; a bucket is one canonical instance:
        # {"masks": ..., "n": ..., "variants": {variant: payload}}
        self._entries: OrderedDict[str, list[dict]] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def probe(
        self,
        instance: Ensemble,
        *,
        circular: bool = False,
        certify: bool = False,
        kernel: str = "indexed",
        engine: str | None = None,
    ) -> CacheProbe:
        """Canonicalize ``instance`` and look its answer variant up."""
        started = time.perf_counter()
        form = canonical_form(instance, budget=self.canon_budget)
        variant = (bool(circular), bool(certify), kernel, engine)
        payload = None
        with self._lock:
            if not form.exact:
                self.metrics.counter("cache.inexact_forms").inc()
            buckets = self._entries.get(form.key)
            if buckets is not None:
                self._entries.move_to_end(form.key)
                for bucket in buckets:
                    if (
                        bucket["n"] == form.num_atoms
                        and bucket["masks"] == form.masks
                    ):
                        payload = bucket["variants"].get(variant)
                        break
            self.metrics.counter(
                "cache.hits" if payload is not None else "cache.misses"
            ).inc()
        self.metrics.histogram("cache.probe_seconds").observe(
            time.perf_counter() - started
        )
        return CacheProbe(
            self, form, variant, tuple(instance.atoms), payload is not None, payload
        )

    def _store(self, form: CanonicalForm, variant: tuple, payload: tuple) -> None:
        with self._lock:
            buckets = self._entries.get(form.key)
            if buckets is None:
                buckets = []
                self._entries[form.key] = buckets
            self._entries.move_to_end(form.key)
            for bucket in buckets:
                if bucket["n"] == form.num_atoms and bucket["masks"] == form.masks:
                    bucket["variants"][variant] = payload
                    break
            else:
                buckets.append(
                    {
                        "n": form.num_atoms,
                        "masks": form.masks,
                        "variants": {variant: payload},
                    }
                )
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.metrics.counter("cache.evictions").inc()
            self.metrics.gauge("cache.entries").set(len(self._entries))


class CacheFront:
    """One call's cache path: serial ``solve_many``, ``solve_stream`` and
    :func:`cached_solve` all run their requests through it.

    :meth:`admit` probes a request: a hit is answered at once, a miss
    whose canonical form is already in flight *follows* that leader, and
    any other miss *leads* with the canonical instance to solve, whole.
    :meth:`settle` stores a leader's answer and returns it remapped for the
    leader and each follower.  Answers are raw ``(order, witness_json,
    parts)`` triples.  Without a cache every request leads with itself and
    its answer passes through.  The pool admits on its feeder thread and
    settles on its consumer; the lock orders leaders and followers.
    """

    def __init__(self, cache, **flags) -> None:
        self.cache = cache
        self._flags = flags  # circular, certify, kernel, engine
        self._lock = threading.Lock()
        # canonical identity -> index of the in-flight leader solving it
        self._leaders: dict[tuple, int] = {}
        # leader index -> (identity, its probe, its followers' (index, probe))
        self._led: dict[int, tuple] = {}

    def admit(self, index: int, instance: Ensemble) -> tuple:
        """``(instance to solve or None, [(index, answer)] ready now)``;
        a follower's answer comes out of its leader's :meth:`settle`."""
        if self.cache is None:
            return instance, []
        probe = self.cache.probe(instance, **self._flags)
        if probe.hit:
            return None, [(index, probe.result() + (1,))]
        form = probe.form
        identity = (form.key, form.num_atoms, form.masks, probe.variant)
        with self._lock:
            leader = self._leaders.get(identity)
            if leader is not None:
                self._led[leader][2].append((index, probe))
                self.cache.metrics.counter("cache.coalesced").inc()
                return None, []
            self._leaders[identity] = index
            self._led[index] = (identity, probe, [])
        return probe.canonical, []

    def settle(self, index: int, answer: tuple) -> list[tuple]:
        """``[(index, answer)]`` for the leader, then its followers.  The
        store precedes the retire, so no duplicate leads a second solve."""
        if self.cache is None:
            return [(index, answer)]
        order, witness_json, parts = answer
        identity, probe, _ = self._led[index]
        ready = [(index, probe.store(order, witness_json) + (parts,))]
        with self._lock:
            del self._leaders[identity]
            followers = self._led.pop(index)[2]
        payload = (None if order is None else tuple(order), witness_json)
        for follower, follower_probe in followers:
            follower_probe.fulfill(payload)
            ready.append((follower, follower_probe.result() + (parts,)))
        return ready


def cached_solve(
    cache: ResultCache,
    instance: Ensemble,
    *,
    circular: bool = False,
    certify: bool = False,
    kernel: str = "indexed",
    engine: str | None = None,
) -> tuple:
    """Serial cache-fronted solve of one instance: ``(order, certificate)``.

    ``solve_many([instance], cache=cache, ...)`` unpacked, so its answer is
    that of every other cache-fronted call.  ``order`` is in the request's
    labels (or ``None``); ``certificate`` is set only under ``certify``.
    """
    from ..batch import solve_many

    (result,) = solve_many(
        [instance], circular=circular, certify=certify, kernel=kernel,
        engine=engine, cache=cache,
    )
    return result.order, result.certificate
