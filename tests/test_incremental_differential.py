"""Differential campaign for the incremental serving layer.

Every hypothesis example drives one random delta stream (interleaved
column adds and removes, linear and circular) through
:class:`repro.incremental.IncrementalSolver` and checks, after EVERY
delta, that the session state agrees with a from-scratch solve of the
current column set:

* status parity — the incremental session is realized exactly when
  :func:`repro.core.path_realization` / ``cycle_realization`` realizes
  the accepted columns from scratch (the session keeps only columns it
  accepted, so the from-scratch solve must succeed whenever the session
  is live);
* layout validity — the session frontier is a genuine consecutive
  (resp. circular) arrangement of the accepted columns, via the
  independent checker;
* replay determinism — a fresh solver replaying the accepted history
  reproduces the session layout byte for byte (what the serve layer's
  crash recovery relies on);
* witness parity — a refused add's Tucker witness is byte-identical to
  a from-scratch :func:`repro.certify.witness.extract_tucker_witness`
  over the refused column set, and passes the independent checker.

The CI job ``incremental-differential`` runs this file under
``HYPOTHESIS_PROFILE=incremental-ci`` (500 fixed-seed examples).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.certify.checker import check_ensemble
from repro.certify.witness import extract_tucker_witness
from repro.core import cycle_realization, path_realization
from repro.ensemble import Ensemble
from repro.errors import IncrementalError
from repro.incremental import DeltaOutcome, IncrementalSolver
from repro.pqtree import PQTree
# Differential-coverage binding: the incremental layer's fast paths are
# the PQ-tree reduction and the session solver wrapped around it.
import repro.incremental.solver  # noqa: F401
import repro.pqtree.pqtree  # noqa: F401


@st.composite
def delta_streams(draw):
    """(num_atoms, circular, deltas): interleaved adds and removes."""
    n = draw(st.integers(min_value=2, max_value=10))
    circular = draw(st.booleans())
    length = draw(st.integers(min_value=1, max_value=12))
    deltas = []
    added: list[tuple[int, ...]] = []
    for _ in range(length):
        if added and draw(st.integers(min_value=0, max_value=3)) == 0:
            deltas.append(("remove", draw(st.sampled_from(added))))
        else:
            column = tuple(
                sorted(
                    draw(
                        st.frozensets(
                            st.integers(min_value=0, max_value=n - 1),
                            min_size=1,
                        )
                    )
                )
            )
            deltas.append(("add", column))
            added.append(column)
    return n, circular, deltas


def _layout_ok(ensemble: Ensemble, layout, circular: bool) -> bool:
    """Check a layout through the independent order-certificate checker."""
    from repro.certify.certificates import OrderCertificate

    kind = "circular" if circular else "consecutive"
    return check_ensemble(ensemble, OrderCertificate(kind, tuple(layout)))


@given(delta_streams())
def test_delta_stream_matches_from_scratch(case):
    n, circular, deltas = case
    atoms = tuple(range(n))
    solver = IncrementalSolver(atoms, circular=circular)
    accepted: list[frozenset] = []
    solve = cycle_realization if circular else path_realization
    for op, column in deltas:
        if op == "add":
            outcome = solver.apply(op, column, certify=True)
            assert isinstance(outcome, DeltaOutcome)
            if outcome.accepted:
                accepted.append(frozenset(column))
            else:
                # Witness parity: byte-identical to a from-scratch
                # extraction over the refused column set, and checkable.
                refused = Ensemble(
                    atoms, tuple(accepted) + (frozenset(column),)
                )
                assert outcome.certificate is not None
                fresh = extract_tucker_witness(
                    refused, circular=circular, assume_rejected=True
                )
                assert outcome.certificate.to_json() == fresh.to_json()
                assert check_ensemble(refused, outcome.certificate)
        else:
            try:
                outcome = solver.remove_column(column)
            except IncrementalError:
                # Refused remove: nothing matches (the add that produced
                # this column was itself refused).  State is untouched.
                assert frozenset(column) not in accepted
                continue
            accepted.remove(frozenset(column))
        current = Ensemble(atoms, tuple(accepted))
        # Status parity: the session only ever holds accepted columns,
        # so the from-scratch solve must realize them.
        scratch = solve(current)
        assert scratch is not None
        layout = solver.layout()
        assert len(layout) == n and set(layout) == set(atoms)
        assert _layout_ok(current, layout, circular)
        assert solver.num_columns == len(accepted)
        # Replay determinism: a fresh solver fed the accepted history
        # lands on the byte-identical frontier — the invariant the serve
        # layer's crash replay depends on.
        replayed = IncrementalSolver(atoms, circular=circular)
        for col in accepted:
            replay_outcome = replayed.add_column(col)
            assert replay_outcome.accepted
        assert replayed.layout() == layout


@given(delta_streams())
def test_rejected_adds_leave_state_untouched(case):
    n, circular, deltas = case
    atoms = tuple(range(n))
    solver = IncrementalSolver(atoms, circular=circular)
    for op, column in deltas:
        if op != "add":
            continue
        before = solver.layout()
        columns_before = solver.columns
        outcome = solver.add_column(column)
        if not outcome.accepted:
            assert solver.layout() == before
            assert solver.columns == columns_before


@given(delta_streams())
def test_remove_lands_on_a_fresh_replay_of_the_survivors(case):
    """A remove rolls the session's tree back to just before the victim and
    replays the later columns; its frontier must be that of a fresh
    ``PQTree`` reducing the surviving columns in arrival order (each
    complemented around the pivot atom in circular mode)."""
    n, circular, deltas = case
    atoms = tuple(range(n))
    solver = IncrementalSolver(atoms, circular=circular)
    live: list[frozenset] = []
    for op, column in deltas:
        column = frozenset(column)
        if op == "add":
            if solver.add_column(column).accepted:
                live.append(column)
            continue
        if column not in live:
            continue
        solver.remove_column(column)
        live.remove(column)
        fresh = PQTree(atoms)
        for col in live:
            if circular and atoms[0] in col:
                col = frozenset(atoms) - col
            assert fresh.reduce(col)
        assert solver.layout() == tuple(fresh.frontier())


def test_pool_delta_stream_matches_direct_solver():
    """``solve_stream(incremental=True)`` is the solver, worker-side."""
    import random

    from repro.serve import ServePool

    with ServePool(2) as pool:
        for seed in (3, 14, 159):
            rng = random.Random(seed)
            n = rng.randint(3, 9)
            circular = bool(seed % 2)
            deltas = [("open", n)]
            added = []
            for _ in range(rng.randint(2, 10)):
                if added and rng.random() < 0.25:
                    deltas.append(("remove", rng.choice(added)))
                else:
                    column = tuple(
                        sorted(rng.sample(range(n), rng.randint(1, n - 1)))
                    )
                    deltas.append(("add", column))
                    added.append(column)
            results = list(
                pool.solve_stream(
                    deltas,
                    incremental=True,
                    circular=circular,
                    certify=True,
                    chunksize=rng.choice([1, 3]),
                )
            )
            assert len(results) == len(deltas)
            solver = IncrementalSolver(range(n), circular=circular)
            for (op, value), result in zip(deltas, results):
                assert result.split == "delta"
                if op == "open":
                    assert result.status == "realized"
                    assert result.order == list(solver.layout())
                    continue
                if op == "remove":
                    try:
                        outcome = solver.remove_column(value)
                    except IncrementalError:
                        assert result.status == "rejected"
                        assert result.order is None
                        continue
                else:
                    outcome = solver.add_column(value, certify=True)
                assert result.status == outcome.status
                if outcome.accepted:
                    assert result.order == list(outcome.order)
                    assert result.certificate is not None
                else:
                    assert result.order is None
                    assert (
                        result.certificate.to_json()
                        == outcome.certificate.to_json()
                    )
                assert result.num_columns == solver.num_columns


def test_delta_stream_rejects_malformed_streams():
    from repro.serve import ServePool

    with ServePool(1) as pool:
        with pytest.raises(IncrementalError):
            list(
                pool.solve_stream(
                    [("add", (0, 1))], incremental=True
                )
            )
        with pytest.raises(IncrementalError):
            list(
                pool.solve_stream(
                    [("open", 3), ("open", 3)], incremental=True
                )
            )
        with pytest.raises(IncrementalError):
            list(
                pool.solve_stream(
                    [("open", 3), ("add", (0, 7))], incremental=True
                )
            )
        with pytest.raises(IncrementalError):
            list(
                pool.solve_stream(
                    [("grow", 3)], incremental=True
                )
            )


@pytest.mark.parametrize(
    "deltas",
    [
        [("open", True)],
        [("open", 3.0)],
        [("open", 3), ("add", (0, True))],
        [("open", 3), ("add", (0, 1.0))],
    ],
)
def test_delta_stream_requires_exact_int_atoms(deltas):
    """``True`` is an ``int`` and ``1.0 == 1``; neither names an atom."""
    from repro.serve import ServePool

    with ServePool(1) as pool:
        with pytest.raises(IncrementalError, match="int|outside"):
            list(pool.solve_stream(deltas, incremental=True))


def test_delta_answers_hold_their_layout_once():
    """A served delta answer keeps one list of shared int labels and no
    certificate copy: the answers of a certified 300-atom session through a
    real pool retain under 3.5 KB each (the layout list alone is 2.4 KB)."""
    import gc
    import random
    import tracemalloc

    from repro.serve import ServePool

    n = 300
    rng = random.Random(23)
    hidden = list(range(n))
    rng.shuffle(hidden)
    deltas, live = [("open", n)], []
    for _ in range(240):
        if len(live) > 30 or (live and rng.random() < 0.4):
            deltas.append(("remove", live.pop(rng.randrange(len(live)))))
        else:
            start = rng.randrange(n - 2)
            column = tuple(sorted(hidden[start : start + rng.randint(2, 40)]))
            deltas.append(("add", column))
            live.append(column)
    with ServePool(1) as pool:
        list(pool.solve_stream(deltas[:3], incremental=True, certify=True))
        gc.collect()
        tracemalloc.start()
        try:
            results = list(pool.solve_stream(deltas, incremental=True, certify=True))
            assert all(r.ok and r.certificate is not None for r in results)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del results
            gc.collect()
            per_answer = (held - tracemalloc.get_traced_memory()[0]) / len(deltas)
        finally:
            tracemalloc.stop()
    assert per_answer < 3500, f"{per_answer:.0f} B retained per answer"
