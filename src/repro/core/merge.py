"""The combine step: GAP / GAC alignment and merging (Sections 3.1 and 4.2).

Given realizations of the two sub-ensembles produced by the divide step, this
module computes 2-isomorphic copies satisfying the global alignment
conditions and splices them together:

* the **GAP** conditions (Definition 1) govern the path merge of Case 1 /
  Case 2a: type-b crossing columns must be anchored at the ends of ``P1``,
  all crossing columns must be anchored at / span a single split vertex ``w``
  of ``P2``, and the two anchorings must pair up consistently;
* the **GAC** conditions (Definition 2) govern the circular merge used by
  ``cycle_realization``: crossing columns must be anchored at the ends of
  both paths, which are then glued end-to-end into a cycle.

Soundness is structural: every candidate produced by the alignment machinery
is concretely verified against the conditions (and the spliced order against
every crossing column) before it is accepted, so the merge never returns an
invalid order.  Completeness follows the paper's Theorems 3–8: candidates are
generated exactly the way the case analysis of Section 4.2 prescribes (plus
the untouched original realizations, which are free to try).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from ..ensemble import is_consecutive, is_circular_consecutive
from ..errors import GraphError
from ..tutte.compose import compose
from ..tutte.decomposition import TutteDecomposition
from ..whitney.alignment import AlignmentPlanner
from .bitset import all_circular_consecutive, all_consecutive, mask_from_indices, mask_to_indices
from .gp import RealizationGraph, is_prefix_or_suffix
from .instrument import SolverStats
from ..obs.trace import current_tracer

Atom = Hashable

__all__ = [
    "merge_path",
    "merge_cycle",
    "merge_cycle_masks",
    "cheap_path_splice",
    "anchored_candidates",
]

#: cap on the number of (f, g) combinations tried per alignment, for
#: predictable worst-case cost; the paper needs only one well-chosen pair.
_MAX_TARGET_COMBOS = 6


# ---------------------------------------------------------------------- #
# candidate generation via the Section 4.1 alignment algorithms
# ---------------------------------------------------------------------- #
def _build_decomposition(
    order: Sequence[Atom],
    constraint_sets: Sequence[frozenset],
    target_sets: Sequence[frozenset],
    stats: SolverStats | None,
    engine: str | None = None,
) -> tuple[RealizationGraph, TutteDecomposition, list[int]] | None:
    """The realization graph, its Tutte decomposition and the target chords.

    ``engine`` selects the decomposition engine (see
    :meth:`~repro.tutte.decomposition.TutteDecomposition.build`); ``None``
    uses the default ("spqr").
    """
    chords = list(constraint_sets) + list(target_sets)
    real = RealizationGraph(order, chords)
    try:
        deco = TutteDecomposition.build(real.graph, engine=engine)
    except GraphError:
        return None
    if stats is not None:
        stats.tutte_builds += 1
        stats.tutte_splits += deco.split_count
        stats.tutte_members += len(deco.members)
    target_eids: list[int] = []
    seen: set[int] = set()
    for tset in target_sets:
        if not tset:
            continue
        eid = real.chord_for(tset)
        if eid == real.e_eid or eid in seen:
            continue
        seen.add(eid)
        target_eids.append(eid)
    return real, deco, target_eids


def anchored_candidates(
    order: Sequence[Atom],
    constraint_sets: Sequence[frozenset],
    target_sets: Sequence[frozenset],
    *,
    stats: SolverStats | None = None,
    engine: str | None = None,
) -> list[list[Atom]]:
    """Realization orders in which the target sets are anchored at the ends.

    This is the Section 4.2.1 procedure (GAP condition (1), also used for
    both sides of the circular merge): the minimal decomposition with respect
    to ``e`` and the target chords is computed; with one leaf member Case A
    aligns a target from it to an end of ``e``, with two leaf members Case B
    aligns one target from each leaf to the two distinct ends.  The original
    order is always included as a candidate; callers filter candidates by the
    concrete conditions they need.
    """
    order = list(order)
    candidates: list[list[Atom]] = [order]
    live_targets = [t for t in target_sets if t and len(t) < len(order)]
    if not live_targets or len(order) <= 2:
        return candidates
    built = _build_decomposition(order, constraint_sets, live_targets, stats, engine)
    if built is None:
        return candidates
    real, deco, target_eids = built
    if not target_eids:
        return candidates

    root_mid = deco.edge_to_member[real.e_eid]
    minimal = deco.minimal_members([real.e_eid] + target_eids)
    leaves = deco.subtree_leaves(minimal, root_mid)

    planner = AlignmentPlanner(deco)

    def emit(choices) -> None:
        if choices is None:
            return
        composed = compose(deco, choices)
        try:
            new_order = real.order_from(composed)
        except GraphError:  # pragma: no cover - defensive
            return
        if new_order not in candidates:
            candidates.append(new_order)

    targets_in = {
        mid: [eid for eid in target_eids if deco.edge_to_member[eid] == mid]
        for mid in deco.members
    }

    if len(leaves) == 0:
        # every target chord lives in the root member: its incidences with e
        # are rigid; only the original order (and its reflection) can work.
        return candidates
    if len(leaves) == 1:
        pool = targets_in[leaves[0]] or target_eids
        if stats is not None:
            stats.alignments += min(len(pool), _MAX_TARGET_COMBOS)
        for f_eid in pool[:_MAX_TARGET_COMBOS]:
            emit(planner.adjacency(real.e_eid, f_eid))
        return candidates
    if len(leaves) == 2:
        pool_f = targets_in[leaves[0]] or target_eids
        pool_g = targets_in[leaves[1]] or target_eids
        combos = 0
        for f_eid in pool_f:
            for g_eid in pool_g:
                if f_eid == g_eid:
                    continue
                combos += 1
                if combos > _MAX_TARGET_COMBOS:
                    break
                if stats is not None:
                    stats.alignments += 1
                emit(planner.fork(real.e_eid, f_eid, g_eid))
            if combos > _MAX_TARGET_COMBOS:
                break
        return candidates
    # More than two leaf members: by Theorem 7 the instance is not path
    # graphic; returning only the original order lets the caller fail.
    return candidates


# ---------------------------------------------------------------------- #
# the path merge (Case 1 / Case 2a)
# ---------------------------------------------------------------------- #
def merge_path(
    order1: Sequence[Atom],
    order2_augmented: Sequence[Atom],
    split_atom: Atom,
    columns: Sequence[frozenset],
    *,
    stats: SolverStats | None = None,
    engine: str | None = None,
) -> list[Atom] | None:
    """Merge realizations of ``(A1, C1)`` and ``(A2, C2)`` into one of ``(A, C)``.

    ``order1`` is a realization of the segment sub-ensemble ``(A1, C1)``.
    ``order2_augmented`` is a realization of ``(A2 ∪ {x}, C2 ∪ Cx)`` where the
    fresh *split-marker atom* ``x = split_atom`` stands for the split vertex
    ``w`` of GAP condition (2) and ``Cx`` contains, for every crossing column,
    its ``A2``-part together with ``x`` (see :mod:`repro.core.solver`); the
    position of ``x`` therefore *is* a feasible split vertex.  Side 1 is
    realigned with the Section 4.2.1 Whitney-switch machinery so that every
    type-b column is anchored at an end of ``P1`` (GAP condition (1)), both
    orientations of the segment are tried (GAP condition (3) is invariant
    under switches, so one valid pair suffices), and every candidate splice is
    verified against the crossing columns before being returned.
    """
    tracer = current_tracer()
    if tracer.enabled:
        with tracer.span("merge.verify", p=sum(len(c) for c in columns)):
            return _merge_path_impl(
                order1, order2_augmented, split_atom, columns,
                stats=stats, engine=engine,
            )
    return _merge_path_impl(
        order1, order2_augmented, split_atom, columns, stats=stats, engine=engine
    )


def _merge_path_impl(
    order1: Sequence[Atom],
    order2_augmented: Sequence[Atom],
    split_atom: Atom,
    columns: Sequence[frozenset],
    *,
    stats: SolverStats | None = None,
    engine: str | None = None,
) -> list[Atom] | None:
    order2_augmented = list(order2_augmented)
    w = order2_augmented.index(split_atom)
    order2 = [a for a in order2_augmented if a != split_atom]
    a1 = set(order1)
    a2 = set(order2)
    crossing = [c for c in columns if (c & a1) and (c & a2)]
    type_b = [c for c in crossing if not a1 <= c]

    # --- side 1: GAP condition (1) -------------------------------------- #
    constraints1 = [frozenset(c & a1) for c in columns if len(c & a1) >= 2 and not a1 <= c]
    targets1 = [frozenset(c & a1) for c in type_b]
    cands1 = anchored_candidates(
        order1, constraints1, targets1, stats=stats, engine=engine
    )
    cands1 = [
        o for o in cands1 if all(is_prefix_or_suffix(o, t) for t in targets1)
    ]
    if not cands1:
        return None

    # --- side 2: GAP condition (2) -------------------------------------- #
    # Crossing columns whose A2-part is all of A2 put no constraint on the
    # augmented realization (their augmented column is the full set), yet they
    # force the split vertex to an end of P2.  When such columns exist the
    # merge degenerates to a concatenation, with side 2 realigned so that the
    # remaining crossing parts are anchored at the path ends.
    spanning = [c for c in crossing if (c & a2) == a2]
    pairs: list[tuple[list[Atom], int]] = [(order2, w)]
    if spanning:
        constraints2 = [
            frozenset(c & a2) for c in columns if len(c & a2) >= 2 and not a2 <= c
        ]
        targets2 = [frozenset(c & a2) for c in crossing if (c & a2) != a2]
        for cand in anchored_candidates(
            order2, constraints2, targets2, stats=stats, engine=engine
        ):
            if not all(is_prefix_or_suffix(cand, t) for t in targets2):
                continue
            pairs.append((list(cand), 0))
            pairs.append((list(cand), len(cand)))

    for ord2, wpos in pairs:
        for ord1 in cands1:
            for oriented1 in (list(ord1), list(reversed(ord1))):
                merged = list(ord2[:wpos]) + oriented1 + list(ord2[wpos:])
                if stats is not None:
                    stats.merge_candidates += 1
                if all(is_consecutive(merged, c) for c in crossing):
                    if stats is not None:
                        stats.merges += 1
                    return merged
    return None


# ---------------------------------------------------------------------- #
# the circular merge (used by cycle_realization)
# ---------------------------------------------------------------------- #
def merge_cycle(
    order1: Sequence[Atom],
    order2: Sequence[Atom],
    columns: Sequence[frozenset],
    *,
    stats: SolverStats | None = None,
    engine: str | None = None,
) -> list[Atom] | None:
    """Glue two path realizations into a circular realization (GAC conditions).

    ``order1`` realizes the segment ``A1`` and ``order2`` realizes
    ``A2 = A - A1``; the circular layout is ``order1`` followed by ``order2``,
    read around a cycle.  Crossing columns must be anchored at the ends of
    both paths, which the Section 4.2.1 machinery provides.
    """
    tracer = current_tracer()
    if tracer.enabled:
        with tracer.span("merge.verify", p=sum(len(c) for c in columns)):
            return _merge_cycle_impl(
                order1, order2, columns, stats=stats, engine=engine
            )
    return _merge_cycle_impl(order1, order2, columns, stats=stats, engine=engine)


def _merge_cycle_impl(
    order1: Sequence[Atom],
    order2: Sequence[Atom],
    columns: Sequence[frozenset],
    *,
    stats: SolverStats | None = None,
    engine: str | None = None,
) -> list[Atom] | None:
    a1 = set(order1)
    a2 = set(order2)
    crossing = [c for c in columns if (c & a1) and (c & a2)]

    constraints1 = [frozenset(c & a1) for c in columns if len(c & a1) >= 2 and not a1 <= c]
    targets1 = [frozenset(c & a1) for c in crossing if not a1 <= c]
    constraints2 = [frozenset(c & a2) for c in columns if len(c & a2) >= 2 and not a2 <= c]
    targets2 = [frozenset(c & a2) for c in crossing if not a2 <= c]

    cands1 = anchored_candidates(
        order1, constraints1, targets1, stats=stats, engine=engine
    )
    cands1 = [o for o in cands1 if all(is_prefix_or_suffix(o, t) for t in targets1)]
    cands2 = anchored_candidates(
        order2, constraints2, targets2, stats=stats, engine=engine
    )
    cands2 = [o for o in cands2 if all(is_prefix_or_suffix(o, t) for t in targets2)]
    if not cands1 or not cands2:
        return None

    for o1 in cands1:
        for o2 in cands2:
            for r1 in (list(o1), list(reversed(o1))):
                for r2 in (list(o2), list(reversed(o2))):
                    circ = r1 + r2
                    if stats is not None:
                        stats.merge_candidates += 1
                    if all(is_circular_consecutive(circ, c) for c in crossing):
                        if stats is not None:
                            stats.merges += 1
                        return circ
    return None


# ---------------------------------------------------------------------- #
# mask entry points used by the integer-indexed kernel
# ---------------------------------------------------------------------- #
# Splicing ``order1`` into ``order2`` at the split-marker position keeps every
# non-crossing column contiguous (columns inside A1 survive reversal, columns
# inside A2 cannot span the marker), so verifying the crossing columns is the
# whole acceptance test.  The candidates coming out of the sub-solves satisfy
# the GAP/GAC conditions directly in the overwhelmingly common case, which
# makes the cheap splice below worth trying before any Tutte decomposition is
# built; completeness is preserved because a cheap miss falls back to the full
# Section 4 alignment machinery on the same inputs.


def cheap_path_splice(
    order1: Sequence[int],
    order2: Sequence[int],
    w: int,
    crossing: Sequence[int],
    stats: SolverStats | None = None,
) -> list[int] | None:
    """Splice ``order1`` (both orientations) into ``order2`` at gap ``w``.

    Returns the first splice in which every crossing column mask is
    contiguous, or ``None``: the first step of the indexed kernel's merge
    ladder.
    """
    order2 = list(order2)
    for oriented1 in (list(order1), list(reversed(order1))):
        merged = order2[:w] + oriented1 + order2[w:]
        if stats is not None:
            stats.merge_candidates += 1
        if all_consecutive(merged, crossing):
            if stats is not None:
                stats.merges += 1
            return merged
    return None


def merge_cycle_masks(
    order1: Sequence[int],
    order2: Sequence[int],
    columns: Sequence[int],
    *,
    stats: SolverStats | None = None,
    engine: str | None = None,
) -> list[int] | None:
    """Mask version of :func:`merge_cycle`: integer atoms, bitmask columns."""
    tracer = current_tracer()
    if tracer.enabled:
        with tracer.span(
            "merge.verify", p=sum(c.bit_count() for c in columns)
        ):
            return _merge_cycle_masks_impl(
                order1, order2, columns, stats=stats, engine=engine
            )
    return _merge_cycle_masks_impl(
        order1, order2, columns, stats=stats, engine=engine
    )


def _merge_cycle_masks_impl(
    order1: Sequence[int],
    order2: Sequence[int],
    columns: Sequence[int],
    *,
    stats: SolverStats | None = None,
    engine: str | None = None,
) -> list[int] | None:
    a1 = mask_from_indices(order1)
    a2 = mask_from_indices(order2)
    crossing = [c for c in columns if (c & a1) and (c & a2)]

    for r1 in (list(order1), list(reversed(order1))):
        for r2 in (list(order2), list(reversed(order2))):
            circ = r1 + r2
            if stats is not None:
                stats.merge_candidates += 1
            if all_circular_consecutive(circ, crossing):
                if stats is not None:
                    stats.merges += 1
                return circ

    return merge_cycle(
        list(order1),
        list(order2),
        [frozenset(mask_to_indices(c)) for c in columns],
        stats=stats,
        engine=engine,
    )
