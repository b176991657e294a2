"""The integer-indexed solver kernel.

:class:`~repro.ensemble.Ensemble` is the user-facing representation: atoms
are arbitrary hashable labels, columns are frozensets, and every constructor
revalidates the whole container.  That is the right contract at the API
boundary and exactly the wrong one inside the recursion of Fig. 3, where the
sequential driver used to rebuild a fully validated ensemble (re-hashing
every column, re-deriving atom indices) at every node of the recursion tree.

:class:`IndexedEnsemble` is the internal compilation target: atoms become the
dense integers ``0 .. n-1`` and columns become Python ``int`` bitmasks (see
:mod:`repro.core.bitset` for the representation and its sorted-array
fallback).  The ensemble is compiled **once** at the API boundary; from then
on restriction is ``column & subset``, component finding is union-find over
machine integers, the Tucker transform is ``universe ^ column``, and layout
verification is a position scan — no per-recursion revalidation, no hashing
of user labels, no frozenset churn.

The kernel mirrors the reference recursion of :mod:`repro.core.solver` case
for case (the :class:`~repro.core.instrument.SolverStats` shapes it records
are interchangeable with the reference solver's) and reuses the same
Section 4 alignment machinery through the mask entry points of
:mod:`repro.core.merge`, which try the cheap verified splice first and fall
back to the full Tutte/Whitney alignment when it misses.  Fresh atoms needed
mid-recursion (the Tucker atom ``r``, the split marker ``x``) are allocated
as indices ``>= n``, so they can never collide with real atoms.

Every accepted layout is verified against the node's columns before being
returned, exactly like the reference solver: a non-``None`` answer is
guaranteed correct, ``None`` means the (sub-)ensemble lacks the property.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..ensemble import Ensemble
from ..errors import InvalidEnsembleError
from .bitset import (
    all_circular_consecutive,
    all_consecutive,
    is_permutation_of,
    mask_from_indices,
    mask_to_indices,
)
from .instrument import SolverStats
from .merge import cheap_path_splice, merge_cycle_masks, merge_path
from .partition import choose_partition_masks
from ..obs.trace import current_tracer

Atom = Hashable

__all__ = ["IndexedEnsemble", "solve_path_indexed", "solve_cycle_indexed"]


class IndexedEnsemble:
    """A dense-integer compilation of an :class:`~repro.ensemble.Ensemble`.

    Parameters
    ----------
    atoms:
        The atom labels; index ``i`` in every mask refers to ``atoms[i]``.
    masks:
        One bitmask per column over the atom indices.
    column_names:
        Display names, one per column (defaulted like :class:`Ensemble`).

    Instances are cheap to construct (no per-column hashing or validation
    beyond a width check) and immutable by convention.
    """

    __slots__ = ("atoms", "masks", "column_names")

    def __init__(
        self,
        atoms: Sequence[Atom],
        masks: Sequence[int],
        column_names: Sequence[str] | None = None,
    ) -> None:
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        self.masks: tuple[int, ...] = tuple(masks)
        if column_names is None:
            self.column_names: tuple[str, ...] = tuple(
                f"c{i}" for i in range(len(self.masks))
            )
        else:
            self.column_names = tuple(column_names)
        if len(self.column_names) != len(self.masks):
            raise InvalidEnsembleError(
                "column_names length does not match number of columns"
            )
        universe = (1 << len(self.atoms)) - 1
        for name, mask in zip(self.column_names, self.masks):
            if mask < 0 or mask & ~universe:
                raise InvalidEnsembleError(
                    f"column {name!r} references atom indices outside 0..{len(self.atoms) - 1}"
                )

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ensemble(cls, ensemble: Ensemble) -> "IndexedEnsemble":
        """Compile a validated ensemble; ``O(p)`` and done once per solve."""
        index = ensemble.atom_index()
        masks = [mask_from_indices(index[a] for a in col) for col in ensemble.columns]
        return cls(ensemble.atoms, masks, ensemble.column_names)

    def to_ensemble(self) -> Ensemble:
        """The equivalent label-level ensemble (revalidated on construction)."""
        cols = tuple(
            frozenset(self.atoms[i] for i in mask_to_indices(mask))
            for mask in self.masks
        )
        return Ensemble(self.atoms, cols, self.column_names)

    def pack_masks(
        self, *, with_labels: bool = True, with_names: bool = False
    ) -> bytes:
        """The shared-memory wire payload of this ensemble.

        The payload (see :mod:`repro.serve.wire`) holds the atom count, the
        column bitmasks as contiguous little-endian bytes and — unless
        ``with_labels`` is false — the interned label table; column display
        names ride along only on request.  ``from_packed_masks`` inverts it.
        """
        from ..serve.wire import pack_ensemble

        return pack_ensemble(
            self.atoms,
            self.masks,
            self.column_names if with_names else None,
            with_labels=with_labels,
        )

    @classmethod
    def from_packed_masks(
        cls, buffer: bytes | bytearray | memoryview
    ) -> "IndexedEnsemble":
        """Reconstruct an ensemble from a wire payload (or a live segment buffer).

        This is how pool workers rebuild instances: straight from the
        shared-memory bytes, without a label-level :class:`Ensemble` (and
        its per-column hashing) anywhere on the path.  Malformed payloads
        raise :class:`~repro.errors.WireFormatError`.
        """
        from ..serve.wire import unpack_ensemble

        atoms, masks, names = unpack_ensemble(buffer)
        return cls(atoms, masks, names)

    # ------------------------------------------------------------------ #
    # basic properties (mirroring Ensemble)
    # ------------------------------------------------------------------ #
    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def num_columns(self) -> int:
        return len(self.masks)

    @property
    def total_size(self) -> int:
        """``p``: the total number of ones."""
        return sum(mask.bit_count() for mask in self.masks)

    @property
    def universe_mask(self) -> int:
        return (1 << len(self.atoms)) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexedEnsemble(n={self.num_atoms}, m={self.num_columns}, "
            f"p={self.total_size})"
        )

    def effective_masks(self) -> list[int]:
        """Columns that constrain a linear layout: size >= 2, not full, deduped."""
        return _effective_masks(self.universe_mask, self.masks)

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve_path(
        self, stats: SolverStats | None = None, *, engine: str | None = None
    ) -> list[Atom] | None:
        """A consecutive-ones layout in atom labels, or ``None``.

        ``engine`` selects the Tutte decomposition engine used by the merge
        ladder's full-alignment fallback (``None`` = the default, "spqr").
        """
        order = solve_path_indexed(self, stats, engine=engine)
        if order is None:
            return None
        return [self.atoms[i] for i in order]

    def solve_cycle(
        self, stats: SolverStats | None = None, *, engine: str | None = None
    ) -> list[Atom] | None:
        """A circular-ones layout in atom labels, or ``None``."""
        order = solve_cycle_indexed(self, stats, engine=engine)
        if order is None:
            return None
        return [self.atoms[i] for i in order]


# ---------------------------------------------------------------------- #
# kernel helpers
# ---------------------------------------------------------------------- #
def _tucker_masks(full: int, universe_size: int, columns: Sequence[int]) -> list[int]:
    """Complement every column bigger than ``2/3`` of the ``full`` universe."""
    threshold = 2 * universe_size / 3
    return [(full ^ c) if c.bit_count() > threshold else c for c in columns]


def _effective_masks(avail: int, columns: Sequence[int]) -> list[int]:
    """Columns that constrain a layout of ``avail``: size >= 2, proper, deduped."""
    seen: set[int] = set()
    out: list[int] = []
    for mask in columns:
        if mask.bit_count() <= 1 or mask == avail or mask in seen:
            continue
        seen.add(mask)
        out.append(mask)
    return out


def _normalised_masks(avail: int, columns: Sequence[int]) -> list[int]:
    """The cycle kernel's columns of ``avail``: each complemented to at most
    half the atoms (complementing keeps circular contiguity), trivial ones
    and duplicates dropped."""
    n = avail.bit_count()
    seen: set[int] = set()
    out: list[int] = []
    for c in columns:
        if 2 * c.bit_count() > n:
            c = avail ^ c
        if c.bit_count() <= 1 or c in seen:
            continue
        seen.add(c)
        out.append(c)
    return out


def _split(avail: int, columns: Sequence[int]) -> list[tuple[list[int], list[int]]]:
    """Step 1 of Fig. 3: the connected components of the atoms of ``avail``
    under a column list (the effective or the normalised masks).

    One ``(members, rows)`` pair per component, minimum atom first:
    ``members`` are its atoms ascending, ``rows`` the indices of its
    columns in ``columns``, in list order.  An atom no column covers is a
    singleton component without rows.  Components stay member lists, never
    atom masks, and no step scans components × columns: a sparse instance
    has a singleton component per uncovered atom (~29k at 10^5 atoms), and
    that many full-width masks cost more than the whole solve.  Most calls
    find one component, which gets every nonzero column without a lookup.
    """
    atoms = mask_to_indices(avail)
    slot = {atom: k for k, atom in enumerate(atoms)}
    parent = list(range(len(atoms)))
    count = len(atoms)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mask in columns:
        ids = [slot[i] for i in mask_to_indices(mask)]
        if not ids:
            continue
        r0 = find(ids[0])
        for other in ids[1:]:
            ro = find(other)
            if ro != r0:
                parent[ro] = r0
                count -= 1
    if count == 1:
        return [(atoms, [j for j, mask in enumerate(columns) if mask])]
    group: dict[int, int] = {}
    parts: list[tuple[list[int], list[int]]] = []
    for k, atom in enumerate(atoms):
        root = find(k)
        if root not in group:
            group[root] = len(parts)
            parts.append(([], []))
        parts[group[root]][0].append(atom)
    for j, mask in enumerate(columns):
        if mask:
            low = slot[(mask & -mask).bit_length() - 1]
            parts[group[find(low)]][1].append(j)
    return parts


def _needs_solve(members: Sequence[int], rows: Sequence[int]) -> bool:
    """Whether a component of :func:`_split` needs a solve: one of at most
    two atoms, or without columns, is laid out as its atoms ascending."""
    return len(members) > 2 and bool(rows)


def _component_ensemble(
    members: Sequence[int],
    masks: Iterable[int],
    atoms: Sequence[Atom] | None = None,
    names: Sequence[str] | None = None,
) -> "IndexedEnsemble":
    """One component of :func:`_split`, re-densified into its own ensemble.

    Atom ``members[k]`` (ascending) becomes index ``k``: a strictly
    increasing remap, under which every mask comparison the kernel makes is
    invariant, so the component's layout is the one the kernel builds in
    place.  ``masks`` are the component's columns, ``atoms`` label the new
    atoms (by default the old indices, so a solve answers in them) and
    ``names`` the columns.
    """
    if members and members[-1] == len(members) - 1:
        dense = list(masks)  # members are 0 .. k-1: nothing to remap
    else:
        remap = {old: new for new, old in enumerate(members)}
        dense = [
            mask_from_indices(remap[i] for i in mask_to_indices(mask))
            for mask in masks
        ]
    return IndexedEnsemble(members if atoms is None else atoms, dense, names)


class _KernelContext:
    """Mutable per-solve state: stats, the decomposition engine selection and
    a fresh-atom index allocator."""

    __slots__ = ("stats", "next_index", "engine")

    def __init__(
        self,
        stats: SolverStats | None,
        num_atoms: int,
        engine: str | None = None,
    ) -> None:
        self.stats = stats
        self.next_index = num_atoms
        self.engine = engine

    def alloc(self) -> int:
        index = self.next_index
        self.next_index += 1
        return index


# ---------------------------------------------------------------------- #
# the kernel recursion (mirrors repro.core.solver case for case)
# ---------------------------------------------------------------------- #
def _path_rec(
    avail: int, columns: Sequence[int], ctx: _KernelContext, depth: int
) -> list[int] | None:
    n = avail.bit_count()
    if ctx.stats is not None:
        ctx.stats.enter(
            depth, n, len(columns), sum(c.bit_count() for c in columns)
        )

    if n <= 2:
        return mask_to_indices(avail)

    effective = _effective_masks(avail, columns)
    if not effective:
        return mask_to_indices(avail)

    parts = _split(avail, effective)
    if len(parts) > 1:
        if ctx.stats is not None:
            ctx.stats.record_case("components")
        return _solve_components(parts, effective, ctx, depth + 1)

    decision = choose_partition_masks(n, effective)
    if ctx.stats is not None:
        ctx.stats.record_case(decision.case or decision.kind)

    if decision.kind == "circular":
        # Case 2b: Tucker transform and circular solve (Section 3.2).
        r = ctx.alloc()
        r_bit = 1 << r
        full = avail | r_bit
        transformed = _tucker_masks(full, n + 1, effective)
        circ = _cycle_rec(full, transformed, ctx, depth + 1)
        if circ is None:
            return None
        idx = circ.index(r)
        linear = circ[idx + 1 :] + circ[:idx]
        if is_permutation_of(linear, avail) and all_consecutive(linear, effective):
            return linear
        return None

    a1 = decision.segment
    a2 = avail & ~a1
    if ctx.stats is not None:
        ctx.stats.record_split(n, a1.bit_count())

    cols1 = [c & a1 for c in effective if c & a1]
    order1 = _path_rec(a1, cols1, ctx, depth + 1)
    if order1 is None:
        return None

    # Side 2 plus the split-marker atom x (see repro.core.solver for the
    # type-a / type-b case analysis this encodes).
    x = ctx.alloc()
    x_bit = 1 << x
    augmented: list[int] = []
    for c in effective:
        part = c & a2
        if not part:
            continue
        if not (c & a1):
            augmented.append(part)
        elif (c & a1) == a1:
            if part != a2:
                augmented.append(part | x_bit)
        else:
            augmented.append(part)
            if part != a2:
                augmented.append(part | x_bit)
    order2_aug = _path_rec(a2 | x_bit, augmented, ctx, depth + 1)
    if order2_aug is None:
        return None

    merged = _merge_path_kernel(
        ctx, depth, order1, order2_aug, x, effective, a1, a2
    )
    if merged is None:
        return None
    if not (
        is_permutation_of(merged, avail) and all_consecutive(merged, effective)
    ):  # pragma: no cover - safety net
        return None
    return merged


def _cycle_rec(
    avail: int, columns: Sequence[int], ctx: _KernelContext, depth: int
) -> list[int] | None:
    n = avail.bit_count()
    if ctx.stats is not None:
        ctx.stats.enter(
            depth, n, len(columns), sum(c.bit_count() for c in columns)
        )

    if n <= 3:
        return mask_to_indices(avail)

    normalised = _normalised_masks(avail, columns)
    if not normalised:
        return mask_to_indices(avail)

    parts = _split(avail, normalised)
    if len(parts) > 1:
        if ctx.stats is not None:
            ctx.stats.record_case("cycle-components")
        return _solve_components(parts, normalised, ctx, depth + 1)

    decision = choose_partition_masks(n, normalised)
    if ctx.stats is not None:
        ctx.stats.record_case("cycle-" + (decision.case or decision.kind))
    if decision.kind == "circular":  # pragma: no cover - defensive
        return None

    a1 = decision.segment
    a2 = avail & ~a1
    if ctx.stats is not None:
        ctx.stats.record_split(n, a1.bit_count())

    cols1 = [c & a1 for c in normalised if c & a1]
    cols2 = [c & a2 for c in normalised if c & a2]
    order1 = _path_rec(a1, cols1, ctx, depth + 1)
    if order1 is None:
        return None
    order2 = _path_rec(a2, cols2, ctx, depth + 1)
    if order2 is None:
        return None

    merged = merge_cycle_masks(
        order1, order2, normalised, stats=ctx.stats, engine=ctx.engine
    )
    if merged is None:
        return None
    if not (
        is_permutation_of(merged, avail)
        and all_circular_consecutive(merged, normalised)
    ):  # pragma: no cover - safety net
        return None
    return merged


def _solve_components(
    parts: list[tuple[list[int], list[int]]],
    columns: Sequence[int],
    ctx: _KernelContext,
    depth: int,
) -> list[int] | None:
    """The components branch: each component of :func:`_split` solved as a
    path at ``depth``, the layouts concatenated in component order.

    A component that needs no solve (:func:`_needs_solve`) is entered in
    the stats as its recursive call would enter it and laid out as that
    call would lay it out, atoms ascending, without a mask or the call.
    """
    order: list[int] = []
    for members, rows in parts:
        sub_cols = [columns[j] for j in rows]
        if not _needs_solve(members, rows):
            if ctx.stats is not None:
                ones = sum(c.bit_count() for c in sub_cols)
                ctx.stats.enter(depth, len(members), len(rows), ones)
            order.extend(members)
            continue
        sub_avail = 0
        for c in sub_cols:  # every atom of a component of > 1 atom has a column
            sub_avail |= c
        sub_order = _path_rec(sub_avail, sub_cols, ctx, depth)
        if sub_order is None:
            return None
        order.extend(sub_order)
    return order


# ---------------------------------------------------------------------- #
# the kernel merge ladder
# ---------------------------------------------------------------------- #
def _merge_path_kernel(
    ctx: _KernelContext,
    depth: int,
    order1: list[int],
    order2_aug: list[int],
    x: int,
    columns: Sequence[int],
    a1: int,
    a2: int,
) -> list[int] | None:
    """Merge the two side realizations, cheapest strategy first.

    1. Splice ``order1`` (both orientations) at the split marker and verify
       the crossing columns (:func:`~repro.core.merge.cheap_path_splice`) —
       succeeds in the overwhelmingly common case.
    2. *Anchored re-solve*: for the fixed side-2 order the merge exists iff
       side 1 admits a realization in which every crossing column attaching
       left of the split marker has its ``A1``-part as a prefix and every one
       attaching right as a suffix.  That condition is compiled into a
       circular-ones instance over ``A1`` plus two adjacent marker atoms
       (``z1`` anchoring the left parts, ``z2`` the right parts) and decided
       by the kernel recursion itself — no Tutte decomposition built.
    3. Fall back to the full Section 4 alignment machinery, which also
       explores re-anchoring side 2 (spanning crossing columns).
    """
    wx = order2_aug.index(x)
    order2 = order2_aug[:wx] + order2_aug[wx + 1 :]
    crossing = [c for c in columns if (c & a1) and (c & a2)]

    # --- step 1: the cheap splice ------------------------------------- #
    merged = cheap_path_splice(order1, order2, wx, crossing, ctx.stats)
    if merged is not None:
        return merged

    # --- step 2: the anchored re-solve -------------------------------- #
    # The re-solve recursion is a merge-tier implementation detail, not part
    # of the Fig. 3 recursion tree the complexity experiments model, so its
    # subtree is kept out of SolverStats (both kernels then record the same
    # recursion shape).
    saved_stats, ctx.stats = ctx.stats, None
    try:
        merged = _anchored_resolve(
            ctx, depth, order2_aug, wx, columns, crossing, a1, a2
        )
    finally:
        ctx.stats = saved_stats
    if merged is not None:
        if ctx.stats is not None:
            ctx.stats.merge_candidates += 1
            ctx.stats.merges += 1
        return merged

    # --- step 3: the full alignment machinery -------------------------- #
    return merge_path(
        list(order1),
        order2_aug,
        x,
        [frozenset(mask_to_indices(c)) for c in columns],
        stats=ctx.stats,
        engine=ctx.engine,
    )


def _anchored_resolve(
    ctx: _KernelContext,
    depth: int,
    order2_aug: list[int],
    wx: int,
    columns: Sequence[int],
    crossing: Sequence[int],
    a1: int,
    a2: int,
) -> list[int] | None:
    """Re-solve side 1 with the left/right anchoring compiled in, then splice.

    Returns ``None`` when the encoding does not apply (a spanning crossing
    column, whose handling needs side-2 re-anchoring) or when no anchored
    realization exists; the caller then falls back to the full machinery.
    """
    pos = {atom: p for p, atom in enumerate(order2_aug)}
    left_parts: list[int] = []
    right_parts: list[int] = []
    for c in crossing:
        part1 = c & a1
        part2 = c & a2
        if part1 == a1:
            continue  # type-a: consecutive in any splice once part2 touches x
        if part2 == a2:
            return None  # spanning: needs side-2 re-anchoring (step 3)
        ps = [pos[i] for i in mask_to_indices(part2)]
        lo, hi = min(ps), max(ps)
        if hi - lo != len(ps) - 1:  # pragma: no cover - defensive
            return None
        if hi == wx - 1:
            left_parts.append(part1)
        elif lo == wx + 1:
            right_parts.append(part1)
        else:  # pragma: no cover - defensive; part2 | {x} was a column
            return None

    z1 = ctx.alloc()
    z2 = ctx.alloc()
    z1_bit, z2_bit = 1 << z1, 1 << z2
    # Every side-1 constraint, plus: z1/z2 adjacent on the cycle, left parts
    # arcs through z1, right parts arcs through z2.  Because z2 sits directly
    # next to z1, an arc through z1 avoiding z2 must grow away from z2 — so
    # cutting the cycle at the z1-z2 edge yields a side-1 order with every
    # left part a prefix and every right part a suffix.
    cycle_columns = [c & a1 for c in columns if c & a1]
    cycle_columns.append(z1_bit | z2_bit)
    cycle_columns += [p | z1_bit for p in left_parts]
    cycle_columns += [p | z2_bit for p in right_parts]

    circ = _cycle_rec(a1 | z1_bit | z2_bit, cycle_columns, ctx, depth + 1)
    if circ is None:
        return None
    at = circ.index(z1)
    rotated = circ[at:] + circ[:at]
    if rotated[-1] == z2:
        inner = rotated[1:-1]
    elif rotated[1] == z2:
        inner = list(reversed(rotated[2:]))
    else:  # pragma: no cover - defensive; {z1, z2} was a column
        return None
    order2 = order2_aug[:wx] + order2_aug[wx + 1 :]
    merged = order2[:wx] + inner + order2[wx:]
    if all_consecutive(merged, crossing):
        return merged
    return None


# ---------------------------------------------------------------------- #
# kernel entry points
# ---------------------------------------------------------------------- #
def solve_path_indexed(
    indexed: IndexedEnsemble,
    stats: SolverStats | None = None,
    *,
    engine: str | None = None,
) -> list[int] | None:
    """A consecutive-ones layout as atom indices, or ``None``."""
    ctx = _KernelContext(stats, indexed.num_atoms, engine)
    tracer = current_tracer()
    if not tracer.enabled:
        return _path_rec(indexed.universe_mask, list(indexed.masks), ctx, 0)
    with tracer.span(
        "solve.path",
        n=indexed.num_atoms,
        m=indexed.num_columns,
        p=indexed.total_size,
    ):
        return _path_rec(indexed.universe_mask, list(indexed.masks), ctx, 0)


def solve_cycle_indexed(
    indexed: IndexedEnsemble,
    stats: SolverStats | None = None,
    *,
    engine: str | None = None,
) -> list[int] | None:
    """A circular-ones layout as atom indices, or ``None``."""
    ctx = _KernelContext(stats, indexed.num_atoms, engine)
    tracer = current_tracer()
    if not tracer.enabled:
        return _cycle_rec(indexed.universe_mask, list(indexed.masks), ctx, 0)
    with tracer.span(
        "solve.cycle",
        n=indexed.num_atoms,
        m=indexed.num_columns,
        p=indexed.total_size,
    ):
        return _cycle_rec(indexed.universe_mask, list(indexed.masks), ctx, 0)
