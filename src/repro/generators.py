"""Instance generators used by tests, examples and benchmarks.

Three families are provided:

* **Positive instances** with a planted consecutive-ones (or circular-ones)
  layout: every column is an interval of a hidden atom permutation, so the
  instance is guaranteed to have the property, and the hidden permutation is
  available as ground truth.
* **Negative instances** built around Tucker's forbidden configurations
  ``M_I(k)``, ``M_II(k)``, ``M_III(k)``, ``M_IV`` and ``M_V`` (Tucker 1972,
  cited as [19] in the paper).  A matrix containing one of these as a
  configuration on a dedicated set of atoms cannot have the consecutive-ones
  property, regardless of what other columns or atoms are added.
* **Noisy physical-mapping instances** mimicking the Section 1.1 workload:
  interval clones over a genome of STS probes with false positives, false
  negatives and chimeric clones injected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ensemble import Ensemble

__all__ = [
    "GeneratedInstance",
    "random_c1p_ensemble",
    "random_circular_ensemble",
    "random_ensemble",
    "tucker_m1",
    "tucker_m2",
    "tucker_m3",
    "tucker_m4",
    "tucker_m5",
    "non_c1p_ensemble",
    "shuffle_ensemble",
]


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated ensemble plus the ground truth used to create it."""

    ensemble: Ensemble
    planted_order: tuple | None
    is_c1p: bool | None


# ---------------------------------------------------------------------- #
# positive instances
# ---------------------------------------------------------------------- #
def random_c1p_ensemble(
    num_atoms: int,
    num_columns: int,
    rng: random.Random | None = None,
    *,
    min_len: int = 2,
    max_len: int | None = None,
    shuffle_atoms: bool = True,
) -> GeneratedInstance:
    """A random ensemble guaranteed to have the consecutive-ones property.

    Columns are intervals of a hidden permutation of ``num_atoms`` atoms; the
    atom labels of the returned ensemble are shuffled (unless
    ``shuffle_atoms`` is false) so that the identity order is almost never a
    valid layout.
    """
    rng = rng or random.Random()
    if num_atoms < 1:
        raise ValueError("num_atoms must be positive")
    max_len = max_len or num_atoms
    max_len = min(max_len, num_atoms)
    min_len = max(1, min(min_len, max_len))

    hidden = list(range(num_atoms))
    if shuffle_atoms:
        rng.shuffle(hidden)

    cols = []
    for _ in range(num_columns):
        length = rng.randint(min_len, max_len)
        start = rng.randint(0, num_atoms - length)
        cols.append(frozenset(hidden[start : start + length]))

    atoms = tuple(range(num_atoms))
    ens = Ensemble(atoms, tuple(cols))
    return GeneratedInstance(ens, tuple(hidden), True)


def random_circular_ensemble(
    num_atoms: int,
    num_columns: int,
    rng: random.Random | None = None,
    *,
    min_len: int = 2,
    max_len: int | None = None,
) -> GeneratedInstance:
    """A random ensemble guaranteed to have the circular-ones property.

    Columns are arcs of a hidden circular permutation (arcs may wrap around).
    """
    rng = rng or random.Random()
    if num_atoms < 1:
        raise ValueError("num_atoms must be positive")
    max_len = max_len or max(1, num_atoms - 1)
    max_len = min(max_len, num_atoms - 1) if num_atoms > 1 else 1
    min_len = max(1, min(min_len, max_len))

    hidden = list(range(num_atoms))
    rng.shuffle(hidden)

    cols = []
    for _ in range(num_columns):
        length = rng.randint(min_len, max_len)
        start = rng.randint(0, num_atoms - 1)
        cols.append(frozenset(hidden[(start + k) % num_atoms] for k in range(length)))

    ens = Ensemble(tuple(range(num_atoms)), tuple(cols))
    return GeneratedInstance(ens, tuple(hidden), None)


def random_ensemble(
    num_atoms: int,
    num_columns: int,
    density: float = 0.3,
    rng: random.Random | None = None,
) -> Ensemble:
    """A completely random ensemble with independent membership probability.

    No guarantee about the consecutive-ones property is made; useful together
    with the brute-force oracle on small instances.
    """
    rng = rng or random.Random()
    atoms = tuple(range(num_atoms))
    cols = []
    for _ in range(num_columns):
        cols.append(frozenset(a for a in atoms if rng.random() < density))
    return Ensemble(atoms, tuple(cols))


def shuffle_ensemble(ensemble: Ensemble, rng: random.Random | None = None) -> Ensemble:
    """Return the same ensemble with atom labels and column order shuffled.

    The consecutive-ones property is invariant under this operation, which
    makes it a convenient metamorphic transformation for property tests.
    """
    rng = rng or random.Random()
    atoms = list(ensemble.atoms)
    rng.shuffle(atoms)
    col_perm = list(range(ensemble.num_columns))
    rng.shuffle(col_perm)
    cols = tuple(ensemble.columns[i] for i in col_perm)
    names = tuple(ensemble.column_names[i] for i in col_perm)
    return Ensemble(tuple(atoms), cols, names)


# ---------------------------------------------------------------------- #
# Tucker forbidden configurations (negative instances)
# ---------------------------------------------------------------------- #
def tucker_m1(k: int = 1, prefix: str = "t") -> Ensemble:
    """Tucker's ``M_I(k)``: the (k+2)-cycle configuration, k >= 1.

    Atoms ``t0 .. t(k+1)``; columns are the k+2 consecutive pairs around a
    cycle.  The smallest member (k=1) is the 3x3 "triangle" matrix.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k + 2
    atoms = tuple(f"{prefix}{i}" for i in range(n))
    cols = tuple(frozenset({atoms[i], atoms[(i + 1) % n]}) for i in range(n))
    return Ensemble(atoms, cols)


def tucker_m2(k: int = 1, prefix: str = "t") -> Ensemble:
    """Tucker's ``M_II(k)``, k >= 1: (k+3) rows x (k+3) columns configuration.

    Atoms ``t0 .. t(k+2)``.  Columns: the k+1 consecutive pairs
    ``{t_i, t_{i+1}}`` for i in 0..k, the column ``{t_{k+1}, t_{k+2}}`` is
    replaced per Tucker by the column ``{t1, ..., t_{k+1}, t_{k+2}}`` and the
    closing column ``{t0, ..., tk, t_{k+2}}``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k + 3
    a = tuple(f"{prefix}{i}" for i in range(n))
    cols = [frozenset({a[i], a[i + 1]}) for i in range(k + 1)]
    cols.append(frozenset(set(a[1 : k + 2]) | {a[k + 2]}))
    cols.append(frozenset(set(a[0 : k + 1]) | {a[k + 2]}))
    return Ensemble(a, tuple(cols))


def tucker_m3(k: int = 1, prefix: str = "t") -> Ensemble:
    """Tucker's ``M_III(k)``, k >= 1: atoms ``t0 .. t(k+2)``, k+2 columns.

    Columns: the k+1 consecutive pairs ``{t_i, t_{i+1}}`` (i = 0..k) and the
    column ``{t1, ..., tk, t_{k+2}}`` (for k = 1 this is the star
    ``{t0,t1}, {t1,t2}, {t1,t3}``).  This is the *minimal* (k+2) x (k+3)
    form: deleting any row or matrix column leaves a C1P matrix (asserted by
    the corpus tests against the brute-force oracle; an earlier revision
    shipped a non-minimal k+3-row variant).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k + 3
    a = tuple(f"{prefix}{i}" for i in range(n))
    cols = [frozenset({a[i], a[i + 1]}) for i in range(k + 1)]
    cols.append(frozenset(set(a[1 : k + 1]) | {a[k + 2]}))
    return Ensemble(a, tuple(cols))


def tucker_m4(prefix: str = "t") -> Ensemble:
    """Tucker's ``M_IV``: a fixed 6-atom, 4-column configuration."""
    a = tuple(f"{prefix}{i}" for i in range(6))
    cols = (
        frozenset({a[0], a[1], a[2]}),
        frozenset({a[0], a[3]}),
        frozenset({a[1], a[4]}),
        frozenset({a[2], a[5]}),
    )
    return Ensemble(a, cols)


def tucker_m5(prefix: str = "t") -> Ensemble:
    """Tucker's ``M_V``: the fixed 4-row x 5-column minimal configuration.

    Columns (as atom sets): ``{t0,t1}``, ``{t2,t3}``, ``{t0,t1,t2,t3}`` and
    ``{t0,t2,t4}`` — the true minimal M_V, verified against an exhaustive
    enumeration of 4x5 minimal non-C1P matrices (an earlier revision shipped
    a non-minimal 4-atom stand-in).
    """
    a = tuple(f"{prefix}{i}" for i in range(5))
    cols = (
        frozenset({a[0], a[1]}),
        frozenset({a[2], a[3]}),
        frozenset({a[0], a[1], a[2], a[3]}),
        frozenset({a[0], a[2], a[4]}),
    )
    return Ensemble(a, cols)


_TUCKER_FACTORIES = (tucker_m1, tucker_m2, tucker_m3)


def non_c1p_ensemble(
    num_atoms: int,
    num_columns: int,
    rng: random.Random | None = None,
    *,
    core: str = "m1",
    core_k: int = 1,
) -> GeneratedInstance:
    """A random ensemble guaranteed *not* to have the consecutive-ones property.

    A Tucker forbidden configuration is planted on a dedicated set of atoms
    (its atoms appear in no other column), and random interval-style columns
    over the remaining atoms are added.  Because the forbidden core's columns
    survive intact, no layout of the full atom set can make them all
    consecutive.
    """
    rng = rng or random.Random()
    factories = {"m1": tucker_m1, "m2": tucker_m2, "m3": tucker_m3, "m4": tucker_m4, "m5": tucker_m5}
    if core not in factories:
        raise ValueError(f"unknown core {core!r}")
    if core in ("m1", "m2", "m3"):
        core_ens = factories[core](core_k)
    else:
        core_ens = factories[core]()
    core_n = core_ens.num_atoms
    if num_atoms < core_n:
        num_atoms = core_n

    extra_atoms = tuple(range(num_atoms - core_n))
    hidden = list(extra_atoms)
    rng.shuffle(hidden)
    extra_cols: list[frozenset] = []
    remaining = max(0, num_columns - core_ens.num_columns)
    for _ in range(remaining):
        if not hidden:
            break
        length = rng.randint(1, max(1, len(hidden) // 2))
        start = rng.randint(0, len(hidden) - length)
        extra_cols.append(frozenset(hidden[start : start + length]))

    atoms = core_ens.atoms + extra_atoms
    cols = core_ens.columns + tuple(extra_cols)
    return GeneratedInstance(Ensemble(atoms, cols), None, False)
