"""Differential suite for ``solve_many``'s one component split.

``repro.batch`` splits a linear instance once, at mask level, before the
kernel sees it: trivial, full and duplicate columns are dropped, every
connected component is re-densified into its own part, and a witness
found on a part is re-indexed to the input columns.  The kernel's own
Step 1 (``path_realization``) is the reference: the split must return
its layout and verdict exactly, on instances glued from accepted and
rejected blocks with a full column, a singleton column and an early
duplicate of a later column thrown in.
"""

from __future__ import annotations

import json
import random

from hypothesis import example, given, strategies as st

from repro.batch import solve_many
from repro.certify.checker import check_ensemble
from repro.core import path_realization
from repro.ensemble import Ensemble
from repro.generators import non_c1p_ensemble, random_c1p_ensemble, tucker_m1, tucker_m4
from repro.serve import ServePool


def _block(kind: int, size: int, seed: int) -> Ensemble:
    """An accepted (``kind`` 0, 1) or rejected (2, 3) block of about ``size`` atoms."""
    rng = random.Random(seed)
    if kind < 2:
        return random_c1p_ensemble(size, rng.randint(1, size), rng).ensemble
    if kind == 2:
        return non_c1p_ensemble(size + 6, rng.randint(3, 8), rng).ensemble
    return tucker_m1(rng.randint(1, 3)) if seed % 2 else tucker_m4()


def _glued(blocks: list[Ensemble], seed: int) -> Ensemble:
    """The blocks over disjoint atoms, plus a full column, a singleton
    column and a copy of a later column inserted early."""
    rng = random.Random(seed)
    atoms: list = []
    columns: list = []
    for k, block in enumerate(blocks):
        label = {a: 1000 * k + i for i, a in enumerate(block.atoms)}
        atoms += [label[a] for a in block.atoms]
        columns += [frozenset(label[a] for a in col) for col in block.columns]
    rng.shuffle(atoms)
    columns.insert(rng.randint(0, len(columns)), frozenset(atoms))
    columns.insert(rng.randint(0, len(columns)), frozenset({rng.choice(atoms)}))
    later = rng.randrange(len(columns))
    columns.insert(rng.randint(0, later), columns[later])
    return Ensemble(tuple(atoms), tuple(columns))


blocks = st.builds(
    _block,
    kind=st.integers(0, 3),
    size=st.integers(2, 9),
    seed=st.integers(0, 10**6),
)
instances = st.builds(
    _glued, st.lists(blocks, min_size=1, max_size=4), seed=st.integers(0, 10**6)
)


def _components(ensemble: Ensemble) -> int:
    """Connected components once trivial and full columns are dropped."""
    return len(ensemble.drop_trivial_columns(max_size=1, drop_full=True).components())


@given(instances)
def test_split_matches_the_kernels_own_step_one(instance):
    (result,) = solve_many([instance])
    assert result.order == path_realization(instance)
    assert result.parts == _components(instance)
    assert result.split == "components"


#: a connected rejection whose obstruction later copies can name too:
#: rows 6, 5, 7 hold the sets of rows 2, 3, 7
_CONNECTED_WITH_COPIES = Ensemble(
    tuple(range(4)),
    tuple(
        frozenset(c)
        for c in [[0, 2], [1, 2, 3], [0, 1], [1, 3], [0, 1], [1, 3], [0, 1], [0, 3]]
    ),
)


@given(instances)
@example(_CONNECTED_WITH_COPIES)
def test_certified_witness_checks_against_the_input(instance):
    (result,) = solve_many([instance], certify=True)
    assert result.ok == (path_realization(instance) is not None)
    assert result.parts == _components(instance)
    if result.ok:
        assert result.certificate.order == tuple(result.order)
        return
    witness = result.certificate
    assert check_ensemble(instance, witness)
    # Re-indexed from a part, connected or not: every row names the first
    # input column with its atom set.
    for row in witness.row_indices:
        assert instance.columns.index(instance.columns[row]) == row


def test_warm_pool_stream_matches_serial():
    rng = random.Random(17)
    fleet = [
        _glued(
            [
                _block(rng.randint(0, 3), rng.randint(2, 9), rng.randrange(10**6))
                for _ in range(rng.randint(1, 4))
            ],
            rng.randrange(10**6),
        )
        for _ in range(40)
    ]
    serial = solve_many(fleet, certify=True)
    assert 0 < sum(r.ok for r in serial) < len(fleet)
    assert any(not r.ok and r.parts > 1 for r in serial)
    with ServePool(2) as pool:
        list(pool.solve_stream(fleet[:4], certify=True, chunksize=1))  # warm up
        streamed = sorted(
            pool.solve_stream(fleet, certify=True, chunksize=1),
            key=lambda r: r.index,
        )

    def canon(results):
        return [json.dumps(r.summary(), sort_keys=True, default=str) for r in results]

    assert canon(streamed) == canon(serial)
