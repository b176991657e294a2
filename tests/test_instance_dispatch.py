"""One pool task per instance: the dispatch contract of ``solve_many``.

A pool worker runs serial ``solve_many``'s own per-instance routine —
component split, component solves up to the first rejection, witness
extraction — so an instance costs exactly one task whatever its
components, and pool answers are serial answers byte for byte.
"""

from __future__ import annotations

import json

from repro import Ensemble, solve_many
from repro.generators import tucker_m1, tucker_m2, tucker_m4, tucker_m5
from repro.serve import ServePool


def _glued(blocks: list[Ensemble]) -> Ensemble:
    """The blocks over disjoint atom ranges, in order: one component each."""
    atoms: tuple = ()
    columns: tuple = ()
    for k, block in enumerate(blocks):
        shifted = block.relabel({a: k * 1000 + i for i, a in enumerate(block.atoms)})
        atoms += shifted.atoms
        columns += shifted.columns
    return Ensemble(atoms, columns)


def _good(n: int) -> Ensemble:
    """A connected C1P block: the overlapping pairs of an ``n``-atom path."""
    return Ensemble(tuple(range(n)), tuple(frozenset({i, i + 1}) for i in range(n - 1)))


#: connected blocks without the property (Tucker obstructions).
_BAD = [tucker_m1(1), tucker_m2(1), tucker_m4(), tucker_m5(), tucker_m1(2)]


def _bad(k: int) -> Ensemble:
    return _BAD[k % len(_BAD)]


def _summaries(results) -> list[str]:
    return [json.dumps(r.summary(), sort_keys=True, default=str) for r in results]


def _fleet() -> list[Ensemble]:
    """Split instances: accepted and rejected, one and many components."""
    return [
        _glued([_good(5), _good(6), _good(7)]),
        _glued([_good(4), _bad(0), _good(6)]),
        _bad(1),
        _good(8),
        _glued([_bad(2), _bad(3)]),
        _glued([_good(5), _good(4), _bad(4)]),
    ]


class TestOneTaskPerInstance:
    def test_certified_stream_costs_one_task_per_instance(self):
        fleet = _fleet()
        serial = solve_many(fleet, certify=True)
        assert [r.parts for r in serial] == [3, 3, 1, 1, 2, 3]
        assert [r.ok for r in serial] == [True, False, False, True, False, False]
        with ServePool(1) as pool:
            streamed = sorted(
                pool.solve_stream(fleet, certify=True, chunksize=1),
                key=lambda r: r.index,
            )
            tasks = pool.metrics_snapshot()["serve.tasks"]["value"]
        assert tasks == len(fleet)
        assert _summaries(streamed) == _summaries(serial)

    def test_lone_multi_component_instance_starts_no_pool(self, monkeypatch):
        import repro.serve.pool as pool_module

        created = []

        class CountingPool(pool_module.ServePool):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_module, "ServePool", CountingPool)
        instance = _glued([_good(6), _bad(0), _good(5)])
        pooled = solve_many([instance], processes=2, certify=True)
        assert created == []
        assert pooled[0].parts == 3
        assert _summaries(pooled) == _summaries(solve_many([instance], certify=True))


class TestFirstRejectionDecides:
    def test_first_rejecting_component_stops_the_solve(self, monkeypatch):
        import repro.batch as batch_module

        calls = []
        real = batch_module._solve_part

        def spy(part, *args):
            calls.append(part)
            return real(part, *args)

        monkeypatch.setattr(batch_module, "_solve_part", spy)
        instance = _glued([_bad(2), _good(6), _good(5)])
        (result,) = solve_many([instance])
        assert not result.ok and result.parts == 3
        assert len(calls) == 1
