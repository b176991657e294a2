"""Tests for the batch / throughput layer (repro.batch)."""

from __future__ import annotations

import random

import pytest

from repro import Ensemble, path_realization, solve_many
from repro.batch import BatchResult
from repro.ensemble import verify_circular_layout, verify_linear_layout
from repro.generators import (
    non_c1p_ensemble,
    random_c1p_ensemble,
    random_circular_ensemble,
)


def _disconnected_instance(seeds: list[int], block: int = 8) -> Ensemble:
    """Independent planted-C1P blocks over disjoint atom ranges."""
    atoms: tuple = ()
    columns: tuple = ()
    for k, seed in enumerate(seeds):
        inst = random_c1p_ensemble(block, 5, random.Random(seed)).ensemble
        shifted = inst.relabel({i: k * 1000 + i for i in range(block)})
        atoms += shifted.atoms
        columns += shifted.columns
    return Ensemble(atoms, columns)


class TestSolveMany:
    def test_results_align_with_inputs(self, rng):
        fleet = [random_c1p_ensemble(12, 8, rng).ensemble for _ in range(4)]
        fleet.insert(2, non_c1p_ensemble(10, 6, rng).ensemble)
        results = solve_many(fleet)
        assert [r.index for r in results] == list(range(5))
        assert [r.ok for r in results] == [True, True, False, True, True]
        for ensemble, result in zip(fleet, results):
            assert result.num_atoms == ensemble.num_atoms
            assert result.num_columns == ensemble.num_columns
            if result.ok:
                assert verify_linear_layout(ensemble, result.order)

    def test_empty_batch(self):
        assert solve_many([]) == []

    def test_circular_batch(self, rng):
        fleet = [random_circular_ensemble(10, 8, rng).ensemble for _ in range(3)]
        results = solve_many(fleet, circular=True)
        for ensemble, result in zip(fleet, results):
            if result.ok:
                assert verify_circular_layout(ensemble, result.order)

    def test_component_fanout_concatenates_correctly(self):
        instance = _disconnected_instance([1, 2, 3])
        results = solve_many([instance])
        (result,) = results
        assert result.parts == 3
        assert result.ok
        assert verify_linear_layout(instance, result.order)

    def test_component_fanout_fails_when_one_component_fails(self):
        bad = non_c1p_ensemble(6, 6, random.Random(0)).ensemble
        good = random_c1p_ensemble(8, 5, random.Random(1)).ensemble.relabel(
            {i: 500 + i for i in range(8)}
        )
        instance = Ensemble(bad.atoms + good.atoms, bad.columns + good.columns)
        (result,) = solve_many([instance])
        assert result.parts >= 2
        assert not result.ok and result.order is None

    def test_process_pool_matches_serial(self, rng):
        import os

        from repro.obs import Tracer

        fleet = [random_c1p_ensemble(15, 10, rng).ensemble for _ in range(4)]
        fleet.append(non_c1p_ensemble(10, 6, rng).ensemble)
        serial = solve_many(fleet, processes=None)
        tracer = Tracer()
        pooled = solve_many(fleet, processes=2, trace=tracer)
        assert [r.ok for r in serial] == [r.ok for r in pooled]
        for ensemble, result in zip(fleet, pooled):
            if result.ok:
                assert verify_linear_layout(ensemble, result.order)
        # processes= fan-out is traced: the workers' spans are stitched in
        # under the parent's dispatch spans.
        spans = tracer.spans()
        dispatch = {s.span_id for s in spans if s.name == "serve.task"}
        worker = [s for s in spans if s.name == "worker.serve.task"]
        assert worker and all(s.pid != os.getpid() for s in worker)
        assert all(s.parent_id in dispatch for s in worker)

    def test_negative_processes_rejected(self, rng):
        inst = random_c1p_ensemble(6, 4, rng).ensemble
        with pytest.raises(ValueError, match="processes"):
            solve_many([inst], processes=-1)

    def test_reference_kernel_fanout(self, rng):
        fleet = [random_c1p_ensemble(10, 6, rng).ensemble for _ in range(2)]
        results = solve_many(fleet, kernel="reference")
        assert all(r.ok for r in results)

    def test_batchresult_summary_is_json_friendly(self, rng):
        import json

        inst = random_c1p_ensemble(6, 4, rng).ensemble
        (result,) = solve_many([inst])
        assert isinstance(result, BatchResult)
        payload = json.dumps(result.summary())
        assert '"ok": true' in payload

    def test_summary_coerces_non_json_labels(self, rng):
        import json

        inst = random_c1p_ensemble(6, 4, rng).ensemble.relabel(
            {i: ("probe", i) for i in range(6)}  # tuple labels: not JSON native
        )
        (result,) = solve_many([inst])
        summary = result.summary()
        payload = json.loads(json.dumps(summary))  # must not raise
        assert payload["order"] == [str(a) for a in result.order]
        # JSON-native labels pass through untouched.
        (plain,) = solve_many([random_c1p_ensemble(6, 4, rng).ensemble])
        assert plain.summary()["order"] == list(plain.order)

    def test_summary_label_key_override(self, rng):
        inst = random_c1p_ensemble(5, 3, rng).ensemble.relabel(
            {i: ("p", i) for i in range(5)}
        )
        (result,) = solve_many([inst])
        summary = result.summary(label_key=lambda a: a[1])
        assert summary["order"] == [a[1] for a in result.order]


class TestComponentSplitting:
    def test_full_and_trivial_columns_do_not_glue_components(self):
        instance = _disconnected_instance([6, 7])
        atoms = instance.atoms
        glued = Ensemble(
            atoms,
            instance.columns + (frozenset(atoms), frozenset({atoms[0]})),
        )
        (result,) = solve_many([glued])
        assert result.parts == 2
        assert result.ok and verify_linear_layout(glued, result.order)
        # each block's atoms stay together, in component order
        assert {a // 1000 for a in result.order[:8]} == {0}
        assert {a // 1000 for a in result.order[8:]} == {1}

    def test_connected_instance_is_not_split(self, rng):
        inst = random_c1p_ensemble(10, 8, rng).ensemble
        assert inst.is_connected()
        (result,) = solve_many([inst])
        assert result.parts == 1
        assert result.order == path_realization(inst)

    def test_components_cover_all_atoms(self):
        instance = _disconnected_instance([8, 9, 10])
        (result,) = solve_many([instance])
        assert result.parts >= 3
        assert sorted(result.order) == sorted(instance.atoms)
        assert verify_linear_layout(instance, result.order)


class TestCertifyPooling:
    def test_certify_reuses_one_executor_for_solve_and_certify(self, rng, monkeypatch):
        """solve + witness extraction must share a single process pool."""
        import repro.batch as batch_module
        import repro.serve.pool as pool_module

        created = []

        class CountingPool(pool_module.ServePool):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_module, "ServePool", CountingPool)
        fleet = [random_c1p_ensemble(10, 6, rng).ensemble for _ in range(2)]
        fleet += [non_c1p_ensemble(8, 6, rng).ensemble for _ in range(2)]
        results = batch_module.solve_many(fleet, processes=2, certify=True)
        assert len(created) == 1
        assert [r.ok for r in results] == [True, True, False, False]
        assert all(r.certificate is not None for r in results)

    def test_pooled_certificates_match_serial(self, rng):
        fleet = [random_c1p_ensemble(10, 6, rng).ensemble for _ in range(2)]
        fleet.append(non_c1p_ensemble(9, 6, rng).ensemble)
        serial = solve_many(fleet, certify=True)
        pooled = solve_many(fleet, certify=True, processes=2)
        for a, b in zip(serial, pooled):
            assert a.status == b.status
            assert a.certificate.to_json() == b.certificate.to_json()


class TestServePoolRouting:
    def test_solve_many_pool_parameter_matches_serial(self, rng):
        import json

        from repro.serve import ServePool

        fleet = [random_c1p_ensemble(10, 6, rng).ensemble for _ in range(6)]
        fleet.insert(2, non_c1p_ensemble(8, 6, rng).ensemble)
        fleet.insert(5, _disconnected_instance([11, 12]))
        serial = solve_many(fleet, certify=True)
        with ServePool(2) as pool:
            served = solve_many(fleet, certify=True, pool=pool)
        assert [
            json.dumps(r.summary(), sort_keys=True, default=str) for r in serial
        ] == [json.dumps(r.summary(), sort_keys=True, default=str) for r in served]


class TestEngineSelection:
    def test_engines_agree_serial_and_pooled(self, rng):
        fleet = [random_c1p_ensemble(12, 8, rng).ensemble for _ in range(3)]
        fleet.append(non_c1p_ensemble(10, 6, rng).ensemble)
        outcomes = {}
        for engine in (None, "spqr", "splitpair"):
            results = solve_many(fleet, engine=engine)
            outcomes[engine] = [r.ok for r in results]
        assert outcomes[None] == outcomes["spqr"] == outcomes["splitpair"]
        pooled = solve_many(fleet, engine="splitpair", processes=2)
        assert [r.ok for r in pooled] == outcomes["splitpair"]

    def test_unknown_engine_rejected(self, rng):
        fleet = [random_c1p_ensemble(8, 5, rng).ensemble]
        with pytest.raises(ValueError):
            solve_many(fleet, engine="hopcroft")

    @pytest.mark.parametrize(
        "flags", [{"kernel": "bogus"}, {"engine": "hopcroft"}]
    )
    def test_unknown_flag_rejected_before_any_solve(self, rng, monkeypatch, flags):
        import repro.batch as batch_module

        calls = []
        monkeypatch.setattr(
            batch_module, "_solve_part", lambda *args: calls.append(args)
        )
        fleet = [random_c1p_ensemble(8, 5, rng).ensemble for _ in range(2)]
        with pytest.raises(ValueError, match="unknown"):
            solve_many(fleet, **flags)
        assert calls == []


class TestComponentCertification:
    """Rejected split instances certify from the failed component.

    The witness extraction reuses the narrowing the solve already computed
    (the component sub-ensemble) instead of re-extracting from the full
    instance; the witness rows are then re-indexed to the input columns so
    the certificate stays checkable against the original ensemble.
    """

    def _split_rejected_instance(self) -> tuple[Ensemble, int]:
        """A good component first, then a planted-obstruction component.

        Returns the glued instance and the number of leading good columns,
        so tests can assert the witness rows were re-indexed *past* them.
        """
        good = random_c1p_ensemble(8, 5, random.Random(1)).ensemble.relabel(
            {i: 500 + i for i in range(8)}
        )
        bad = non_c1p_ensemble(6, 6, random.Random(0)).ensemble
        glued = Ensemble(good.atoms + bad.atoms, good.columns + bad.columns)
        return glued, len(good.columns)

    def test_witness_extracted_from_failed_component(self, monkeypatch):
        import repro.certify.witness as witness_module
        from repro.certify.checker import check_ensemble

        instance, _ = self._split_rejected_instance()
        seen = []
        real = witness_module.extract_tucker_witness

        def spy(ensemble, **kwargs):
            seen.append(ensemble)
            return real(ensemble, **kwargs)

        monkeypatch.setattr(witness_module, "extract_tucker_witness", spy)
        (result,) = solve_many([instance], certify=True)
        assert result.parts >= 2 and not result.ok
        (extracted,) = seen
        assert extracted.num_atoms < instance.num_atoms
        assert extracted.num_columns < instance.num_columns
        assert check_ensemble(instance, result.certificate)

    def test_witness_rows_are_reindexed_to_input_columns(self):
        from repro.certify.checker import check_ensemble

        instance, good_columns = self._split_rejected_instance()
        (result,) = solve_many([instance], certify=True)
        witness = result.certificate
        # Every witness row lives in the obstruction component, whose
        # columns sit *after* the good block in the input: un-remapped
        # component-local indices would all be < good_columns.
        assert min(witness.row_indices) >= good_columns
        assert check_ensemble(instance, witness)

    def test_pool_path_matches_serial_on_split_rejection(self):
        import json

        from repro.serve import ServePool

        instance, _ = self._split_rejected_instance()
        fleet = [instance, non_c1p_ensemble(7, 5, random.Random(3)).ensemble]
        serial = solve_many(fleet, certify=True)
        with ServePool(2) as pool:
            served = solve_many(fleet, certify=True, pool=pool)
        assert [
            json.dumps(r.summary(), sort_keys=True, default=str) for r in serial
        ] == [json.dumps(r.summary(), sort_keys=True, default=str) for r in served]

    def test_solve_many_forwards_flags_to_pool(self):
        """Flag-parity regression: the batch -> pool call chain forwards
        every solver flag (the lint rule enforces this statically; this
        test pins the runtime behaviour)."""

        class RecordingPool:
            def __init__(self):
                self.kwargs = None

            def solve_many(self, ensembles, **kwargs):
                self.kwargs = kwargs
                return []

        pool = RecordingPool()
        solve_many(
            [],
            pool=pool,
            circular=True,
            kernel="reference",
            engine="splitpair",
            certify=True,
        )
        assert pool.kwargs == {
            "circular": True,
            "kernel": "reference",
            "engine": "splitpair",
            "certify": True,
            "trace": None,
            "cache": None,
            "incremental": False,
        }


class TestCircularSplitSkip:
    """Regression: circular=True used to *silently* bypass component
    splitting; the skip is now explicit in ``BatchResult.split`` and kept
    byte-for-byte identical between the serial and pool paths."""

    def _circular_disconnected(self) -> Ensemble:
        return _disconnected_instance([11, 12, 13])

    def test_circular_skip_is_recorded(self):
        instance = self._circular_disconnected()
        (result,) = solve_many([instance], circular=True)
        assert result.parts == 1
        assert result.split == "circular-skip"
        assert result.summary()["split"] == "circular-skip"

    def test_linear_split_is_recorded(self):
        (result,) = solve_many([self._circular_disconnected()])
        assert result.split == "components"
        assert result.parts >= 3

    def test_pool_matches_serial_on_circular_skip(self):
        import json

        from repro.serve import ServePool

        instance = self._circular_disconnected()
        serial = solve_many([instance], circular=True, certify=True)
        with ServePool(2) as pool:
            pooled = solve_many([instance], circular=True, certify=True, pool=pool)
        canon = lambda r: json.dumps(r.summary(), sort_keys=True, default=str)
        assert [canon(r) for r in pooled] == [canon(r) for r in serial]

    def test_cost_model_reports_no_savings_for_circular(self):
        from repro.pram.costmodel import batch_split_savings

        assert batch_split_savings(24, 15, 60, components=3, circular=True) == 0.0
        assert batch_split_savings(24, 15, 60, components=3) > 0.0
