"""Property sweep for the shared-memory wire format (repro.serve.wire).

The contract under test: ``pack_masks`` → shared-memory segment → attach →
``from_packed_masks`` is the *identity* on the indexed representation —
atoms, masks and column names — for arbitrary ensembles (empty, trivial and
full columns, >64-atom masks, exotic hashable labels), and every truncated
or corrupted payload raises :class:`~repro.errors.WireFormatError` instead
of decoding to garbage.
"""

from __future__ import annotations

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import mask_from_bytes, mask_to_bytes
from repro.core.indexed import IndexedEnsemble
from repro.errors import WireFormatError
from repro.serve import wire
from repro.serve.wire import (
    BUNDLE_HEADER,
    BUNDLE_MAGIC,
    FLAG_LABELS,
    FLAG_NAMES,
    HEADER,
    WIRE_MAGIC,
    WIRE_VERSION,
    attach_segment,
    bundle_size,
    create_segment,
    pack_bundle,
    pack_ensemble,
    packed_size,
    unpack_bundle,
    unpack_ensemble,
)


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
def _labels(kind: str, n: int) -> tuple:
    if kind == "int":
        return tuple(range(n))
    if kind == "str":
        return tuple(f"a{i}" for i in range(n))
    if kind == "tuple":  # e.g. (clone, probe) ids from the physmap workload
        return tuple(("probe", i) for i in range(n))
    raise AssertionError(kind)


@st.composite
def indexed_ensembles(draw) -> IndexedEnsemble:
    # n deliberately crosses 64 so multi-word masks are exercised.
    n = draw(st.integers(min_value=0, max_value=90))
    m = draw(st.integers(min_value=0, max_value=10))
    universe = (1 << n) - 1
    special = [0, universe] if n else [0]
    masks = draw(
        st.lists(
            st.one_of(st.sampled_from(special), st.integers(0, universe)),
            min_size=m,
            max_size=m,
        )
    )
    kind = draw(st.sampled_from(["int", "str", "tuple"]))
    named = draw(st.booleans())
    names = tuple(f"col{j}" for j in range(m)) if named else None
    return IndexedEnsemble(_labels(kind, n), masks, names)


def _read_segment(name: str) -> bytes:
    """Attach a named segment as a worker does, copy it out, detach."""
    segment = attach_segment(name)
    try:
        return bytes(segment.buf)
    finally:
        segment.close()


# ---------------------------------------------------------------------- #
# round trips
# ---------------------------------------------------------------------- #
class TestRoundTrip:
    @given(indexed_ensembles())
    @settings(deadline=None, max_examples=60)
    def test_pack_shm_attach_unpack_is_identity(self, indexed):
        payload = indexed.pack_masks(with_names=True)
        assert len(payload) == packed_size(
            indexed.num_atoms,
            indexed.num_columns,
            label_bytes=len(pickle.dumps(indexed.atoms, pickle.HIGHEST_PROTOCOL)),
            name_bytes=len(
                pickle.dumps(indexed.column_names, pickle.HIGHEST_PROTOCOL)
            ),
        )
        segment = create_segment(payload)
        try:
            via_shm = _read_segment(segment.name)
            back = IndexedEnsemble.from_packed_masks(via_shm)
        finally:
            segment.close()
            segment.unlink()
        assert back.atoms == indexed.atoms
        assert back.masks == indexed.masks
        assert back.column_names == indexed.column_names
        # The flat payload alone decodes identically, with no slack allowed.
        atoms, masks, names = unpack_ensemble(payload, exact=True)
        assert (atoms, masks, names) == (
            indexed.atoms,
            indexed.masks,
            indexed.column_names,
        )

    @given(indexed_ensembles())
    @settings(deadline=None, max_examples=40)
    def test_every_truncation_raises_wire_format_error(self, indexed):
        payload = indexed.pack_masks(with_names=True)
        # All header cuts, plus a spread of body cuts.
        cuts = set(range(min(len(payload), HEADER.size + 1)))
        cuts.update(range(HEADER.size, len(payload), max(1, len(payload) // 16)))
        for cut in sorted(cuts):
            with pytest.raises(WireFormatError):
                unpack_ensemble(payload[:cut], exact=True)

    def test_without_labels_atoms_are_dense_indices(self):
        indexed = IndexedEnsemble(("x", "y", "z"), (0b011, 0b110))
        atoms, masks, names = unpack_ensemble(indexed.pack_masks(with_labels=False))
        assert atoms == (0, 1, 2)
        assert masks == indexed.masks
        assert names is None

    def test_shared_memory_slack_is_tolerated_by_default(self):
        indexed = IndexedEnsemble(tuple(range(5)), (0b10101,))
        payload = indexed.pack_masks()
        segment = create_segment(payload)
        try:
            # Segments round up to page granularity: buf is bigger than the
            # payload, and decoding straight off the live buffer must work.
            assert len(segment.buf) >= len(payload)
            back = IndexedEnsemble.from_packed_masks(segment.buf)
        finally:
            segment.close()
            segment.unlink()
        assert back.masks == indexed.masks

    def test_solver_agrees_after_round_trip(self, rng):
        from repro.generators import random_c1p_ensemble

        ensemble = random_c1p_ensemble(70, 30, rng).ensemble
        indexed = IndexedEnsemble.from_ensemble(ensemble)
        back = IndexedEnsemble.from_packed_masks(indexed.pack_masks(with_names=True))
        assert back.to_ensemble() == ensemble
        assert back.solve_path() == indexed.solve_path()

    def test_mask_byte_helpers_invert(self):
        for mask in (0, 1, 0b1011, 1 << 200 | 1):
            width = max(1, (mask.bit_length() + 7) // 8)
            assert mask_from_bytes(mask_to_bytes(mask, width)) == mask
        with pytest.raises(ValueError):
            mask_to_bytes(-1, 1)


# ---------------------------------------------------------------------- #
# corruption
# ---------------------------------------------------------------------- #
def _payload() -> bytes:
    indexed = IndexedEnsemble(("a", "b", "c", "d"), (0b0110, 0b1111, 0), ("x", "y", "z"))
    return indexed.pack_masks(with_names=True)


def _patch_header(payload: bytes, **fields) -> bytes:
    magic, version, flags, n, m, mask_bytes, label_bytes, name_bytes = (
        HEADER.unpack_from(payload, 0)
    )
    values = {
        "magic": magic, "version": version, "flags": flags, "n": n, "m": m,
        "mask_bytes": mask_bytes, "label_bytes": label_bytes,
        "name_bytes": name_bytes,
    }
    values.update(fields)
    header = HEADER.pack(
        values["magic"], values["version"], values["flags"], values["n"],
        values["m"], values["mask_bytes"], values["label_bytes"],
        values["name_bytes"],
    )
    return header + payload[HEADER.size :]


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(WireFormatError, match="magic"):
            unpack_ensemble(_patch_header(_payload(), magic=b"NOPE"))

    def test_unsupported_version(self):
        with pytest.raises(WireFormatError, match="version"):
            unpack_ensemble(_patch_header(_payload(), version=WIRE_VERSION + 1))

    def test_unknown_flags(self):
        with pytest.raises(WireFormatError, match="flags"):
            unpack_ensemble(_patch_header(_payload(), flags=0x80))

    def test_mask_width_disagrees_with_atom_count(self):
        with pytest.raises(WireFormatError, match="mask width"):
            unpack_ensemble(_patch_header(_payload(), mask_bytes=7))

    def test_implausible_geometry_rejected_before_allocation(self):
        # A lying header must fail cleanly, not attempt a 2^31-column scan.
        with pytest.raises(WireFormatError):
            unpack_ensemble(_patch_header(_payload(), n=1 << 31, mask_bytes=1 << 28))

    def test_mask_with_out_of_range_bits(self):
        indexed = IndexedEnsemble(("a", "b", "c"), (0b101,))
        payload = bytearray(indexed.pack_masks())
        payload[HEADER.size] |= 0b1000  # set bit 3 in a 3-atom universe
        with pytest.raises(WireFormatError, match="outside"):
            unpack_ensemble(bytes(payload))

    def test_corrupted_label_table(self):
        payload = bytearray(_payload())
        header_and_masks = HEADER.size + 3 * 1
        for i in range(header_and_masks, header_and_masks + 8):
            payload[i] ^= 0xFF
        with pytest.raises(WireFormatError):
            unpack_ensemble(bytes(payload))

    def test_label_count_mismatch(self):
        blob = pickle.dumps(("only", "two"), pickle.HIGHEST_PROTOCOL)
        masks = b"\x06\x0f\x00"
        header = HEADER.pack(
            WIRE_MAGIC, WIRE_VERSION, FLAG_LABELS, 4, 3, 1, len(blob), 0
        )
        with pytest.raises(WireFormatError, match="label table"):
            unpack_ensemble(header + masks + blob)

    def test_label_table_of_wrong_type(self):
        blob = pickle.dumps(["a", "b", "c", "d"], pickle.HIGHEST_PROTOCOL)
        header = HEADER.pack(
            WIRE_MAGIC, WIRE_VERSION, FLAG_LABELS, 4, 1, 1, len(blob), 0
        )
        with pytest.raises(WireFormatError, match="tuple"):
            unpack_ensemble(header + b"\x0f" + blob)

    def test_non_string_name_table(self):
        blob = pickle.dumps((1,), pickle.HIGHEST_PROTOCOL)
        header = HEADER.pack(
            WIRE_MAGIC, WIRE_VERSION, FLAG_NAMES, 2, 1, 1, 0, len(blob)
        )
        with pytest.raises(WireFormatError, match="non-string"):
            unpack_ensemble(header + b"\x03" + blob)

    def test_blob_bytes_declared_without_flag(self):
        with pytest.raises(WireFormatError, match="flag unset"):
            unpack_ensemble(_patch_header(_payload(), flags=FLAG_NAMES))

    def test_trailing_garbage_rejected_in_exact_mode(self):
        payload = _payload() + b"\x00garbage"
        unpack_ensemble(payload)  # slack tolerated by default
        with pytest.raises(WireFormatError, match="trailing"):
            unpack_ensemble(payload, exact=True)

    def test_packing_rejects_out_of_universe_masks(self):
        with pytest.raises(WireFormatError, match="outside"):
            pack_ensemble(("a", "b"), (0b100,))

    def test_packing_rejects_mismatched_names(self):
        with pytest.raises(WireFormatError, match="names"):
            pack_ensemble(("a",), (0b1,), column_names=("x", "y"))

    def test_empty_ensemble_round_trips(self):
        atoms, masks, names = unpack_ensemble(pack_ensemble((), ()), exact=True)
        assert atoms == () and masks == () and names is None

    def test_bundle_round_trips_entries_and_kinds(self):
        ensembles = [
            IndexedEnsemble(("a", "b"), (0b11,)),
            IndexedEnsemble((), ()),
            IndexedEnsemble(tuple(range(70)), ((1 << 70) - 1, 0)),
        ]
        entries = [
            (kind, indexed.pack_masks())
            for kind, indexed in zip((0, 1, 2), ensembles)
        ]
        frame = pack_bundle(entries)
        assert len(frame) == bundle_size([len(p) for _, p in entries])
        segment = create_segment(frame)
        try:
            decoded = unpack_bundle(_read_segment(segment.name))
        finally:
            segment.close()
            segment.unlink()
        assert [kind for kind, _ in decoded] == [0, 1, 2]
        for (_, view), indexed in zip(decoded, ensembles):
            back = IndexedEnsemble.from_packed_masks(view)
            assert back.atoms == indexed.atoms and back.masks == indexed.masks

    def test_empty_bundle_round_trips(self):
        assert unpack_bundle(pack_bundle([])) == []

    @given(st.integers(min_value=0, max_value=80))
    @settings(deadline=None, max_examples=30)
    def test_truncated_bundles_raise(self, cut_fraction):
        entries = [
            (0, IndexedEnsemble(("x", "y", "z"), (0b101, 0b011)).pack_masks())
        ] * 3
        frame = pack_bundle(entries)
        cut = min(len(frame) - 1, cut_fraction * len(frame) // 80)
        with pytest.raises(WireFormatError):
            unpack_bundle(frame[:cut])

    def test_bundle_corruption(self):
        frame = pack_bundle([(0, pack_ensemble(("a",), (1,)))])
        bad_magic = b"XXXX" + frame[4:]
        with pytest.raises(WireFormatError, match="magic"):
            unpack_bundle(bad_magic)
        import struct as _struct

        bad_count = frame[:8] + _struct.pack("<I", 1 << 25) + frame[12:]
        with pytest.raises(WireFormatError, match="entry count"):
            unpack_bundle(bad_count)
        with pytest.raises(WireFormatError, match="kind"):
            pack_bundle([(300, b"")])

    def test_wire_constants_are_stable(self):
        # The on-disk/on-wire contract: breaking either needs a version bump.
        assert WIRE_MAGIC == b"C1PW"
        assert BUNDLE_MAGIC == b"C1PB"
        assert HEADER.size == 28
        assert BUNDLE_HEADER.size == 12
        assert wire.WIRE_VERSION == 1


class TestDispatchCostModel:
    """The costmodel's dispatch terms must track the real format."""

    def test_wire_dispatch_bytes_matches_label_free_payloads(self):
        from repro.pram.costmodel import wire_dispatch_bytes

        for n, m in [(0, 0), (5, 3), (64, 10), (90, 7)]:
            indexed = IndexedEnsemble(tuple(range(n)), (0,) * m)
            payload = indexed.pack_masks(with_labels=False)
            assert wire_dispatch_bytes(n, m) == len(payload)

    def test_fleet_work_charges_cold_start_once(self):
        from repro.pram.costmodel import pool_startup_work, serve_fleet_dispatch_work

        warm = serve_fleet_dispatch_work(100, 16, 10, 60, workers=4)
        cold = serve_fleet_dispatch_work(100, 16, 10, 60, workers=4, cold=True)
        assert cold - warm == pool_startup_work(4)
        assert pool_startup_work(4, cold=False) == 0
