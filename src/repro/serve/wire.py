"""The packed shared-memory wire format of the serving pool.

A task shipped to a :class:`~repro.serve.pool.ServePool` worker is not a
pickled :class:`~repro.ensemble.Ensemble` (frozensets of labels, re-hashed
on every hop) but a flat byte payload laid out for direct reconstruction of
the integer-indexed representation (:class:`~repro.core.indexed.IndexedEnsemble`):

====================  =======================================================
section               contents
====================  =======================================================
header (28 bytes)     ``<4sHHIIIII``: magic ``b"C1PW"``, version, flags,
                      atom count ``n``, column count ``m``, per-column mask
                      width in bytes (must equal ``ceil(n / 8)``), label-blob
                      length, name-blob length
masks                 ``m`` contiguous little-endian fixed-width bitmasks
                      (byte ``k`` of a mask carries atom indices
                      ``8k .. 8k+7``; see :func:`repro.core.bitset.mask_to_bytes`)
label table           optional (flag bit 0): the atom labels, interned once
                      as a pickled ``n``-tuple — masks refer to labels by
                      index, so each label crosses the wire exactly once
name table            optional (flag bit 1): the column display names as a
                      pickled ``m``-tuple of strings
====================  =======================================================

Decoding is paranoid: a truncated buffer, foreign magic, unsupported
version, geometry that disagrees with the buffer size, a mask with bits at
or above ``n``, or an undecodable/mis-sized label table all raise
:class:`~repro.errors.WireFormatError` — never silently-garbage ensembles.
Shared-memory segments are page-granular, so decoders tolerate trailing
slack bytes by default (``exact=True`` forbids them).

The format is self-contained per segment: a worker that attaches a segment
needs only its name, no state from the submitting process.
"""

from __future__ import annotations

import pickle
import struct
from multiprocessing import shared_memory
from typing import Hashable, Sequence

from ..core.bitset import mask_from_bytes, mask_to_bytes
from ..errors import WireFormatError

Atom = Hashable

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "BUNDLE_MAGIC",
    "FLAG_LABELS",
    "FLAG_NAMES",
    "HEADER",
    "BUNDLE_HEADER",
    "ENTRY_HEADER",
    "pack_ensemble",
    "unpack_ensemble",
    "pack_bundle",
    "unpack_bundle",
    "packed_size",
    "bundle_size",
    "create_segment",
    "attach_segment",
    "ensure_shared_tracker",
]

#: magic bytes opening every payload ("C1P wire").
WIRE_MAGIC = b"C1PW"
#: current format version; readers reject anything else.
WIRE_VERSION = 1
#: header flag: a pickled label table follows the masks.
FLAG_LABELS = 0x01
#: header flag: a pickled column-name table follows the label table.
FLAG_NAMES = 0x02

#: the fixed header: magic, version, flags, n_atoms, n_columns, mask_bytes,
#: label_bytes, name_bytes.
HEADER = struct.Struct("<4sHHIIIII")

_KNOWN_FLAGS = FLAG_LABELS | FLAG_NAMES
#: hard cap on either axis; a header claiming more is corrupt, not big.
_MAX_DIMENSION = 1 << 31


def packed_size(
    n_atoms: int, n_columns: int, label_bytes: int = 0, name_bytes: int = 0
) -> int:
    """Exact payload size in bytes for the given geometry."""
    mask_bytes = (n_atoms + 7) // 8
    return HEADER.size + n_columns * mask_bytes + label_bytes + name_bytes


def pack_ensemble(
    atoms: Sequence[Atom],
    masks: Sequence[int],
    column_names: Sequence[str] | None = None,
    *,
    with_labels: bool = True,
) -> bytes:
    """Pack an indexed representation into one contiguous wire payload.

    ``with_labels=False`` omits the label table (readers then see the dense
    indices ``0 .. n-1`` as labels), which makes the payload fully
    pickle-free; pass ``column_names`` to ship display names as well.
    """
    n = len(atoms)
    m = len(masks)
    mask_bytes = (n + 7) // 8
    flags = 0
    label_blob = b""
    if with_labels:
        flags |= FLAG_LABELS
        label_blob = pickle.dumps(tuple(atoms), protocol=pickle.HIGHEST_PROTOCOL)
    name_blob = b""
    if column_names is not None:
        if len(column_names) != m:
            raise WireFormatError(
                f"{len(column_names)} column names for {m} columns"
            )
        flags |= FLAG_NAMES
        name_blob = pickle.dumps(
            tuple(str(name) for name in column_names),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    parts = [
        HEADER.pack(
            WIRE_MAGIC, WIRE_VERSION, flags, n, m,
            mask_bytes, len(label_blob), len(name_blob),
        )
    ]
    universe = (1 << n) - 1
    for mask in masks:
        if mask < 0 or mask & ~universe:
            raise WireFormatError(
                f"column mask {mask:#x} references atom indices outside 0..{n - 1}"
            )
        parts.append(mask_to_bytes(mask, mask_bytes))
    parts.append(label_blob)
    parts.append(name_blob)
    return b"".join(parts)


def _load_blob(blob: bytes, what: str, expected_len: int) -> tuple:
    try:
        value = pickle.loads(blob)
    except Exception as exc:
        raise WireFormatError(f"undecodable {what} table: {exc!r}") from exc
    if not isinstance(value, tuple):
        raise WireFormatError(
            f"{what} table decodes to {type(value).__name__}, expected tuple"
        )
    if len(value) != expected_len:
        raise WireFormatError(
            f"{what} table has {len(value)} entries, header declares {expected_len}"
        )
    return value


def unpack_ensemble(
    buffer: bytes | bytearray | memoryview, *, exact: bool = False
) -> tuple[tuple[Atom, ...], tuple[int, ...], tuple[str, ...] | None]:
    """Decode a wire payload into ``(atoms, masks, column_names)``.

    ``column_names`` is ``None`` when the payload carries no name table.
    Accepts any buffer (including a live ``SharedMemory.buf`` memoryview —
    masks are sliced out of it without an intermediate copy).  Trailing
    bytes beyond the declared payload are tolerated unless ``exact`` is
    true, because shared-memory segments round up to page granularity.
    """
    view = memoryview(buffer)
    if len(view) < HEADER.size:
        raise WireFormatError(
            f"truncated header: {len(view)} bytes, need {HEADER.size}"
        )
    magic, version, flags, n, m, mask_bytes, label_bytes, name_bytes = (
        HEADER.unpack_from(view, 0)
    )
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {bytes(magic)!r}, expected {WIRE_MAGIC!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version}, this reader speaks {WIRE_VERSION}"
        )
    if flags & ~_KNOWN_FLAGS:
        raise WireFormatError(f"unknown header flags {flags:#06x}")
    if n >= _MAX_DIMENSION or m >= _MAX_DIMENSION:
        raise WireFormatError(f"implausible geometry: n={n}, m={m}")
    if mask_bytes != (n + 7) // 8:
        raise WireFormatError(
            f"mask width {mask_bytes} disagrees with {n} atoms "
            f"(expected {(n + 7) // 8})"
        )
    if not flags & FLAG_LABELS and label_bytes:
        raise WireFormatError("label bytes declared but label flag unset")
    if not flags & FLAG_NAMES and name_bytes:
        raise WireFormatError("name bytes declared but name flag unset")
    expected = HEADER.size + m * mask_bytes + label_bytes + name_bytes
    if len(view) < expected:
        raise WireFormatError(
            f"truncated payload: {len(view)} bytes, header declares {expected}"
        )
    if exact and len(view) > expected:
        raise WireFormatError(
            f"{len(view) - expected} trailing bytes after the declared payload"
        )

    universe = (1 << n) - 1
    masks = []
    offset = HEADER.size
    for j in range(m):
        mask = mask_from_bytes(view[offset : offset + mask_bytes])
        if mask & ~universe:
            raise WireFormatError(
                f"column {j} mask references atom indices outside 0..{n - 1}"
            )
        masks.append(mask)
        offset += mask_bytes

    if flags & FLAG_LABELS:
        atoms = _load_blob(bytes(view[offset : offset + label_bytes]), "label", n)
    else:
        atoms = tuple(range(n))
    offset += label_bytes
    names: tuple[str, ...] | None = None
    if flags & FLAG_NAMES:
        names = _load_blob(bytes(view[offset : offset + name_bytes]), "name", m)
        if not all(isinstance(name, str) for name in names):
            raise WireFormatError("name table contains non-string entries")
    return atoms, tuple(masks), names


# ---------------------------------------------------------------------- #
# bundles: many tasks per segment
# ---------------------------------------------------------------------- #
#: magic bytes opening a bundle frame ("C1P bundle").
BUNDLE_MAGIC = b"C1PB"

#: the bundle header: magic, version, reserved flags, entry count.
BUNDLE_HEADER = struct.Struct("<4sHHI")
#: one per entry: a task-kind byte plus the entry's payload length.
ENTRY_HEADER = struct.Struct("<BI")

_MAX_BUNDLE_ENTRIES = 1 << 24


def bundle_size(payload_lengths: Sequence[int]) -> int:
    """Exact bundle frame size for entries of the given payload lengths."""
    return (
        BUNDLE_HEADER.size
        + len(payload_lengths) * ENTRY_HEADER.size
        + sum(payload_lengths)
    )


def pack_bundle(entries: Sequence[tuple[int, bytes]]) -> bytes:
    """Pack ``(kind, payload)`` entries into one contiguous bundle frame.

    Bundling is how the pool amortizes per-message dispatch cost over many
    small instances, exactly like ``chunksize`` on an executor ``map``: one
    segment, one queue message, one wake-up for a whole chunk of tasks.
    ``kind`` is an application byte (the pool uses it to name the task:
    a solve, or a delta op); payloads are :func:`pack_ensemble` frames.
    """
    parts = [BUNDLE_HEADER.pack(BUNDLE_MAGIC, WIRE_VERSION, 0, len(entries))]
    bodies = []
    for kind, payload in entries:
        if not 0 <= kind <= 0xFF:
            raise WireFormatError(f"bundle entry kind {kind} out of range 0..255")
        parts.append(ENTRY_HEADER.pack(kind, len(payload)))
        bodies.append(payload)
    return b"".join(parts + bodies)


def unpack_bundle(
    buffer: bytes | bytearray | memoryview,
) -> list[tuple[int, memoryview]]:
    """Decode a bundle frame into ``(kind, payload_view)`` entries.

    Payloads are returned as zero-copy views into ``buffer`` (decode each
    with :func:`unpack_ensemble`).  Structural inconsistencies raise
    :class:`~repro.errors.WireFormatError`; trailing slack after the last
    payload is tolerated (segments are page-granular).
    """
    view = memoryview(buffer)
    if len(view) < BUNDLE_HEADER.size:
        raise WireFormatError(
            f"truncated bundle header: {len(view)} bytes, need {BUNDLE_HEADER.size}"
        )
    magic, version, flags, count = BUNDLE_HEADER.unpack_from(view, 0)
    if magic != BUNDLE_MAGIC:
        raise WireFormatError(
            f"bad bundle magic {bytes(magic)!r}, expected {BUNDLE_MAGIC!r}"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version}, this reader speaks {WIRE_VERSION}"
        )
    if flags:
        raise WireFormatError(f"unknown bundle flags {flags:#06x}")
    if count >= _MAX_BUNDLE_ENTRIES:
        raise WireFormatError(f"implausible bundle entry count {count}")
    table_end = BUNDLE_HEADER.size + count * ENTRY_HEADER.size
    if len(view) < table_end:
        raise WireFormatError(
            f"truncated bundle entry table: {len(view)} bytes, need {table_end}"
        )
    entries: list[tuple[int, int]] = [
        ENTRY_HEADER.unpack_from(view, BUNDLE_HEADER.size + i * ENTRY_HEADER.size)
        for i in range(count)
    ]
    offset = table_end
    out: list[tuple[int, memoryview]] = []
    for kind, length in entries:
        if len(view) < offset + length:
            raise WireFormatError(
                f"truncated bundle payload: {len(view)} bytes, "
                f"need {offset + length}"
            )
        out.append((kind, view[offset : offset + length]))
        offset += length
    return out


# ---------------------------------------------------------------------- #
# shared-memory plumbing
# ---------------------------------------------------------------------- #
def create_segment(payload: bytes) -> shared_memory.SharedMemory:
    """Create a shared-memory segment holding ``payload``.

    The caller owns the segment: ``close()`` and ``unlink()`` it once the
    consuming worker has reported back.  Segments are at least one byte
    (the stdlib rejects zero-size segments).
    """
    segment = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    try:
        segment.buf[: len(payload)] = payload
    except BaseException:
        # Nothing else knows this segment's name yet: failing to unlink
        # here would leak it until process exit (the PR-4 leak class).
        segment.close()
        segment.unlink()
        raise
    return segment


def ensure_shared_tracker() -> None:
    """Start the resource tracker *before* any pool worker exists.

    On CPython <= 3.12, ``SharedMemory(name=...)`` re-registers the segment
    with the attaching process's resource tracker (bpo-39959).  If a worker
    starts its own tracker lazily, that tracker ends up blaming the worker
    for "leaking" every segment the parent later unlinks.  Starting the
    tracker in the pool's parent first means every worker (forked or
    spawned) inherits the *same* tracker, whose name cache is a set — the
    duplicate attach-side registration then deduplicates harmlessly and the
    parent's ``unlink`` retires the name exactly once.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platform without a tracker  # repro: lint-ok[exception-contract]
        pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach a named segment for reading; the creator keeps ownership."""
    return shared_memory.SharedMemory(name=name)
