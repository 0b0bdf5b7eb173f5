"""The binary replay-log container: varint/zigzag packed, zlib compressed.

``pack_log`` (see :mod:`.compression`) has always produced a compact
varint stream for *size accounting*, but it is lossy — it drops load
values' provenance, syscall names, static ids, the pc footprint and the
embedded program, so a packed log could not be replayed.  This module is
the lossless sibling: a **complete** binary encoding of a
:class:`ReplayLog`, carrying everything the JSON serialization carries,
behind a versioned magic header.

Container layout::

    offset 0   4 bytes   MAGIC  = b"RPRB"   (\"repro replay binary\")
    offset 4   1 byte    format version (currently 2; v1 still decodes)
    offset 5   ...       zlib-compressed body

The body is a single varint record stream (LEB128 unsigned varints;
signed fields zigzag-mapped; strings length-prefixed UTF-8).  Steps,
addresses and timestamps are delta-encoded within their record groups —
the same technique ``pack_log`` uses, so the compressed container lands
within a few percent of the accounting-only stream while remaining fully
invertible.  Suite runs that persist logs stop paying JSON encode/decode
and store roughly 5-10x fewer bytes.

Version 2 adds **predicted-load value elision** on top: each load record's
step delta carries a low-order *predicted* bit, and when it is set the
value field is omitted entirely — the decoder reconstructs it from a
per-thread, per-address last-logged-value predictor whose state the
encoder maintains identically.  This is the serialization-side analog of
the recorder's load-based checkpointing: values the reader can already
predict never hit the wire.  Elision is a binary-only feature; the JSON
document always spells every value out.

Version 3 adds an optional **captured-columns section** after the thread
records: the recorder's full per-thread access columns (step/flag/
address/value/static-id rows plus heap lifecycle rows), delta-encoded
like everything else.  A v3 log loaded from disk therefore still carries
``ReplayLog.captured``, so the ordered replay and the access index feed
straight off the recorded arrays with no re-interpretation — the same
handoff fresh recordings get.  ``encode_log(..., include_captured=False)``
omits the section (the suite cache does this: cache hits deliberately
exercise the replay-derived fallback).

``save_log``/``load_log`` in :mod:`.serialization` route through this
module: saving is binary-first (JSON retained for ``.json`` paths and old
fixtures) and loading sniffs the magic bytes.

**Sectioned reading.**  The body is a record stream, not an offset table,
but every section is length-prefixed by its record count, so a reader
that knows the shapes can *seek past* sections it does not need by
skipping varints instead of decoding them.  The decoder is therefore
split into per-section readers (``_read_loads``/``_read_syscalls``/
``_read_sequencers``/…) with skip-siblings (``_skip_loads``/…):
:func:`decode_log` composes the readers into a full :class:`ReplayLog`,
while :func:`decode_log_sections` composes readers for the sequencer and
captured-columns sections with skips for everything else — the
zero-replay detect path's entry point.  Skipping a varint is a byte scan
(no shifts, no object construction), and skipping the per-thread load
payload in particular never touches the v2 value predictor: the
predicted bit alone says whether a value field is present.

**One row decoder.**  Fixed-width rows (access, heap, global order,
footer) decode a block of varints at a time (:func:`_decode_varints`);
:func:`_read_access_rows` is the only access-row parser, and the full,
sectioned, per-segment and lean reads project it.  Truncated or
malformed input raises :class:`LogFormatError`.
"""

from __future__ import annotations

import io
import mmap
import os
import zlib
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from ..isa.program import StaticInstructionId
from .compression import decode_varint, encode_varint, unzigzag, zigzag
from .log import (
    CapturedAccessColumns,
    LoadRecord,
    ReplayLog,
    SequencerRecord,
    SyscallRecord,
    ThreadAccessColumns,
    ThreadEnd,
    ThreadLog,
)

#: First bytes of every binary replay log.
MAGIC = b"RPRB"
#: Current monolithic container format version (bumped on layout change).
BINARY_FORMAT_VERSION = 3
#: The segmented container (framed, independently decodable segments).
SEGMENTED_FORMAT_VERSION = 4
#: Every version this reader can decode.
SUPPORTED_VERSIONS = (1, 2, 3, 4)

#: Default estimated payload bytes per v4 segment before the writer seals
#: it.  The estimate counts uncompressed varint row costs, so on-disk
#: segments land well below this after zlib.
DEFAULT_SEGMENT_BYTES = 1 << 16

#: v4 section frame tags (each frame: ``uint tag, uint byte length,
#: zlib-compressed payload``).
_SECTION_HEADER = 1
_SECTION_SEGMENT = 2
_SECTION_TRAILER = 3
_SECTION_FOOTER = 4

#: Estimated uncompressed cost per row kind, used by the deterministic
#: segment cut rule (shared by the streaming writer and the re-encoder so
#: the same log always cuts at the same sequencers).
_SEQ_ROW_COST = 12
_ACCESS_ROW_COST = 6
_HEAP_ROW_COST = 5

#: zlib level: 6 is the historical "zip utility" analog used by
#: :func:`repro.record.compression.compression_stats`.
_COMPRESSION_LEVEL = 6

#: Every byte with the continuation bit set: deleting them from a run of
#: varint bytes leaves one byte per varint (its terminator).
_CONTINUATION_BYTES = bytes(range(0x80, 0x100))

#: Rows decoded per block by the row decoders: the transient flat varint
#: list and column slices stay bounded by this, whatever a section's row
#: count.
_ROW_BLOCK = 4096


class LogFormatError(ValueError):
    """A binary replay log that is truncated or malformed.

    ``offset`` is the byte offset where decoding failed — within the
    container for frame errors, within the decompressed section for
    payload errors — and ``segment`` the v4 segment ordinal, when known.
    ``version`` is the container's version byte when the header check
    rejected it, ``None`` otherwise (bad magic included).
    """

    def __init__(self, reason: str, offset=None, segment=None, version=None) -> None:
        self.reason = reason
        self.offset = offset
        self.segment = segment
        self.version = version
        message = "corrupt replay log: " + reason
        if offset is not None:
            message += " at byte offset %d" % offset
        if segment is not None:
            message += " in segment %d" % segment
        super().__init__(message)

    def in_segment(self, segment: int) -> "LogFormatError":
        """The same error, tagged with the segment it occurred in."""
        return LogFormatError(self.reason, self.offset, segment, self.version)


def _container_version(data) -> int:
    """Check a container's magic bytes and version byte; return the
    version.  Every binary reader starts here, so a foreign file, a cut
    header or a version this reader does not know is one
    :class:`LogFormatError`."""
    if not data.startswith(MAGIC):
        raise LogFormatError("not a binary replay log (bad magic bytes)", 0)
    if len(data) <= len(MAGIC):
        raise LogFormatError("truncated container header", len(data))
    version = data[len(MAGIC)]
    if version not in SUPPORTED_VERSIONS:
        raise LogFormatError(
            "unsupported binary replay-log format version: %d" % version,
            len(MAGIC),
            version=version,
        )
    return version


def _varints_end(data: bytes, offset: int, count: int) -> int:
    """Offset just past the ``count`` varints starting at ``offset``.

    ``count`` varints span at least ``count`` bytes: take that many,
    count their terminators in C (the bytes left after deleting
    continuation bytes) and extend by the shortfall until none is left.
    Seeking past a large section costs microseconds, not a Python loop
    per byte.
    """
    end = offset
    while count:
        stop = end + count
        if stop > len(data):
            raise LogFormatError(
                "varints run past the end of a %d-byte section" % len(data), end
            )
        count -= len(data[end:stop].translate(None, _CONTINUATION_BYTES))
        end = stop
    return end


def _decode_varints(data: bytes, offset: int, count: int) -> Tuple[list, int]:
    """Decode ``count`` consecutive varints; returns ``(values, end)``.

    The block decoder under every row read.  The block's end comes from
    :func:`_varints_end`; a block whose bytes are all below ``0x80``
    holds only single-byte varints, so its values are its bytes.  Any
    other block takes one pass over its bytes.
    """
    end = _varints_end(data, offset, count)
    raw = data[offset:end]
    if raw.isascii():
        return list(raw), end
    values: List[int] = []
    append = values.append
    value = 0
    shift = 0
    for byte in raw:
        if byte < 0x80:
            if shift:
                append(value | (byte << shift))
                value = shift = 0
            else:
                append(byte)
        else:
            value |= (byte & 0x7F) << shift
            shift += 7
    return values, end


def _inflate(payload: bytes, segment: Optional[int] = None) -> bytes:
    """Decompress one zlib-framed section; a bad stream is a format error."""
    try:
        return zlib.decompress(payload)
    except zlib.error as error:
        reason = "undecompressable section (%s)" % error
        raise LogFormatError(reason, None, segment) from None


class _Writer:
    """Varint record-stream writer."""

    __slots__ = ("out",)

    def __init__(self) -> None:
        self.out = bytearray()

    def uint(self, value: int) -> None:
        self.out += encode_varint(value)

    def sint(self, value: int) -> None:
        self.out += encode_varint(zigzag(value))

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.uint(len(raw))
        self.out += raw

    def flag(self, value: bool) -> None:
        self.uint(1 if value else 0)


class _Reader:
    """Varint record-stream reader (mirrors :class:`_Writer` exactly).

    Running off the end of the data raises :class:`LogFormatError`.
    """

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def uint(self) -> int:
        try:
            value, self.offset = decode_varint(self.data, self.offset)
        except IndexError:
            raise LogFormatError("truncated varint", self.offset) from None
        return value

    def uints(self, count: int) -> List[int]:
        """Decode ``count`` consecutive unsigned varints in one block."""
        values, self.offset = _decode_varints(self.data, self.offset, count)
        return values

    def sint(self) -> int:
        return unzigzag(self.uint())

    def text(self) -> str:
        length = self.uint()
        start = self.offset
        raw = self.data[start : start + length]
        if len(raw) != length:
            raise LogFormatError("truncated string", start)
        self.offset = start + length
        return raw.decode("utf-8")

    def flag(self) -> bool:
        return bool(self.uint())

    # -- seek-past primitives (the sectioned reader's skip side) -------

    def skip_uints(self, count: int) -> None:
        """Advance past ``count`` varints without decoding them.  Signed
        (zigzag) fields occupy exactly one varint, so this skips them
        too."""
        self.offset = _varints_end(self.data, self.offset, count)

    def skip_text(self) -> None:
        """Advance past one length-prefixed string without decoding it."""
        length = self.uint()
        if self.offset + length > len(self.data):
            raise LogFormatError("truncated string", self.offset)
        self.offset += length


# ----------------------------------------------------------------------
# Encoding.
# ----------------------------------------------------------------------


def _write_static_id(writer: _Writer, static_id: Optional[StaticInstructionId]) -> None:
    writer.flag(static_id is not None)
    if static_id is not None:
        writer.text(static_id.block)
        writer.uint(static_id.index)


def _write_loads(
    writer: _Writer, log: ThreadLog, version: int, elide_predicted: bool
) -> int:
    """Write the load-record section; returns the number of values elided."""
    elided = 0
    writer.uint(len(log.loads))
    previous_step = 0
    previous_address = 0
    #: address -> last value written to the stream for it (v2 predictor).
    predictor: dict = {}
    for step in sorted(log.loads):
        record = log.loads[step]
        step_delta = step - previous_step
        if version >= 2:
            predicted = (
                elide_predicted and predictor.get(record.address) == record.value
            )
            writer.uint(step_delta * 2 + (1 if predicted else 0))
            writer.sint(record.address - previous_address)
            if predicted:
                elided += 1
            else:
                writer.uint(record.value)
            predictor[record.address] = record.value
        else:
            writer.uint(step_delta)
            writer.sint(record.address - previous_address)
            writer.uint(record.value)
        previous_step = step
        previous_address = record.address
    return elided


def _write_syscalls(writer: _Writer, log: ThreadLog) -> None:
    writer.uint(len(log.syscalls))
    previous_step = 0
    for step in sorted(log.syscalls):
        record = log.syscalls[step]
        writer.uint(step - previous_step)
        writer.text(record.name)
        writer.sint(record.result)
        previous_step = step


def _write_footprint(writer: _Writer, log: ThreadLog) -> None:
    footprint = sorted(log.pc_footprint)
    writer.uint(len(footprint))
    previous_pc = 0
    for pc in footprint:
        writer.uint(pc - previous_pc)
        previous_pc = pc


def _write_end(writer: _Writer, log: ThreadLog) -> None:
    writer.flag(log.end is not None)
    if log.end is not None:
        writer.sint(log.end.thread_step)
        writer.text(log.end.reason)
        writer.flag(log.end.fault_kind is not None)
        if log.end.fault_kind is not None:
            writer.text(log.end.fault_kind)


def _write_thread(
    writer: _Writer, log: ThreadLog, version: int, elide_predicted: bool
) -> int:
    """Write one thread; returns the number of load values elided."""
    writer.text(log.name)
    writer.uint(log.tid)
    writer.text(log.block)
    writer.uint(len(log.initial_registers))
    for value in log.initial_registers:
        writer.uint(value)

    elided = _write_loads(writer, log, version, elide_predicted)
    _write_syscalls(writer, log)

    writer.uint(len(log.sequencers))
    previous_step = 0
    previous_timestamp = 0
    for sequencer in log.sequencers:
        writer.sint(sequencer.thread_step - previous_step)
        writer.sint(sequencer.timestamp - previous_timestamp)
        writer.text(sequencer.kind)
        _write_static_id(writer, sequencer.static_id)
        previous_step = sequencer.thread_step
        previous_timestamp = sequencer.timestamp

    _write_footprint(writer, log)
    writer.uint(log.steps)
    _write_end(writer, log)
    return elided


def _write_captured(writer: _Writer, captured: CapturedAccessColumns) -> None:
    """Write the v3 captured-columns section.

    Access rows are delta-encoded on step (non-decreasing by
    construction) and address; the static id stores only the instruction
    *index* — every access of a thread belongs to that thread's own
    block, so the decoder rebinds the block name from the thread record.
    """
    writer.uint(captured.predicted_loads)
    writer.uint(len(captured.threads))
    for name, columns in captured.threads.items():
        writer.text(name)
        steps = columns.steps
        addresses = columns.addresses
        values = columns.values
        flags = columns.flags
        static_ids = columns.static_ids
        writer.uint(len(steps))
        previous_step = 0
        previous_address = 0
        for row in range(len(steps)):
            step = steps[row]
            address = addresses[row]
            writer.uint(step - previous_step)
            writer.uint(flags[row])
            writer.sint(address - previous_address)
            writer.uint(values[row])
            writer.uint(static_ids[row].index)
            previous_step = step
            previous_address = address
        writer.uint(len(columns.heap_steps))
        previous_step = 0
        for row in range(len(columns.heap_steps)):
            step = columns.heap_steps[row]
            writer.uint(step - previous_step)
            writer.uint(0 if columns.heap_kinds[row] == "alloc" else 1)
            writer.uint(columns.heap_bases[row])
            writer.uint(columns.heap_sizes[row])
            previous_step = step


def encode_log(
    log: ReplayLog,
    version: int = BINARY_FORMAT_VERSION,
    elide_predicted_loads: bool = True,
    stats: Optional[dict] = None,
    include_captured: bool = True,
) -> bytes:
    """Serialize ``log`` into the versioned binary container.

    ``version`` selects the container layout (v1/v2 kept for
    compatibility fixtures); ``elide_predicted_loads`` toggles the v2+
    value elision (ignored for v1).  ``include_captured`` controls the v3
    captured-columns section (ignored below v3; the suite cache disables
    it so cache hits keep exercising the replay-derived fallback).  When
    ``stats`` is given, ``stats["elided_load_values"]`` receives the
    number of load values the predictor kept off the wire.
    """
    if version not in SUPPORTED_VERSIONS:
        raise ValueError("unsupported binary replay-log format version: %d" % version)
    if version >= SEGMENTED_FORMAT_VERSION:
        return encode_log_segmented(
            log,
            elide_predicted_loads=elide_predicted_loads,
            stats=stats,
            include_captured=include_captured,
        )
    writer = _Writer()
    writer.text(log.program_name)
    writer.text(log.program_source)
    writer.sint(log.seed)
    writer.text(log.scheduler)
    writer.flag(log.global_order is not None)
    if log.global_order is not None:
        writer.uint(len(log.global_order))
        for tid, step in log.global_order:
            writer.uint(tid)
            writer.sint(step)
    writer.uint(len(log.threads))
    elided = 0
    for thread in log.threads.values():
        elided += _write_thread(writer, thread, version, elide_predicted_loads)
    if version >= 3:
        has_captured = include_captured and log.captured is not None
        writer.flag(has_captured)
        if has_captured:
            _write_captured(writer, log.captured)
    if stats is not None:
        stats["elided_load_values"] = elided
    body = zlib.compress(bytes(writer.out), _COMPRESSION_LEVEL)
    return MAGIC + bytes([version]) + body


# ----------------------------------------------------------------------
# Decoding.
# ----------------------------------------------------------------------


def _row_blocks(reader: _Reader, width: int) -> Iterator[List[int]]:
    """Yield one count-prefixed section of ``width``-varint rows as flat
    varint lists of at most :data:`_ROW_BLOCK` rows each."""
    remaining = reader.uint()
    while remaining:
        rows = min(remaining, _ROW_BLOCK)
        yield reader.uints(rows * width)
        remaining -= rows


def _read_access_rows(
    reader: _Reader, block: str, interned: Dict[int, StaticInstructionId]
) -> Iterator[Tuple[list, list, list, list, list]]:
    """The one access-row decoder: every captured-row read projects it.

    Each row is five varints — step delta, flag, zigzag address delta,
    value, static-id index — with step and address delta bases running
    across the whole section.  Yields ``(steps, flags, addresses, values,
    static_ids)`` column blocks.  The block decoder does the varints and
    stride slices split the columns, so no Python code runs per varint.
    Static ids are interned in ``interned`` (index → id, one object per
    distinct index of ``block``): loops revisit the same instructions,
    and equality is by value, so identity is irrelevant downstream.
    """
    step = 0
    address = 0
    for flat in _row_blocks(reader, 5):
        deltas = flat[0::5]
        deltas[0] += step
        steps = list(accumulate(deltas))
        step = steps[-1]
        moves = [(raw >> 1) ^ -(raw & 1) for raw in flat[2::5]]
        moves[0] += address
        addresses = list(accumulate(moves))
        address = addresses[-1]
        indices = flat[4::5]
        for index in set(indices).difference(interned):
            interned[index] = StaticInstructionId(block=block, index=index)
        static_ids = list(map(interned.__getitem__, indices))
        yield steps, flat[1::5], addresses, flat[3::5], static_ids


#: A column carrier's access columns, in the order the row decoder yields them.
_access_columns = attrgetter("steps", "flags", "addresses", "values", "static_ids")


def _extend_access_columns(
    columns, reader: _Reader, block: str, interned: Dict[int, StaticInstructionId]
) -> None:
    """Append one access-row section to any column carrier exposing
    ``steps``/``flags``/``addresses``/``values``/``static_ids``.

    ``array`` columns take each block through ``fromlist``, which
    resizes once per block: ``extend`` from a list resizes once per
    item, and reallocating a large array that often fragments the heap.
    """
    appends = [
        column.fromlist if isinstance(column, array) else column.extend
        for column in _access_columns(columns)
    ]
    for columns_block in _read_access_rows(reader, block, interned):
        for append, values in zip(appends, columns_block):
            append(values)


def _read_heap_rows(reader: _Reader) -> Iterator[Tuple[list, list, list, list]]:
    """Yield ``(steps, kinds, bases, sizes)`` blocks of one heap-row
    section (step delta, kind 0=alloc, base, size per row)."""
    step = 0
    for flat in _row_blocks(reader, 4):
        deltas = flat[0::4]
        deltas[0] += step
        steps = list(accumulate(deltas))
        step = steps[-1]
        yield steps, flat[1::4], flat[2::4], flat[3::4]


def _extend_heap_columns(columns: ThreadAccessColumns, reader: _Reader) -> None:
    """Append one heap-row section to ``columns``' ``heap_*`` lists."""
    for steps, kinds, bases, sizes in _read_heap_rows(reader):
        columns.heap_steps.extend(steps)
        columns.heap_kinds.extend(["alloc" if kind == 0 else "free" for kind in kinds])
        columns.heap_bases.extend(bases)
        columns.heap_sizes.extend(sizes)


def _read_global_order(reader: _Reader) -> List[Tuple[int, int]]:
    """Decode the global order's ``(tid, zigzag step)`` pairs."""
    order: List[Tuple[int, int]] = []
    for flat in _row_blocks(reader, 2):
        order.extend(zip(flat[0::2], [(raw >> 1) ^ -(raw & 1) for raw in flat[1::2]]))
    return order


def _read_static_id(reader: _Reader) -> Optional[StaticInstructionId]:
    if not reader.flag():
        return None
    block = reader.text()
    index = reader.uint()
    return StaticInstructionId(block=block, index=index)


def _read_loads(reader: _Reader, version: int, log: ThreadLog) -> None:
    """Decode the load-record section into ``log.loads`` (predictor replay)."""
    step = 0
    address = 0
    predictor: dict = {}
    for _ in range(reader.uint()):
        if version >= 2:
            packed = reader.uint()
            step += packed >> 1
            address += reader.sint()
            if packed & 1:
                try:
                    value = predictor[address]
                except KeyError:
                    raise LogFormatError(
                        "predicted load with no prior value for address %#x"
                        % address,
                        reader.offset,
                    ) from None
            else:
                value = reader.uint()
            predictor[address] = value
        else:
            step += reader.uint()
            address += reader.sint()
            value = reader.uint()
        log.loads[step] = LoadRecord(thread_step=step, address=address, value=value)


def _skip_loads(reader: _Reader, version: int) -> int:
    """Seek past the load-record section; returns the record count.

    Never touches the v2 value predictor: the packed step delta's low
    bit alone says whether a value field follows, so elided loads cost
    two varint skips and logged ones three.
    """
    count = reader.uint()
    if version >= 2:
        for _ in range(count):
            packed = reader.uint()
            # address delta, then the value unless the predicted bit is set.
            reader.skip_uints(1 if packed & 1 else 2)
    else:
        reader.skip_uints(3 * count)
    return count


def _read_syscalls(reader: _Reader, log: ThreadLog) -> None:
    step = 0
    for _ in range(reader.uint()):
        step += reader.uint()
        syscall_name = reader.text()
        result = reader.sint()
        log.syscalls[step] = SyscallRecord(
            thread_step=step, name=syscall_name, result=result
        )


def _skip_syscalls(reader: _Reader) -> int:
    count = reader.uint()
    for _ in range(count):
        reader.skip_uints(1)  # step delta
        reader.skip_text()  # syscall name
        reader.skip_uints(1)  # result
    return count


def _read_sequencers(reader: _Reader) -> List[SequencerRecord]:
    """Decode the sequencer section — the happens-before skeleton every
    analysis needs, so it has no skip sibling.

    Loops emit the same sequencer site over and over, so kind strings
    and static ids are interned per section: one object per distinct
    site instead of one per record (they are value-equal either way).
    """
    sequencers: List[SequencerRecord] = []
    append = sequencers.append
    step = 0
    timestamp = 0
    kinds: Dict[str, str] = {}
    interned: Dict[Tuple[str, int], StaticInstructionId] = {}
    for _ in range(reader.uint()):
        step += reader.sint()
        timestamp += reader.sint()
        kind = reader.text()
        kind = kinds.setdefault(kind, kind)
        if reader.uint():
            block = reader.text()
            index = reader.uint()
            static_id = interned.get((block, index))
            if static_id is None:
                static_id = interned[(block, index)] = StaticInstructionId(
                    block=block, index=index
                )
        else:
            static_id = None
        append(
            SequencerRecord(
                thread_step=step,
                timestamp=timestamp,
                kind=kind,
                static_id=static_id,
            )
        )
    return sequencers


def _read_footprint(reader: _Reader) -> set:
    return set(accumulate(reader.uints(reader.uint())))


def _skip_footprint(reader: _Reader) -> None:
    reader.skip_uints(reader.uint())


def _read_end(reader: _Reader) -> Optional[ThreadEnd]:
    if not reader.flag():
        return None
    end_step = reader.sint()
    reason = reader.text()
    fault_kind = reader.text() if reader.flag() else None
    return ThreadEnd(thread_step=end_step, reason=reason, fault_kind=fault_kind)


def _skip_end(reader: _Reader) -> None:
    if reader.flag():
        reader.skip_uints(1)  # end step
        reader.skip_text()  # reason
        if reader.flag():
            reader.skip_text()  # fault kind


def _read_thread(reader: _Reader, version: int) -> ThreadLog:
    name = reader.text()
    tid = reader.uint()
    block = reader.text()
    registers = tuple(reader.uints(reader.uint()))
    log = ThreadLog(name=name, tid=tid, block=block, initial_registers=registers)
    _read_loads(reader, version, log)
    _read_syscalls(reader, log)
    log.sequencers.extend(_read_sequencers(reader))
    log.pc_footprint = _read_footprint(reader)
    log.steps = reader.uint()
    log.end = _read_end(reader)
    return log


def _read_captured(reader: _Reader, threads: dict) -> CapturedAccessColumns:
    """Read the v3 captured-columns section (inverse of ``_write_captured``)."""
    captured = CapturedAccessColumns(predicted_loads=reader.uint())
    for _ in range(reader.uint()):
        name = reader.text()
        columns = ThreadAccessColumns()
        _extend_access_columns(columns, reader, threads[name].block, {})
        _extend_heap_columns(columns, reader)
        captured.threads[name] = columns
    return captured


def decode_log(data: bytes) -> ReplayLog:
    """Rebuild a :class:`ReplayLog` from :func:`encode_log` output."""
    version = _container_version(data)
    if version >= SEGMENTED_FORMAT_VERSION:
        return _decode_log_segmented(data)
    reader = _Reader(_inflate(data[len(MAGIC) + 1 :]))
    program_name = reader.text()
    program_source = reader.text()
    seed = reader.sint()
    scheduler = reader.text()
    global_order = _read_global_order(reader) if reader.flag() else None
    threads = {}
    for _ in range(reader.uint()):
        thread = _read_thread(reader, version)
        threads[thread.name] = thread
    captured: Optional[CapturedAccessColumns] = None
    if version >= 3 and reader.flag():
        captured = _read_captured(reader, threads)
    return ReplayLog(
        program_name=program_name,
        program_source=program_source,
        threads=threads,
        seed=seed,
        scheduler=scheduler,
        global_order=global_order,
        captured=captured,
    )


def is_binary_log(data: bytes) -> bool:
    """True when ``data`` carries the binary container's magic bytes."""
    return data.startswith(MAGIC)


# ----------------------------------------------------------------------
# Sectioned decoding: the zero-replay detect path's carrier types.
# ----------------------------------------------------------------------


@dataclass
class ThreadSectionView:
    """One thread's detect-relevant sections, nothing else decoded.

    Carries exactly what region construction needs —
    :func:`repro.replay.regions.regions_of_thread` duck-types on
    ``name``/``tid``/``sequencers``, and ``steps`` bounds the closing
    region.  Registers, loads, syscalls, the pc footprint and the end
    record were *skipped*, not decoded.
    """

    name: str
    tid: int
    block: str
    sequencers: List[SequencerRecord] = field(default_factory=list)
    steps: int = 0


@dataclass
class CapturedColumnView:
    """One thread's captured access rows as packed parallel columns.

    The from-log :class:`~repro.analysis.access_index.AccessIndex`
    constructor consumes these directly: machine-word arrays for
    steps/addresses/values, a bytearray for flags, and interned
    :class:`StaticInstructionId` objects (indices repeat massively in
    loops).  Heap lifecycle rows are skipped — detection never reads
    them.
    """

    steps: array = field(default_factory=lambda: array("Q"))
    flags: bytearray = field(default_factory=bytearray)
    addresses: array = field(default_factory=lambda: array("Q"))
    values: array = field(default_factory=lambda: array("Q"))
    static_ids: List[StaticInstructionId] = field(default_factory=list)


@dataclass
class LogSections:
    """Header + sequencer + captured sections of one RPRB container.

    The product of :func:`decode_log_sections`: enough to build regions
    and the access index with zero replay, and ``program_source`` kept
    so callers that later need instruction text (classify, ``describe``)
    can assemble the program lazily.  ``captured`` is ``None`` when the
    log predates v3 or was encoded with ``include_captured=False`` —
    callers must fall back to the replay path then.
    """

    version: int
    program_name: str
    program_source: str
    seed: int
    scheduler: str
    threads: Dict[str, ThreadSectionView] = field(default_factory=dict)
    captured: Optional[Dict[str, CapturedColumnView]] = None


def _read_thread_sections(reader: _Reader, version: int) -> ThreadSectionView:
    """Decode one thread's identity + sequencers; seek past the rest."""
    name = reader.text()
    tid = reader.uint()
    block = reader.text()
    reader.skip_uints(reader.uint())  # initial registers
    _skip_loads(reader, version)
    _skip_syscalls(reader)
    view = ThreadSectionView(name=name, tid=tid, block=block)
    view.sequencers = _read_sequencers(reader)
    _skip_footprint(reader)
    view.steps = reader.uint()
    _skip_end(reader)
    return view


def _read_captured_view(
    reader: _Reader, threads: Dict[str, ThreadSectionView]
) -> Dict[str, CapturedColumnView]:
    """Decode captured access rows into packed columns; skip heap rows."""
    reader.skip_uints(1)  # predicted_loads counter — accounting only
    captured: Dict[str, CapturedColumnView] = {}
    for _ in range(reader.uint()):
        name = reader.text()
        view = captured[name] = CapturedColumnView()
        _extend_access_columns(view, reader, threads[name].block, {})
        reader.skip_uints(4 * reader.uint())  # heap lifecycle rows
    return captured


def decode_log_sections(data: bytes) -> LogSections:
    """Decode only the detect-relevant sections of a binary replay log.

    Reads the header, each thread's identity and sequencer records, and
    the v3 captured-columns section (when present) — and *seeks past*
    registers, load records, syscalls, pc footprints, end records, heap
    rows and the optional global order.  The wire format is unchanged;
    this is purely a cheaper reader over the same bytes.
    """
    version = _container_version(data)
    if version >= SEGMENTED_FORMAT_VERSION:
        return _decode_log_sections_segmented(data)
    reader = _Reader(_inflate(data[len(MAGIC) + 1 :]))
    program_name = reader.text()
    program_source = reader.text()
    seed = reader.sint()
    scheduler = reader.text()
    if reader.flag():
        reader.skip_uints(2 * reader.uint())  # global order (tid, step) pairs
    threads: Dict[str, ThreadSectionView] = {}
    for _ in range(reader.uint()):
        view = _read_thread_sections(reader, version)
        threads[view.name] = view
    captured: Optional[Dict[str, CapturedColumnView]] = None
    if version >= 3 and reader.flag():
        captured = _read_captured_view(reader, threads)
    return LogSections(
        version=version,
        program_name=program_name,
        program_source=program_source,
        seed=seed,
        scheduler=scheduler,
        threads=threads,
        captured=captured,
    )


# ----------------------------------------------------------------------
# v4: the segmented container.
# ----------------------------------------------------------------------
#
# Layout::
#
#     offset 0   4 bytes   MAGIC = b"RPRB"
#     offset 4   1 byte    version = 4
#     offset 5   ...       framed sections, each:
#                              uint tag, uint byte length, zlib payload
#
# Sections, in file order:
#
# * **header** (tag 1) — program identity (name, source, seed, scheduler)
#   plus the has-captured flag.  Written before the first event, so a
#   streaming recorder can open the file immediately.
# * **segment** (tag 2, repeated) — a bounded chunk of the trace: for each
#   thread appearing in the chunk, its sequencer rows plus the captured
#   access/heap rows *attached* to them.  A row with thread step ``s``
#   attaches to the first of its thread's sequencers with
#   ``thread_step >= s`` — so every sequencing region's accesses land in
#   the same segment as the region's closing sequencer, which is what lets
#   the streaming cursor finalize regions segment by segment.  All delta
#   bases restart per segment: each segment decodes on its own.
# * **trailer** (tag 3) — the replay residue: per-thread registers, load
#   records (v2 predictor elision), syscalls, pc footprints, step counts,
#   end records and any rows no sequencer claimed, plus the global order.
#   Detection never decompresses most of it (the sectioned reader seeks).
# * **footer** (tag 4) — the segment index: per segment its ordinal, byte
#   offset, framed length, row counts and timestamp range.
#
# Segments are cut by a deterministic rule — walk sequencers in global
# timestamp order, accumulate estimated row costs, seal at
# ``segment_bytes`` — shared by the streaming :class:`SegmentedLogWriter`
# and the in-memory re-encoder, so ``encode → decode → encode`` is
# byte-stable and the in-memory segmentation of a v3 log matches what a
# v4 file of the same trace would contain.


@dataclass
class SegmentedHeader:
    """Identity fields of a v4 container (the tag-1 section)."""

    version: int
    program_name: str
    program_source: str
    seed: int
    scheduler: str
    has_captured: bool


@dataclass
class SegmentThreadView:
    """One thread's rows within one segment."""

    name: str
    tid: int
    block: str
    sequencers: List[SequencerRecord] = field(default_factory=list)
    columns: CapturedColumnView = field(default_factory=CapturedColumnView)
    #: ``(step, kind, base, size)`` heap lifecycle rows (kind 0=alloc).
    heap_rows: List[Tuple[int, int, int, int]] = field(default_factory=list)


@dataclass
class LogSegmentView:
    """One decoded v4 segment: self-contained, delta bases restarted."""

    ordinal: int
    first_ts: int
    last_ts: int
    threads: Dict[str, SegmentThreadView] = field(default_factory=dict)


@dataclass
class SegmentIndexEntry:
    """One footer row: where a segment lives and what it holds."""

    ordinal: int
    offset: int
    length: int
    sequencer_rows: int
    access_rows: int
    first_ts: int
    last_ts: int


class _SegmentBuffer:
    """Per-thread accumulation for the segment currently being built."""

    __slots__ = ("name", "tid", "block", "sequencers", "access_rows", "heap_rows")

    def __init__(self, name: str, tid: int, block: str):
        self.name = name
        self.tid = tid
        self.block = block
        self.sequencers: List[SequencerRecord] = []
        #: ``(step, flag, address, value, static_id)`` — objects, not
        #: indices; the writer narrows to ``static_id.index`` on the wire.
        self.access_rows: list = []
        self.heap_rows: List[Tuple[int, int, int, int]] = []


class _SegmentAccumulator:
    """The deterministic cut rule, shared by every segment producer.

    ``add_sequencer`` appends one sequencer and its attached rows to the
    pending segment and seals it once the estimated row cost reaches
    ``segment_bytes``.  Subclasses implement ``_seal`` — to bytes
    (:class:`SegmentedLogWriter`) or to in-memory views
    (:class:`_SegmentViewCollector`).
    """

    def __init__(self, segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        self.segment_bytes = segment_bytes
        self._buffers: Dict[str, _SegmentBuffer] = {}
        self._cost = 0
        self._ordinal = 0

    @property
    def segments_sealed(self) -> int:
        return self._ordinal

    def add_sequencer(
        self,
        name: str,
        tid: int,
        block: str,
        sequencer: SequencerRecord,
        access_rows=(),
        heap_rows=(),
    ) -> None:
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = self._buffers[name] = _SegmentBuffer(name, tid, block)
        buffer.sequencers.append(sequencer)
        if access_rows:
            buffer.access_rows.extend(access_rows)
        if heap_rows:
            buffer.heap_rows.extend(heap_rows)
        self._cost += (
            _SEQ_ROW_COST
            + _ACCESS_ROW_COST * len(access_rows)
            + _HEAP_ROW_COST * len(heap_rows)
        )
        if self._cost >= self.segment_bytes:
            self.seal_segment()

    def seal_segment(self) -> None:
        """Seal the pending segment, if any rows accumulated."""
        if not self._buffers:
            return
        self._seal(self._ordinal, self._buffers)
        self._ordinal += 1
        self._buffers = {}
        self._cost = 0

    def _seal(self, ordinal: int, buffers: Dict[str, _SegmentBuffer]) -> None:
        raise NotImplementedError  # pragma: no cover - interface


def _segment_ts_range(buffers: Dict[str, _SegmentBuffer]) -> Tuple[int, int]:
    first_ts = min(b.sequencers[0].timestamp for b in buffers.values())
    last_ts = max(b.sequencers[-1].timestamp for b in buffers.values())
    return first_ts, last_ts


class SegmentedLogWriter(_SegmentAccumulator):
    """Incremental v4 writer: header up front, segments as they fill.

    Drives the deterministic cut rule over any source of
    timestamp-ordered sequencer events — the recorder streams into one of
    these while the machine is still running;
    :func:`encode_log_segmented` replays an in-memory log through the
    same code.  ``out`` is any binary file-like object.
    """

    def __init__(
        self,
        out,
        *,
        program_name: str,
        program_source: str,
        seed: int,
        scheduler: str,
        has_captured: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        elide_predicted_loads: bool = True,
    ):
        super().__init__(segment_bytes)
        self._out = out
        self._offset = 0
        self._elide = elide_predicted_loads
        self._index: List[SegmentIndexEntry] = []
        self._finished = False
        self.has_captured = has_captured
        self._write_raw(MAGIC + bytes([SEGMENTED_FORMAT_VERSION]))
        header = _Writer()
        header.text(program_name)
        header.text(program_source)
        header.sint(seed)
        header.text(scheduler)
        header.flag(has_captured)
        self._write_frame(_SECTION_HEADER, header.out)

    # -- framing --------------------------------------------------------

    def _write_raw(self, data: bytes) -> None:
        self._out.write(data)
        self._offset += len(data)

    def _write_frame(self, tag: int, payload) -> Tuple[int, int]:
        """Compress + frame one section; returns (offset, framed length)."""
        compressed = zlib.compress(bytes(payload), _COMPRESSION_LEVEL)
        head = _Writer()
        head.uint(tag)
        head.uint(len(compressed))
        start = self._offset
        self._write_raw(bytes(head.out))
        self._write_raw(compressed)
        return start, self._offset - start

    # -- segments -------------------------------------------------------

    def _seal(self, ordinal: int, buffers: Dict[str, _SegmentBuffer]) -> None:
        writer = _Writer()
        writer.uint(ordinal)
        first_ts, last_ts = _segment_ts_range(buffers)
        writer.uint(first_ts)
        writer.uint(last_ts)
        entries = sorted(buffers.values(), key=lambda buffer: buffer.tid)
        writer.uint(len(entries))
        sequencer_rows = 0
        access_rows = 0
        for buffer in entries:
            writer.text(buffer.name)
            writer.uint(buffer.tid)
            writer.text(buffer.block)
            writer.uint(len(buffer.sequencers))
            previous_step = 0
            previous_ts = 0
            for sequencer in buffer.sequencers:
                writer.sint(sequencer.thread_step - previous_step)
                writer.sint(sequencer.timestamp - previous_ts)
                writer.text(sequencer.kind)
                _write_static_id(writer, sequencer.static_id)
                previous_step = sequencer.thread_step
                previous_ts = sequencer.timestamp
            _write_access_rows(writer, buffer.access_rows)
            writer.uint(len(buffer.heap_rows))
            previous_step = 0
            for step, kind, base, size in buffer.heap_rows:
                writer.uint(step - previous_step)
                writer.uint(kind)
                writer.uint(base)
                writer.uint(size)
                previous_step = step
            sequencer_rows += len(buffer.sequencers)
            access_rows += len(buffer.access_rows)
        offset, length = self._write_frame(_SECTION_SEGMENT, writer.out)
        self._index.append(
            SegmentIndexEntry(
                ordinal=ordinal,
                offset=offset,
                length=length,
                sequencer_rows=sequencer_rows,
                access_rows=access_rows,
                first_ts=first_ts,
                last_ts=last_ts,
            )
        )

    # -- trailer + footer -----------------------------------------------

    def finish(
        self,
        threads: Dict[str, ThreadLog],
        global_order: Optional[List[Tuple[int, int]]] = None,
        predicted_loads: int = 0,
        residuals: Optional[Dict[str, Tuple[list, list]]] = None,
        stats: Optional[dict] = None,
    ) -> List[SegmentIndexEntry]:
        """Seal the pending segment and write the trailer + footer.

        ``residuals`` maps thread names to ``(access_rows, heap_rows)``
        no sequencer claimed (empty for any machine-produced trace, where
        the thread-end sequencer bounds every row).  Returns the segment
        index, which is also what the footer persists.
        """
        if self._finished:
            raise ValueError("segmented writer already finished")
        self.seal_segment()
        residuals = residuals or {}
        writer = _Writer()
        writer.flag(global_order is not None)
        if global_order is not None:
            writer.uint(len(global_order))
            for tid, step in global_order:
                writer.uint(tid)
                writer.sint(step)
        writer.uint(predicted_loads)
        writer.uint(len(threads))
        elided = 0
        for name, thread in threads.items():
            writer.text(name)
            writer.uint(thread.tid)
            writer.text(thread.block)
            writer.uint(len(thread.initial_registers))
            for value in thread.initial_registers:
                writer.uint(value)
            elided += _write_loads(
                writer, thread, SEGMENTED_FORMAT_VERSION, self._elide
            )
            _write_syscalls(writer, thread)
            _write_footprint(writer, thread)
            writer.uint(thread.steps)
            _write_end(writer, thread)
            access_rows, heap_rows = residuals.get(name, ((), ()))
            _write_access_rows(writer, access_rows)
            writer.uint(len(heap_rows))
            previous_step = 0
            for step, kind, base, size in heap_rows:
                writer.uint(step - previous_step)
                writer.uint(kind)
                writer.uint(base)
                writer.uint(size)
                previous_step = step
        if stats is not None:
            stats["elided_load_values"] = elided
        self._write_frame(_SECTION_TRAILER, writer.out)
        footer = _Writer()
        footer.uint(len(self._index))
        for entry in self._index:
            footer.uint(entry.ordinal)
            footer.uint(entry.offset)
            footer.uint(entry.length)
            footer.uint(entry.sequencer_rows)
            footer.uint(entry.access_rows)
            footer.uint(entry.first_ts)
            footer.uint(entry.last_ts)
        self._write_frame(_SECTION_FOOTER, footer.out)
        self._finished = True
        return list(self._index)


def _write_access_rows(writer: _Writer, rows) -> None:
    """Write ``(step, flag, address, value, static_id)`` rows, local bases."""
    writer.uint(len(rows))
    previous_step = 0
    previous_address = 0
    for step, flag, address, value, static_id in rows:
        writer.uint(step - previous_step)
        writer.uint(flag)
        writer.sint(address - previous_address)
        writer.uint(value)
        writer.uint(static_id.index)
        previous_step = step
        previous_address = address


class _SegmentViewCollector(_SegmentAccumulator):
    """Seal segments into :class:`LogSegmentView` objects (no bytes).

    The in-memory twin of :class:`SegmentedLogWriter`: v3 logs (and fresh
    recordings) stream through the same cut rule without an encode/decode
    round trip.
    """

    def __init__(self, segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        super().__init__(segment_bytes)
        self.views: List[LogSegmentView] = []

    def _seal(self, ordinal: int, buffers: Dict[str, _SegmentBuffer]) -> None:
        first_ts, last_ts = _segment_ts_range(buffers)
        threads: Dict[str, SegmentThreadView] = {}
        for buffer in sorted(buffers.values(), key=lambda buffer: buffer.tid):
            columns = CapturedColumnView()
            for step, flag, address, value, static_id in buffer.access_rows:
                columns.steps.append(step)
                columns.flags.append(flag)
                columns.addresses.append(address)
                columns.values.append(value)
                columns.static_ids.append(static_id)
            threads[buffer.name] = SegmentThreadView(
                name=buffer.name,
                tid=buffer.tid,
                block=buffer.block,
                sequencers=buffer.sequencers,
                columns=columns,
                heap_rows=buffer.heap_rows,
            )
        self.views.append(
            LogSegmentView(
                ordinal=ordinal,
                first_ts=first_ts,
                last_ts=last_ts,
                threads=threads,
            )
        )


class _SegmentPlanner:
    """Walk an in-memory log in global sequencer-timestamp order,
    attaching each thread's captured rows to their claiming sequencer."""

    def __init__(
        self,
        threads: Dict[str, ThreadLog],
        captured_threads: Optional[Dict[str, object]],
    ):
        self._threads = threads
        self._captured = captured_threads or {}
        self._row_at: Dict[str, int] = {}
        self._heap_at: Dict[str, int] = {}

    def walk(self) -> Iterator[tuple]:
        """Yield ``(name, tid, block, sequencer, access_rows, heap_rows)``
        in global timestamp order (ties broken by tid for determinism)."""
        entries = []
        for name, thread in self._threads.items():
            for sequencer in sorted(
                thread.sequencers, key=lambda record: record.timestamp
            ):
                entries.append((sequencer.timestamp, thread.tid, name, sequencer))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        for _, tid, name, sequencer in entries:
            thread = self._threads[name]
            yield (
                name,
                tid,
                thread.block,
                sequencer,
                self._attached_rows(name, sequencer.thread_step),
                self._attached_heap(name, sequencer.thread_step),
            )

    def _attached_rows(self, name: str, seq_step: int) -> list:
        columns = self._captured.get(name)
        if columns is None:
            return []
        steps = columns.steps
        position = self._row_at.get(name, 0)
        total = len(steps)
        if position >= total or steps[position] > seq_step:
            return []
        flags = columns.flags
        addresses = columns.addresses
        values = columns.values
        static_ids = columns.static_ids
        rows = []
        while position < total and steps[position] <= seq_step:
            rows.append(
                (
                    steps[position],
                    flags[position],
                    addresses[position],
                    values[position],
                    static_ids[position],
                )
            )
            position += 1
        self._row_at[name] = position
        return rows

    def _attached_heap(self, name: str, seq_step: int) -> list:
        columns = self._captured.get(name)
        if columns is None or not getattr(columns, "heap_steps", None):
            return []
        steps = columns.heap_steps
        position = self._heap_at.get(name, 0)
        total = len(steps)
        rows = []
        while position < total and steps[position] <= seq_step:
            rows.append(
                (
                    steps[position],
                    0 if columns.heap_kinds[position] == "alloc" else 1,
                    columns.heap_bases[position],
                    columns.heap_sizes[position],
                )
            )
            position += 1
        self._heap_at[name] = position
        return rows

    def residuals(self) -> Dict[str, Tuple[list, list]]:
        """Rows no sequencer claimed (synthetic logs only, in practice)."""
        leftover: Dict[str, Tuple[list, list]] = {}
        for name in self._threads:
            columns = self._captured.get(name)
            if columns is None:
                continue
            access_rows = []
            position = self._row_at.get(name, 0)
            for row in range(position, len(columns.steps)):
                access_rows.append(
                    (
                        columns.steps[row],
                        columns.flags[row],
                        columns.addresses[row],
                        columns.values[row],
                        columns.static_ids[row],
                    )
                )
            heap_rows = []
            position = self._heap_at.get(name, 0)
            for row in range(position, len(getattr(columns, "heap_steps", ()))):
                heap_rows.append(
                    (
                        columns.heap_steps[row],
                        0 if columns.heap_kinds[row] == "alloc" else 1,
                        columns.heap_bases[row],
                        columns.heap_sizes[row],
                    )
                )
            if access_rows or heap_rows:
                leftover[name] = (access_rows, heap_rows)
        return leftover


def encode_log_segmented(
    log: ReplayLog,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    elide_predicted_loads: bool = True,
    stats: Optional[dict] = None,
    include_captured: bool = True,
) -> bytes:
    """Serialize ``log`` into the v4 segmented container.

    Deterministic: the same log and ``segment_bytes`` always produce the
    same bytes (the property suite asserts encode → decode → encode
    byte-stability), because cuts depend only on the timestamp-ordered
    sequencer walk and the shared row-cost model.
    """
    out = io.BytesIO()
    has_captured = include_captured and log.captured is not None
    writer = SegmentedLogWriter(
        out,
        program_name=log.program_name,
        program_source=log.program_source,
        seed=log.seed,
        scheduler=log.scheduler,
        has_captured=has_captured,
        segment_bytes=segment_bytes,
        elide_predicted_loads=elide_predicted_loads,
    )
    planner = _SegmentPlanner(
        log.threads, log.captured.threads if has_captured else None
    )
    for name, tid, block, sequencer, access_rows, heap_rows in planner.walk():
        writer.add_sequencer(name, tid, block, sequencer, access_rows, heap_rows)
    writer.finish(
        threads=log.threads,
        global_order=log.global_order,
        predicted_loads=log.captured.predicted_loads if has_captured else 0,
        residuals=planner.residuals(),
        stats=stats,
    )
    return out.getvalue()


def segment_views_of_log(
    log: ReplayLog, segment_bytes: int = DEFAULT_SEGMENT_BYTES
) -> List[LogSegmentView]:
    """Segment an in-memory captured log with the v4 cut rule — no bytes.

    The streaming detect path for v3 logs and fresh recordings: the views
    are exactly what :func:`iter_segments` would yield over
    :func:`encode_log_segmented` output for the same ``segment_bytes``.
    Requires ``log.captured`` (there are no access rows to stream
    otherwise).
    """
    if log.captured is None:
        raise ValueError(
            "cannot segment a log without captured access columns: "
            "the streaming path needs a v3+ capture — re-record, or use "
            "the batch path"
        )
    return _collect_segment_views(log.threads, log.captured.threads, segment_bytes)


def segment_views_of_sections(
    sections: LogSections, segment_bytes: int = DEFAULT_SEGMENT_BYTES
) -> List[LogSegmentView]:
    """Segment a sectioned-reader result (:func:`decode_log_sections`).

    Lets the streaming detect path run over a monolithic v1–v3 container
    without a full decode: the sectioned reader already skipped the
    replay-only payload, and this re-chunks what it did read with the
    same cut rule a v4 file would have.  Requires the captured section
    (``sections.captured``).
    """
    if sections.captured is None:
        raise ValueError(
            "cannot segment a log without captured access columns: "
            "the streaming path needs a v3+ capture — re-record, or use "
            "the batch path"
        )
    return _collect_segment_views(
        sections.threads, sections.captured, segment_bytes
    )


def _collect_segment_views(
    threads, captured_threads, segment_bytes: int
) -> List[LogSegmentView]:
    collector = _SegmentViewCollector(segment_bytes)
    planner = _SegmentPlanner(threads, captured_threads)
    for name, tid, block, sequencer, access_rows, heap_rows in planner.walk():
        collector.add_sequencer(name, tid, block, sequencer, access_rows, heap_rows)
    collector.seal_segment()
    return collector.views


# -- v4 reading ---------------------------------------------------------


def is_segmented_log(data: bytes) -> bool:
    """True for a binary container at or above the segmented version."""
    return (
        data.startswith(MAGIC)
        and len(data) > len(MAGIC)
        and data[len(MAGIC)] >= SEGMENTED_FORMAT_VERSION
    )


def _frame_head(data, offset: int, ordinal=None) -> Tuple[int, int, int]:
    """Read the frame header at ``offset``: ``(tag, payload offset,
    payload end)``.  ``data`` is bytes or an mmap of the container;
    ``ordinal`` is the frame's segment ordinal if it is a segment frame
    (errors name it)."""
    start = offset
    try:
        tag, offset = decode_varint(data, offset)
        length, offset = decode_varint(data, offset)
    except IndexError:
        raise LogFormatError("truncated frame header", start) from None
    if offset + length > len(data):
        raise LogFormatError(
            "truncated frame (tag %d, %d payload bytes declared)" % (tag, length),
            start,
            ordinal if tag == _SECTION_SEGMENT else None,
        )
    return tag, offset, offset + length


def _iter_frames(data) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(tag, payload start, payload end)`` for each v4 section
    frame.  ``data`` is the container's bytes or an mmap of it; nothing
    is copied, so a caller slices out only the payloads it needs."""
    offset = len(MAGIC) + 1
    segments = 0
    while offset < len(data):
        tag, start, offset = _frame_head(data, offset, segments)
        if tag == _SECTION_SEGMENT:
            segments += 1
        yield tag, start, offset


def _require_segmented(data: bytes) -> int:
    version = _container_version(data)
    if version < SEGMENTED_FORMAT_VERSION:
        raise ValueError(
            "not a segmented replay log (container version %d predates v%d)"
            % (version, SEGMENTED_FORMAT_VERSION)
        )
    return version


def read_segmented_header(data: bytes) -> SegmentedHeader:
    """Decode only the header section of a v4 container."""
    version = _require_segmented(data)
    for tag, start, end in _iter_frames(data):
        if tag != _SECTION_HEADER:
            break
        reader = _Reader(_inflate(data[start:end]))
        return SegmentedHeader(
            version=version,
            program_name=reader.text(),
            program_source=reader.text(),
            seed=reader.sint(),
            scheduler=reader.text(),
            has_captured=reader.flag(),
        )
    raise LogFormatError("missing header section")


def _read_segment_payload(payload: bytes) -> LogSegmentView:
    """Decode one decompressed segment payload into a view."""
    reader = _Reader(payload)
    ordinal, first_ts, last_ts = reader.uints(3)
    threads: Dict[str, SegmentThreadView] = {}
    try:
        for _ in range(reader.uint()):
            name, tid, block = reader.text(), reader.uint(), reader.text()
            view = threads[name] = SegmentThreadView(
                name=name, tid=tid, block=block, sequencers=_read_sequencers(reader)
            )
            _extend_access_columns(view.columns, reader, block, {})
            for heap_block in _read_heap_rows(reader):
                view.heap_rows.extend(zip(*heap_block))
    except LogFormatError as error:
        raise error.in_segment(ordinal) from None
    return LogSegmentView(
        ordinal=ordinal, first_ts=first_ts, last_ts=last_ts, threads=threads
    )


def iter_segments(data: bytes) -> Iterator[LogSegmentView]:
    """Yield each segment of a v4 container, decompressed one at a time.

    This is the bounded-memory entry point: only one segment's rows are
    resident per step of the iteration (plus the compressed container
    itself, which the caller already holds).
    """
    _require_segmented(data)
    ordinal = 0
    for tag, start, end in _iter_frames(data):
        if tag == _SECTION_SEGMENT:
            yield _read_segment_payload(_inflate(data[start:end], ordinal))
            ordinal += 1


def _parse_segment_index(payload: bytes) -> List[SegmentIndexEntry]:
    """Decode a decompressed footer payload into its index entries."""
    return [
        SegmentIndexEntry(*flat[row : row + 7])
        for flat in _row_blocks(_Reader(payload), 7)
        for row in range(0, len(flat), 7)
    ]


def read_segment_index(data: bytes) -> List[SegmentIndexEntry]:
    """Decode the footer's segment index of a v4 container."""
    _require_segmented(data)
    footer: Optional[bytes] = None
    for tag, start, end in _iter_frames(data):
        if tag == _SECTION_FOOTER:
            footer = data[start:end]
    if footer is None:
        raise LogFormatError("missing footer section")
    return _parse_segment_index(_inflate(footer))


# -- mmap-backed zero-copy reading (the parallel detect path) -----------


class MappedSegmentedReader:
    """Random-access view of an on-disk v4 container, without the bytes.

    The file is mapped read-only and the constructor walks only the
    section *frame headers* — two varints per frame, hopping each frame
    by its encoded length — to locate the header and footer, so exactly
    two payloads (identity fields and the segment index) are ever
    decompressed up front.  Everything else stays on disk: a caller
    decompresses precisely the segment frames it owns via
    :meth:`segment_payload`, seeking straight to ``entry.offset`` from
    the footer index.  No process ever holds the whole container as a
    ``bytes`` object, which is what lets the parallel detect path fan a
    multi-gigabyte log across workers that each touch a slice of it.
    """

    __slots__ = ("path", "version", "header", "index", "_file", "_map")

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "rb")
        try:
            self._map = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (ValueError, OSError):
            self._file.close()
            raise
        try:
            self.version = _require_segmented(self._map[: len(MAGIC) + 1])
            header_payload, footer_payload = self._locate_sections()
            reader = _Reader(_inflate(header_payload))
            self.header = SegmentedHeader(
                version=self.version,
                program_name=reader.text(),
                program_source=reader.text(),
                seed=reader.sint(),
                scheduler=reader.text(),
                has_captured=reader.flag(),
            )
            self.index = _parse_segment_index(_inflate(footer_payload))
        except Exception:
            self.close()
            raise

    def _locate_sections(self) -> Tuple[bytes, bytes]:
        """Hop the frame chain; slice out only header and footer."""
        header: Optional[bytes] = None
        footer: Optional[bytes] = None
        for tag, start, end in _iter_frames(self._map):
            if tag == _SECTION_HEADER and header is None:
                header = self._map[start:end]
            elif tag == _SECTION_FOOTER:
                footer = self._map[start:end]
        if header is None:
            raise LogFormatError("missing header section")
        if footer is None:
            raise LogFormatError("missing footer section")
        return header, footer

    def segment_payload(self, entry: SegmentIndexEntry) -> bytes:
        """Decompress one segment's payload straight out of the mapping."""
        tag, start, end = _frame_head(self._map, entry.offset, entry.ordinal)
        if tag != _SECTION_SEGMENT:
            reason = "segment index entry %d points at a tag-%d frame"
            raise LogFormatError(reason % (entry.ordinal, tag), entry.offset)
        return _inflate(self._map[start:end], entry.ordinal)

    def segment_view(self, ordinal: int) -> LogSegmentView:
        """Fully decode one segment by ordinal (tests and tooling)."""
        return _read_segment_payload(self.segment_payload(self.index[ordinal]))

    def close(self) -> None:
        try:
            self._map.close()
        finally:
            self._file.close()

    def __enter__(self) -> "MappedSegmentedReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scan_segment_sequencers(payload: bytes) -> List[tuple]:
    """Prelude scan: per-thread sequencer totals, rows skipped.

    A partition worker catching up to its segment range only needs to
    know, per thread, *how many* sequencers came before the range and
    where the last one sits (that sequencer opens the thread's possibly
    still-active region at the cut).  This decodes exactly that — the
    sequencer step/timestamp deltas plus the final record's kind — and
    seeks past every access and heap row with the C-speed varint skip,
    so a prelude segment costs a small fraction of a full decode.

    Returns ``(name, tid, block, count, last_step, last_ts, last_kind)``
    per thread present in the segment.
    """
    reader = _Reader(payload)
    reader.skip_uints(3)  # ordinal, first_ts, last_ts
    threads: List[tuple] = []
    for _ in range(reader.uint()):
        name = reader.text()
        tid = reader.uint()
        block = reader.text()
        count = reader.uint()
        step = 0
        timestamp = 0
        kind = ""
        last = count - 1
        for position in range(count):
            step += reader.sint()
            timestamp += reader.sint()
            if position == last:
                kind = reader.text()
            else:
                reader.skip_text()
            if reader.uint():
                reader.skip_text()
                reader.skip_uints(1)
        reader.skip_uints(5 * reader.uint())  # access rows
        reader.skip_uints(4 * reader.uint())  # heap rows
        threads.append((name, tid, block, count, step, timestamp, kind))
    return threads


def read_segment_lean(
    payload: bytes,
    kinds: Dict[str, str],
    interned: Dict[str, Dict[int, StaticInstructionId]],
) -> Tuple[int, int, int, List[tuple]]:
    """Fused single-pass decode of one segment for a partition worker.

    Like :func:`_read_segment_payload` but shaped for the parallel
    sweep: sequencers come back as ``(thread_step, timestamp, kind)``
    tuples, access rows as ``(step, flag, address, value, static_id)``
    tuples — the exact row shape the region cursor hands the detector —
    heap rows are skipped (detection never reads them), and no
    column lists are built.  ``kinds``/``interned`` are caller-held
    interning maps (``interned`` maps block → index → static id) so kind
    strings and static ids stay shared across every segment a worker
    touches.

    Returns ``(ordinal, first_ts, last_ts, threads)`` with ``threads``
    as ``(name, tid, block, sequencers, rows)`` tuples.
    """
    reader = _Reader(payload)
    ordinal, first_ts, last_ts = reader.uints(3)
    threads: List[tuple] = []
    try:
        for _ in range(reader.uint()):
            name, tid, block = reader.text(), reader.uint(), reader.text()
            sequencers = []
            for record in _read_sequencers(reader):
                kind = kinds.setdefault(record.kind, record.kind)
                sequencers.append((record.thread_step, record.timestamp, kind))
            rows: List[tuple] = []
            for columns in _read_access_rows(
                reader, block, interned.setdefault(block, {})
            ):
                rows.extend(zip(*columns))
            reader.skip_uints(4 * reader.uint())  # heap rows
            threads.append((name, tid, block, sequencers, rows))
    except LogFormatError as error:
        raise error.in_segment(ordinal) from None
    return ordinal, first_ts, last_ts, threads


@dataclass
class _GatheredThread:
    """One thread's rows concatenated across every segment of a v4
    container, plus its trailer residue."""

    tid: int
    block: str
    columns: object
    sequencers: List[SequencerRecord] = field(default_factory=list)
    interned: Dict[int, StaticInstructionId] = field(default_factory=dict)


def _gather_segments(
    data: bytes, new_columns, keep_heap: bool
) -> Tuple[Dict[str, _GatheredThread], bytes]:
    """Decode every segment of a v4 container straight into per-thread
    sequencer lists and access columns (``new_columns()`` makes one
    thread's column carrier; heap rows land in its ``heap_*`` lists only
    when ``keep_heap``).  Returns the threads in first-appearance order
    and the decompressed trailer."""
    gathered: Dict[str, _GatheredThread] = {}
    trailer: Optional[bytes] = None
    ordinal = 0
    for tag, start, end in _iter_frames(data):
        if tag == _SECTION_TRAILER:
            trailer = _inflate(data[start:end])
        if tag != _SECTION_SEGMENT:
            continue
        try:
            reader = _Reader(_inflate(data[start:end]))
            reader.skip_uints(3)  # ordinal, first_ts, last_ts
            for _ in range(reader.uint()):
                name, tid, block = reader.text(), reader.uint(), reader.text()
                thread = gathered.get(name)
                if thread is None:
                    thread = gathered[name] = _GatheredThread(tid, block, new_columns())
                thread.sequencers.extend(_read_sequencers(reader))
                _extend_access_columns(thread.columns, reader, block, thread.interned)
                if keep_heap:
                    _extend_heap_columns(thread.columns, reader)
                else:
                    reader.skip_uints(4 * reader.uint())
        except LogFormatError as error:
            raise error.in_segment(ordinal) from None
        ordinal += 1
    if trailer is None:
        raise LogFormatError("missing trailer section")
    return gathered, trailer


def _decode_log_segmented(data: bytes) -> ReplayLog:
    """Reassemble a full :class:`ReplayLog` from a v4 container.

    Sequencers and captured rows come from the segments (concatenated in
    segment order — global timestamp order), everything else from the
    trailer.  Note one canonicalization: per-thread sequencer lists come
    back in timestamp order, which is the order every machine-produced
    log already has.
    """
    header = read_segmented_header(data)
    gathered, trailer = _gather_segments(data, ThreadAccessColumns, keep_heap=True)
    reader = _Reader(trailer)
    global_order = _read_global_order(reader) if reader.flag() else None
    predicted_loads = reader.uint()
    threads: Dict[str, ThreadLog] = {}
    columns: Dict[str, ThreadAccessColumns] = {}
    for _ in range(reader.uint()):
        name, tid, block = reader.text(), reader.uint(), reader.text()
        registers = tuple(reader.uints(reader.uint()))
        thread = threads[name] = ThreadLog(
            name=name, tid=tid, block=block, initial_registers=registers
        )
        _read_loads(reader, SEGMENTED_FORMAT_VERSION, thread)
        _read_syscalls(reader, thread)
        into = gathered.get(name)
        if into is None:
            into = gathered[name] = _GatheredThread(tid, block, ThreadAccessColumns())
        thread.sequencers.extend(into.sequencers)
        thread.pc_footprint = _read_footprint(reader)
        thread.steps = reader.uint()
        thread.end = _read_end(reader)
        _extend_access_columns(into.columns, reader, block, into.interned)
        _extend_heap_columns(into.columns, reader)
        columns[name] = into.columns
    captured: Optional[CapturedAccessColumns] = None
    if header.has_captured:
        captured = CapturedAccessColumns(
            threads=columns, predicted_loads=predicted_loads
        )
    return ReplayLog(
        program_name=header.program_name,
        program_source=header.program_source,
        threads=threads,
        seed=header.seed,
        scheduler=header.scheduler,
        global_order=global_order,
        captured=captured,
    )


def _decode_log_sections_segmented(data: bytes) -> LogSections:
    """The sectioned reader for v4: segment rows decoded straight into
    per-thread columns, trailer seeked through for step counts and
    residual rows, footer skipped."""
    header = read_segmented_header(data)
    gathered, trailer = _gather_segments(data, CapturedColumnView, keep_heap=False)
    threads: Dict[str, ThreadSectionView] = {
        name: ThreadSectionView(
            name=name, tid=thread.tid, block=thread.block, sequencers=thread.sequencers
        )
        for name, thread in gathered.items()
    }
    reader = _Reader(trailer)
    if reader.flag():
        reader.skip_uints(2 * reader.uint())  # global order pairs
    reader.skip_uints(1)  # predicted_loads
    for _ in range(reader.uint()):
        name, tid, block = reader.text(), reader.uint(), reader.text()
        section = threads.get(name)
        if section is None:
            section = threads[name] = ThreadSectionView(name=name, tid=tid, block=block)
            gathered[name] = _GatheredThread(tid, block, CapturedColumnView())
        reader.skip_uints(reader.uint())  # initial registers
        _skip_loads(reader, SEGMENTED_FORMAT_VERSION)
        _skip_syscalls(reader)
        _skip_footprint(reader)
        section.steps = reader.uint()
        _skip_end(reader)
        into = gathered[name]
        _extend_access_columns(into.columns, reader, block, into.interned)
        reader.skip_uints(4 * reader.uint())  # residual heap rows
    captured: Optional[Dict[str, CapturedColumnView]] = None
    if header.has_captured:
        captured = {name: gathered[name].columns for name in threads}
    return LogSections(
        version=header.version,
        program_name=header.program_name,
        program_source=header.program_source,
        seed=header.seed,
        scheduler=header.scheduler,
        threads=threads,
        captured=captured,
    )
