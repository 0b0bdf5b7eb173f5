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
sectioned and per-segment reads project it.  Truncated or
malformed input raises :class:`LogFormatError`.

**Version 5: columnar segments.**  v5 keeps v4's frames, trailer, footer
and cut rule, but stores each segment's sequencer, access and heap rows
(and the trailer's residual rows) as column groups of little-endian
fixed-width values, each at the narrowest ``array`` typecode that fits.
Decoding a column is ``array.frombytes`` plus ``itertools.accumulate``:
no Python code runs per value.  :class:`_RowSectionWriter` and
:class:`_RowSectionReader` are the only places that tell v4 rows from v5
columns; every segmented reader goes through them.
"""

from __future__ import annotations

import io
import mmap
import os
import sys
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter, sub
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
#: The first segmented container version (framed, independently
#: decodable segments): every version from here on is segmented.
FIRST_SEGMENTED_VERSION = 4
#: The first version whose row sections are fixed-width columns.
_COLUMNAR_VERSION = 5
#: The segmented container version the segmented writer produces.
SEGMENTED_FORMAT_VERSION = _COLUMNAR_VERSION
#: Every version this reader can decode.
SUPPORTED_VERSIONS = (1, 2, 3, 4, 5)

#: Default estimated payload bytes per segment before the writer seals
#: it.  The estimate counts uncompressed varint row costs, so on-disk
#: segments land well below this after zlib.
DEFAULT_SEGMENT_BYTES = 1 << 16

#: Segmented section frame tags (each frame: ``uint tag, uint byte
#: length``, in v5 also ``uint inflated length``, then the zlib-compressed
#: payload).
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

#: v5 column typecodes, narrowest first, with their largest value.  The
#: wire byte is the typecode's ASCII code; the values follow it
#: little-endian at the typecode's width.
_UNSIGNED_CODES = (("B", 0xFF), ("H", 0xFFFF), ("I", 0xFFFFFFFF), ("Q", 2**64 - 1))
_SIGNED_CODES = (("b", 0x7F), ("h", 0x7FFF), ("i", 0x7FFFFFFF), ("q", 2**63 - 1))
#: Wire typecode byte → value width in bytes.
_COLUMN_WIDTHS = {
    ord(code): width
    for codes in (_UNSIGNED_CODES, _SIGNED_CODES)
    for (code, _), width in zip(codes, (1, 2, 4, 8))
}
#: Columns are little-endian on the wire; a big-endian host swaps.
_SWAP_BYTES = sys.byteorder != "little"


class LogFormatError(ValueError):
    """A binary replay log that is truncated or malformed.

    ``offset`` is the byte offset where decoding failed — within the
    container for frame errors, within the decompressed section for
    payload errors — and ``segment`` the segment ordinal, when known.
    ``section`` names the row section of a segmented container that
    failed, such as ``segment.access`` or ``trailer.heap``.  ``version``
    is the container's version byte when the header check rejected it,
    ``None`` otherwise (bad magic included).
    """

    def __init__(
        self, reason: str, offset=None, segment=None, version=None, section=None
    ) -> None:
        self.reason = reason
        self.offset = offset
        self.segment = segment
        self.version = version
        self.section = section
        message = "corrupt replay log: " + reason
        if offset is not None:
            message += " at byte offset %d" % offset
        if segment is not None:
            message += " in segment %d" % segment
        if section is not None:
            message += " (section %s)" % section
        super().__init__(message)

    def in_segment(self, segment: int) -> "LogFormatError":
        """The same error, tagged with the segment it occurred in."""
        return LogFormatError(
            self.reason, self.offset, segment, self.version, self.section
        )

    def in_section(self, section: str) -> "LogFormatError":
        """The same error, tagged with the row section it occurred in."""
        return LogFormatError(
            self.reason, self.offset, self.segment, self.version, section
        )


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


#: Most bytes one read of a container may inflate to, summed over all of
#: its frames in every version.  zlib reaches about 1,000:1, so without
#: a bound one upload could ask for tens of GB; past it, the read ends in
#: a :class:`LogFormatError`.  The largest container the pipeline
#: benchmark writes inflates to under 4 MiB.
MAX_INFLATED_BYTES = 256 << 20


class _InflateBudget:
    """What is left of one container read's :data:`MAX_INFLATED_BYTES`."""

    __slots__ = ("remaining",)

    def __init__(self) -> None:
        self.remaining = MAX_INFLATED_BYTES


#: Most bytes one step of an undeclared-length inflate produces.
_INFLATE_STEP = 256 << 10


def _inflate_within(inflater, payload: bytes, limit: int) -> Optional[bytes]:
    """Inflate ``payload`` in steps of :data:`_INFLATE_STEP`; ``None``
    once the output passes ``limit`` bytes, so a bomb holds at most
    ``limit`` plus one step."""
    pieces: List[bytes] = []
    total = 0
    while True:
        piece = inflater.decompress(payload, _INFLATE_STEP)
        total += len(piece)
        if total > limit:
            return None
        pieces.append(piece)
        payload = inflater.unconsumed_tail
        if inflater.eof or not (payload or piece):
            return b"".join(pieces)


def _inflate(
    frame: Tuple[bytes, Optional[int], str, _InflateBudget],
    segment: Optional[int] = None,
) -> bytes:
    """Decompress one zlib-framed section; a bad stream is a format error.

    ``frame`` is ``(payload, declared inflated length, section,
    budget)``, and what it inflates to is charged to ``budget``.  v5 frames declare their
    length: a frame that declares more than the budget has left is
    refused before inflating, and inflating stops one byte past the
    declared length, so a decompression bomb costs no more memory than
    the frame claims; a stream that yields more or fewer bytes, or
    leaves input unconsumed, is a format error.  Older frames declare
    nothing (``None``) and inflate up to the budget.  Errors name
    ``section`` (``body``, ``header``, ``segment``, ``trailer`` or
    ``footer``) and the segment ordinal, if any.
    """
    payload, size, section, budget = frame
    remaining = budget.remaining
    if size is not None and size > remaining:
        raise LogFormatError(
            "%s declares %d inflated bytes, past the %d left of the "
            "container's %d-byte inflation budget"
            % (section, size, remaining, MAX_INFLATED_BYTES),
            None,
            segment,
        )
    inflater = zlib.decompressobj()
    try:
        if size is None:
            data = _inflate_within(inflater, payload, remaining)
        else:
            data = inflater.decompress(payload, size + 1)
    except zlib.error as error:
        reason = "undecompressable %s (%s)" % (section, error)
        raise LogFormatError(reason, None, segment) from None
    if size is None:
        if data is None:
            reason = "%s inflates past the container's %d-byte inflation budget" % (
                section,
                MAX_INFLATED_BYTES,
            )
        elif not inflater.eof:
            reason = "undecompressable %s (incomplete or truncated stream)" % section
        else:
            # Bytes after the stream were always ignored here.
            budget.remaining = remaining - len(data)
            return data
    elif len(data) > size:
        reason = "%s inflates past its declared %d bytes" % (section, size)
    elif not inflater.eof:
        reason = "zlib stream cut short after %d of %d declared bytes" % (
            len(data),
            size,
        )
    elif len(data) < size:
        reason = "%s inflates to %d of its declared %d bytes" % (section, len(data), size)
    elif inflater.unused_data:
        reason = "%d bytes follow the %s's zlib stream" % (len(inflater.unused_data), section)
    else:
        budget.remaining = remaining - size
        return data
    raise LogFormatError(reason, None, segment)


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
# v5 columns: one typecode byte, a uint count, then count fixed-width
# little-endian values.
# ----------------------------------------------------------------------


def _write_column(writer: _Writer, values, signed: bool = False) -> None:
    """Write ``values`` as one column at the narrowest typecode that fits."""
    low = min(values, default=0)
    high = max(values, default=0)
    for code, top in _SIGNED_CODES if signed else _UNSIGNED_CODES:
        if high <= top and low >= (-top - 1 if signed else 0):
            break
    else:
        raise ValueError(
            "column values %d..%d do not fit a 64-bit %s column"
            % (low, high, "signed" if signed else "unsigned")
        )
    column = array(code, values)
    if _SWAP_BYTES:
        column.byteswap()
    writer.out.append(ord(code))
    writer.uint(len(column))
    writer.out += column.tobytes()


def _deltas(values) -> list:
    """``values`` as differences from their predecessor (the first from 0)."""
    return list(map(sub, values, chain((0,), values)))


def _column_extent(reader: _Reader) -> Tuple[int, int, int]:
    """Read a column head; returns ``(typecode byte, value start, value
    end)`` after checking the typecode and that the values fit the data."""
    data = reader.data
    head = reader.offset
    if head >= len(data):
        raise LogFormatError("truncated column", head)
    code = data[head]
    width = _COLUMN_WIDTHS.get(code)
    if width is None:
        raise LogFormatError("unknown column typecode %#04x" % code, head)
    reader.offset = head + 1
    count = reader.uint()
    start = reader.offset
    end = start + count * width
    if end > len(data):
        raise LogFormatError(
            "column of %d x %d-byte values runs past the end of a %d-byte section"
            % (count, width, len(data)),
            head,
        )
    reader.offset = end
    return code, start, end


def _read_column(reader: _Reader) -> array:
    code, start, end = _column_extent(reader)
    column = array(chr(code))
    column.frombytes(reader.data[start:end])
    if _SWAP_BYTES:
        column.byteswap()
    return column


def _check_group(lengths: List[int], offset: int) -> None:
    """Columns of one group (their ``lengths``) must have one row count."""
    if min(lengths) != max(lengths):
        raise LogFormatError(
            "column group's columns differ in length (%s rows)"
            % ", ".join(map(str, lengths)),
            offset,
        )


def _read_column_group(reader: _Reader, width: int) -> List[array]:
    """Read ``width`` columns of one row section."""
    offset = reader.offset
    columns = [_read_column(reader) for _ in range(width)]
    _check_group([len(column) for column in columns], offset)
    return columns


def _skip_column_group(reader: _Reader, width: int) -> None:
    """Seek past ``width`` columns of one row section, by count x width."""
    offset = reader.offset
    lengths = []
    for _ in range(width):
        code, start, end = _column_extent(reader)
        lengths.append((end - start) // _COLUMN_WIDTHS[code])
    _check_group(lengths, offset)


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
    if version >= FIRST_SEGMENTED_VERSION:
        return _encode_segmented(
            log,
            version,
            DEFAULT_SEGMENT_BYTES,
            elide_predicted_loads,
            stats,
            include_captured,
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


def _extend_access_columns(columns, blocks) -> None:
    """Append one access-row section's column ``blocks`` (as the row
    decoders yield them) to any column carrier exposing
    ``steps``/``flags``/``addresses``/``values``/``static_ids``.

    A block column is a list or (v5) an ``array``; see
    :func:`_block_appender`.
    """
    appends = [_block_appender(column) for column in _access_columns(columns)]
    try:
        for columns_block in blocks:
            for append, values in zip(appends, columns_block):
                append(values)
    except LogFormatError:
        raise
    except (OverflowError, ValueError) as error:
        # A corrupt row can decode to a value its packed column cannot
        # hold, such as a negative address.
        reason = "access row value out of its column's range (%s)" % error
        raise LogFormatError(reason) from None


def _block_appender(column):
    """The function that appends one block (a list or an ``array``) to
    ``column`` (a list, an ``array`` or a ``bytearray`` of flags).

    ``array`` columns take a list block through ``fromlist``, which
    resizes once per block: ``extend`` from a list resizes once per
    item, and reallocating a large array that often fragments the heap.
    An ``array`` block of the column's own typecode is copied whole by
    ``extend``, with no int object per value.
    """
    if isinstance(column, list):
        return column.extend
    extend = column.extend
    if isinstance(column, array):
        code, from_list = column.typecode, column.fromlist
    else:
        code, from_list = "B", extend

    def append(values) -> None:
        if isinstance(values, list):
            from_list(values)
        elif values.typecode == code:
            extend(values)
        else:
            from_list(values.tolist())

    return append


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


def _extend_heap_columns(columns: ThreadAccessColumns, blocks) -> None:
    """Append one heap-row section's ``(steps, kinds, bases, sizes)``
    blocks to ``columns``' ``heap_*`` lists."""
    for steps, kinds, bases, sizes in blocks:
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
        block = threads[name].block
        _extend_access_columns(columns, _read_access_rows(reader, block, {}))
        _extend_heap_columns(columns, _read_heap_rows(reader))
        captured.threads[name] = columns
    return captured


def decode_log(data: bytes) -> ReplayLog:
    """Rebuild a :class:`ReplayLog` from :func:`encode_log` output."""
    version = _container_version(data)
    if version >= FIRST_SEGMENTED_VERSION:
        return _decode_log_segmented(data)
    reader = _Reader(_inflate((data[len(MAGIC) + 1 :], None, "body", _InflateBudget())))
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
        _extend_access_columns(view, _read_access_rows(reader, threads[name].block, {}))
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
    if version >= FIRST_SEGMENTED_VERSION:
        return _decode_log_sections_segmented(data)
    reader = _Reader(_inflate((data[len(MAGIC) + 1 :], None, "body", _InflateBudget())))
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
# v4 and v5: the segmented container.
# ----------------------------------------------------------------------
#
# Layout::
#
#     offset 0   4 bytes   MAGIC = b"RPRB"
#     offset 4   1 byte    version = 4 or 5
#     offset 5   ...       framed sections, each:
#                              uint tag, uint byte length,
#                              (v5) uint inflated length, zlib payload
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
#   bases restart per segment: each segment decodes on its own.  A v5
#   segment puts a string table (sequencer kinds, static-id blocks) after
#   its ordinal and timestamp range, and its rows are column groups.
# * **trailer** (tag 3) — the replay residue: per-thread registers, load
#   records (v2 predictor elision), syscalls, pc footprints, step counts,
#   end records and any rows no sequencer claimed, plus the global order.
#   Detection never decompresses most of it (the sectioned reader seeks).
# * **footer** (tag 4) — the segment index: per segment its ordinal, byte
#   offset, framed length, row counts and timestamp range.
#
# Segments are cut by a deterministic rule — walk sequencers in global
# timestamp order, accumulate estimated row costs, seal at
# ``segment_bytes`` — held by :class:`SegmentedLogWriter`, which both the
# streaming recorder and :func:`encode_log_segmented` drive, so
# ``encode → decode → encode`` is byte-stable.


@dataclass
class SegmentedHeader:
    """Identity fields of a segmented container (the tag-1 section)."""

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
    """One decoded segment: self-contained, delta bases restarted."""

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


# -- row sections: v4 varint rows or v5 columns -------------------------

_static_index = attrgetter("index")


class _RowSectionWriter:
    """The one row-section writer of the segmented container.

    Each thread of a segment has a sequencer, an access and a heap row
    section; the trailer has each thread's residual access and heap
    rows.  v4 writes them as varint rows.  v5 writes each as a column
    group (steps, timestamps and addresses as signed deltas from the
    previous row, starting from 0):

    * sequencers: step, timestamp, kind, static-id block (0 for none,
      else 1 + its string-table index), static-id index;
    * access: step, flag, address, value, static-id index;
    * heap: step, kind (0 = alloc), base, size.

    Kinds and static-id blocks are indices into a per-segment string
    table, which :meth:`write_strings` writes ahead of the thread rows.
    """

    __slots__ = ("columnar", "strings")

    def __init__(self, version: int) -> None:
        self.columnar = version >= _COLUMNAR_VERSION
        self.strings: Dict[str, int] = {}

    def write_strings(self, writer: _Writer) -> None:
        """Write the string table the sequencer sections index (v5)."""
        if self.columnar:
            writer.uint(len(self.strings))
            for text in self.strings:
                writer.text(text)

    def sequencers(self, writer: _Writer, records: List[SequencerRecord]) -> None:
        if not self.columnar:
            writer.uint(len(records))
            previous_step = 0
            previous_ts = 0
            for sequencer in records:
                writer.sint(sequencer.thread_step - previous_step)
                writer.sint(sequencer.timestamp - previous_ts)
                writer.text(sequencer.kind)
                _write_static_id(writer, sequencer.static_id)
                previous_step = sequencer.thread_step
                previous_ts = sequencer.timestamp
            return
        strings = self.strings
        kinds = []
        blocks = []
        indices = []
        for sequencer in records:
            kinds.append(strings.setdefault(sequencer.kind, len(strings)))
            static_id = sequencer.static_id
            if static_id is None:
                blocks.append(0)
                indices.append(0)
            else:
                blocks.append(strings.setdefault(static_id.block, len(strings)) + 1)
                indices.append(static_id.index)
        _write_column(writer, _deltas([r.thread_step for r in records]), signed=True)
        _write_column(writer, _deltas([r.timestamp for r in records]), signed=True)
        _write_column(writer, kinds)
        _write_column(writer, blocks)
        _write_column(writer, indices)

    def access(self, writer: _Writer, rows) -> None:
        """Write ``(step, flag, address, value, static_id)`` rows."""
        if not self.columnar:
            _write_access_rows(writer, rows)
            return
        steps, flags, addresses, values, static_ids = zip(*rows) if rows else ((),) * 5
        _write_column(writer, _deltas(steps), signed=True)
        _write_column(writer, flags)
        _write_column(writer, _deltas(addresses), signed=True)
        _write_column(writer, values)
        _write_column(writer, list(map(_static_index, static_ids)))

    def heap(self, writer: _Writer, rows) -> None:
        """Write ``(step, kind, base, size)`` rows."""
        if not self.columnar:
            writer.uint(len(rows))
            previous_step = 0
            for step, kind, base, size in rows:
                writer.uint(step - previous_step)
                writer.uint(kind)
                writer.uint(base)
                writer.uint(size)
                previous_step = step
            return
        steps, kinds, bases, sizes = zip(*rows) if rows else ((),) * 4
        _write_column(writer, _deltas(steps), signed=True)
        _write_column(writer, kinds)
        _write_column(writer, bases)
        _write_column(writer, sizes)


class _RowSectionReader:
    """The one row-section reader: every segmented reader reads a
    segment's or the trailer's rows through this, whatever the version.

    ``where`` is ``"segment"`` or ``"trailer"``; a v5 segment's string
    table is read on construction, right after the segment prelude.
    Errors carry the failing section (``segment.access`` …).  Decoded
    blocks have one shape in both versions, so no caller sees the
    version: access rows as ``(steps, flags, addresses, values,
    static_ids)`` column blocks, heap rows as ``(steps, kinds, bases,
    sizes)``.  v5 blocks hand the columns that need no accumulating
    over as the decoded ``array`` objects (see :func:`_block_appender`).
    """

    __slots__ = ("reader", "columnar", "where", "strings")

    def __init__(self, reader: _Reader, version: int, where: str) -> None:
        self.reader = reader
        self.columnar = version >= _COLUMNAR_VERSION
        self.where = where
        self.strings: List[str] = []
        if self.columnar and where == "segment":
            try:
                self.strings = [reader.text() for _ in range(reader.uint())]
            except LogFormatError as error:
                raise error.in_section("segment.strings") from None

    def _string(self, index: int) -> str:
        if 0 <= index < len(self.strings):
            return self.strings[index]
        raise LogFormatError(
            "string-table index %d out of range (%d strings)"
            % (index, len(self.strings)),
            self.reader.offset,
        )

    def sequencers(self) -> List[SequencerRecord]:
        try:
            if not self.columnar:
                return _read_sequencers(self.reader)
            steps, stamps, kinds, blocks, indices = _read_column_group(self.reader, 5)
            kind_of = {kind: self._string(kind) for kind in set(kinds)}
            keys = list(zip(blocks, indices))
            static_ids = {
                key: None
                if key[0] == 0
                else StaticInstructionId(block=self._string(key[0] - 1), index=key[1])
                for key in set(keys)
            }
            return list(
                map(
                    SequencerRecord,
                    accumulate(steps),
                    accumulate(stamps),
                    map(kind_of.__getitem__, kinds),
                    map(static_ids.__getitem__, keys),
                )
            )
        except LogFormatError as error:
            raise error.in_section(self.where + ".sequencers") from None

    def sequencer_tail(self) -> Tuple[int, int, int, str]:
        """``(count, last step, last timestamp, last kind)`` of one
        sequencer section, without building its records."""
        reader = self.reader
        try:
            if self.columnar:
                steps, stamps, kinds, _, _ = _read_column_group(reader, 5)
                kind = self._string(kinds[-1]) if kinds else ""
                return len(steps), sum(steps), sum(stamps), kind
            count = reader.uint()
            step = timestamp = 0
            kind = ""
            for position in range(count):
                step += reader.sint()
                timestamp += reader.sint()
                if position == count - 1:
                    kind = reader.text()
                else:
                    reader.skip_text()
                if reader.uint():
                    reader.skip_text()
                    reader.skip_uints(1)
            return count, step, timestamp, kind
        except LogFormatError as error:
            raise error.in_section(self.where + ".sequencers") from None

    def access(
        self, block: str, interned: Dict[int, StaticInstructionId]
    ) -> Iterator[Tuple[list, list, list, list, list]]:
        """Yield the access rows' column blocks; static ids of ``block``
        are interned in ``interned`` (index → id)."""
        try:
            if not self.columnar:
                yield from _read_access_rows(self.reader, block, interned)
                return
            steps, flags, addresses, values, indices = _read_column_group(
                self.reader, 5
            )
            if not steps:
                return
            for index in set(indices).difference(interned):
                interned[index] = StaticInstructionId(block=block, index=index)
            yield (
                list(accumulate(steps)),
                flags,
                list(accumulate(addresses)),
                values,
                list(map(interned.__getitem__, indices)),
            )
        except LogFormatError as error:
            raise error.in_section(self.where + ".access") from None

    def heap(self) -> Iterator[Tuple[list, list, list, list]]:
        """Yield the heap rows as ``(steps, kinds, bases, sizes)`` blocks."""
        try:
            if not self.columnar:
                yield from _read_heap_rows(self.reader)
                return
            steps, kinds, bases, sizes = _read_column_group(self.reader, 4)
            if steps:
                yield list(accumulate(steps)), kinds, bases, sizes
        except LogFormatError as error:
            raise error.in_section(self.where + ".heap") from None

    def skip_access(self) -> None:
        self._skip(5, "access")

    def skip_heap(self) -> None:
        self._skip(4, "heap")

    def _skip(self, width: int, kind: str) -> None:
        """Seek past one row section of ``width`` fields per row."""
        reader = self.reader
        try:
            if self.columnar:
                _skip_column_group(reader, width)
            else:
                reader.skip_uints(width * reader.uint())
        except LogFormatError as error:
            raise error.in_section(self.where + "." + kind) from None


class SegmentedLogWriter:
    """Incremental segmented writer: header up front, segments as they fill.

    Holds the deterministic cut rule: ``add_sequencer`` appends one
    sequencer and its attached rows to the pending segment and seals it
    once the estimated row cost reaches ``segment_bytes``.  It runs over
    any source of timestamp-ordered sequencer events — the recorder
    streams into one of these while the machine is still running;
    :func:`encode_log_segmented` replays an in-memory log through the
    same code.  ``out`` is any binary file-like object.  It writes the
    current segmented version; ``version=4`` is for compatibility
    fixtures (``encode_log(log, version=4)``).
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
        version: int = SEGMENTED_FORMAT_VERSION,
    ):
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if not FIRST_SEGMENTED_VERSION <= version <= SEGMENTED_FORMAT_VERSION:
            raise ValueError("not a segmented container version: %d" % version)
        self.version = version
        self.segment_bytes = segment_bytes
        self._buffers: Dict[str, _SegmentBuffer] = {}
        self._cost = 0
        self._ordinal = 0
        self._out = out
        self._offset = 0
        self._elide = elide_predicted_loads
        self._index: List[SegmentIndexEntry] = []
        self._finished = False
        self.has_captured = has_captured
        self._write_raw(MAGIC + bytes([version]))
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
        if self.version >= _COLUMNAR_VERSION:
            head.uint(len(payload))
        start = self._offset
        self._write_raw(bytes(head.out))
        self._write_raw(compressed)
        return start, self._offset - start

    # -- segments -------------------------------------------------------

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
        """Write the pending segment's frame, if any rows accumulated."""
        if not self._buffers:
            return
        entries = sorted(self._buffers.values(), key=lambda buffer: buffer.tid)
        ordinal = self._ordinal
        self._ordinal += 1
        self._buffers = {}
        self._cost = 0
        rows = _RowSectionWriter(self.version)
        body = _Writer()
        sequencer_rows = 0
        access_rows = 0
        for buffer in entries:
            body.text(buffer.name)
            body.uint(buffer.tid)
            body.text(buffer.block)
            rows.sequencers(body, buffer.sequencers)
            rows.access(body, buffer.access_rows)
            rows.heap(body, buffer.heap_rows)
            sequencer_rows += len(buffer.sequencers)
            access_rows += len(buffer.access_rows)
        writer = _Writer()
        writer.uint(ordinal)
        first_ts = min(buffer.sequencers[0].timestamp for buffer in entries)
        last_ts = max(buffer.sequencers[-1].timestamp for buffer in entries)
        writer.uint(first_ts)
        writer.uint(last_ts)
        rows.write_strings(writer)
        writer.uint(len(entries))
        writer.out += body.out
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
        rows = _RowSectionWriter(self.version)
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
            elided += _write_loads(writer, thread, self.version, self._elide)
            _write_syscalls(writer, thread)
            _write_footprint(writer, thread)
            writer.uint(thread.steps)
            _write_end(writer, thread)
            access_rows, heap_rows = residuals.get(name, ((), ()))
            rows.access(writer, access_rows)
            rows.heap(writer, heap_rows)
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
        lo = self._row_at.get(name, 0)
        hi = self._row_at[name] = bisect_right(columns.steps, seq_step, lo)
        return _access_rows_of(columns, lo, hi)

    def _attached_heap(self, name: str, seq_step: int) -> list:
        columns = self._captured.get(name)
        if columns is None or not getattr(columns, "heap_steps", None):
            return []
        lo = self._heap_at.get(name, 0)
        hi = self._heap_at[name] = bisect_right(columns.heap_steps, seq_step, lo)
        return _heap_rows_of(columns, lo, hi)

    def residuals(self) -> Dict[str, Tuple[list, list]]:
        """Rows no sequencer claimed (synthetic logs only, in practice)."""
        leftover: Dict[str, Tuple[list, list]] = {}
        for name in self._threads:
            columns = self._captured.get(name)
            if columns is None:
                continue
            access_rows = _access_rows_of(
                columns, self._row_at.get(name, 0), len(columns.steps)
            )
            heap_rows = (
                _heap_rows_of(
                    columns, self._heap_at.get(name, 0), len(columns.heap_steps)
                )
                if getattr(columns, "heap_steps", None)
                else []
            )
            if access_rows or heap_rows:
                leftover[name] = (access_rows, heap_rows)
        return leftover


def _access_rows_of(columns, lo: int, hi: int) -> list:
    """Captured rows ``[lo, hi)`` as ``(step, flag, address, value,
    static_id)`` tuples, the shape the segment writer takes."""
    return list(zip(*(column[lo:hi] for column in _access_columns(columns))))


def _heap_rows_of(columns, lo: int, hi: int) -> list:
    """Heap rows ``[lo, hi)`` as ``(step, kind, base, size)`` tuples
    (kind 0 = alloc)."""
    return list(
        zip(
            columns.heap_steps[lo:hi],
            [0 if kind == "alloc" else 1 for kind in columns.heap_kinds[lo:hi]],
            columns.heap_bases[lo:hi],
            columns.heap_sizes[lo:hi],
        )
    )


def encode_log_segmented(
    log: ReplayLog,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    elide_predicted_loads: bool = True,
    stats: Optional[dict] = None,
    include_captured: bool = True,
) -> bytes:
    """Serialize ``log`` into the segmented container (v5).

    Deterministic: the same log and ``segment_bytes`` always produce the
    same bytes (the property suite asserts encode → decode → encode
    byte-stability), because cuts depend only on the timestamp-ordered
    sequencer walk and the shared row-cost model.
    """
    return _encode_segmented(
        log,
        SEGMENTED_FORMAT_VERSION,
        segment_bytes,
        elide_predicted_loads,
        stats,
        include_captured,
    )


def _encode_segmented(
    log: ReplayLog,
    version: int,
    segment_bytes: int,
    elide_predicted_loads: bool,
    stats: Optional[dict],
    include_captured: bool,
) -> bytes:
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
        version=version,
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


# -- segmented reading -------------------------------------------------


def is_segmented_log(data: bytes) -> bool:
    """True for a binary container at or above the first segmented version."""
    return (
        data.startswith(MAGIC)
        and len(data) > len(MAGIC)
        and data[len(MAGIC)] >= FIRST_SEGMENTED_VERSION
    )


def _frame_head(
    data, offset: int, version: int, ordinal=None
) -> Tuple[int, int, int, Optional[int]]:
    """Read the frame header at ``offset``: ``(tag, payload offset,
    payload end, declared inflated length)``, the length ``None`` before
    v5.  ``data`` is bytes or an mmap of the container; ``ordinal`` is
    the frame's segment ordinal if it is a segment frame (errors name
    it)."""
    start = offset
    size = None
    try:
        tag, offset = decode_varint(data, offset)
        length, offset = decode_varint(data, offset)
        if version >= _COLUMNAR_VERSION:
            size, offset = decode_varint(data, offset)
    except IndexError:
        raise LogFormatError("truncated frame header", start) from None
    if offset + length > len(data):
        raise LogFormatError(
            "truncated frame (tag %d, %d payload bytes declared)" % (tag, length),
            start,
            ordinal if tag == _SECTION_SEGMENT else None,
        )
    return tag, offset, offset + length, size


def _iter_frames(data) -> Iterator[Tuple[int, int, int, Optional[int]]]:
    """Yield ``(tag, payload start, payload end, inflated length)`` for
    each section frame.  ``data`` is the container's bytes or an mmap of
    it; nothing is copied, so a caller slices out only the payloads it
    needs."""
    version = data[len(MAGIC)]
    offset = len(MAGIC) + 1
    segments = 0
    while offset < len(data):
        tag, start, offset, size = _frame_head(data, offset, version, segments)
        if tag == _SECTION_SEGMENT:
            segments += 1
        yield tag, start, offset, size


def _require_segmented(data: bytes) -> int:
    version = _container_version(data)
    if version < FIRST_SEGMENTED_VERSION:
        raise ValueError(
            "not a segmented replay log (container version %d predates v%d)"
            % (version, FIRST_SEGMENTED_VERSION)
        )
    return version


def _read_header(version: int, payload: bytes) -> SegmentedHeader:
    reader = _Reader(payload)
    return SegmentedHeader(
        version=version,
        program_name=reader.text(),
        program_source=reader.text(),
        seed=reader.sint(),
        scheduler=reader.text(),
        has_captured=reader.flag(),
    )


def read_segmented_header(data: bytes) -> SegmentedHeader:
    """Decode only the header section of a segmented container."""
    return _header_within(data, _InflateBudget())


def _header_within(data: bytes, budget: _InflateBudget) -> SegmentedHeader:
    """:func:`read_segmented_header`, charged to ``budget``."""
    version = _require_segmented(data)
    for tag, start, end, size in _iter_frames(data):
        if tag != _SECTION_HEADER:
            break
        return _read_header(version, _inflate((data[start:end], size, "header", budget)))
    raise LogFormatError("missing header section")


def read_segment_payload(
    payload: bytes, version: int, keep_heap: bool = True
) -> LogSegmentView:
    """Decode one decompressed segment payload into a view, for
    :func:`iter_segments` and the fan-out (heap rows skipped unless
    ``keep_heap``)."""
    reader = _Reader(payload)
    ordinal, first_ts, last_ts = reader.uints(3)
    threads: Dict[str, SegmentThreadView] = {}
    try:
        rows = _RowSectionReader(reader, version, "segment")
        for _ in range(reader.uint()):
            name, tid, block = reader.text(), reader.uint(), reader.text()
            view = threads[name] = SegmentThreadView(
                name=name, tid=tid, block=block, sequencers=rows.sequencers()
            )
            _extend_access_columns(view.columns, rows.access(block, {}))
            if not keep_heap:
                rows.skip_heap()
                continue
            for heap_block in rows.heap():
                view.heap_rows.extend(zip(*heap_block))
    except LogFormatError as error:
        raise error.in_segment(ordinal) from None
    return LogSegmentView(
        ordinal=ordinal, first_ts=first_ts, last_ts=last_ts, threads=threads
    )


def iter_segments(data: bytes) -> Iterator[LogSegmentView]:
    """Yield each segment of a segmented container, decompressed one at
    a time.

    This is the bounded-memory entry point: only one segment's rows are
    resident per step of the iteration (plus the compressed container
    itself, which the caller already holds).
    """
    version = _require_segmented(data)
    budget = _InflateBudget()
    ordinal = 0
    for tag, start, end, size in _iter_frames(data):
        if tag == _SECTION_SEGMENT:
            payload = _inflate((data[start:end], size, "segment", budget), ordinal)
            yield read_segment_payload(payload, version)
            ordinal += 1


def _parse_segment_index(payload: bytes) -> List[SegmentIndexEntry]:
    """Decode a decompressed footer payload into its index entries."""
    return [
        SegmentIndexEntry(*flat[row : row + 7])
        for flat in _row_blocks(_Reader(payload), 7)
        for row in range(0, len(flat), 7)
    ]


def read_segment_index(data: bytes) -> List[SegmentIndexEntry]:
    """Decode the footer's segment index of a segmented container."""
    _require_segmented(data)
    footer = None
    for tag, start, end, size in _iter_frames(data):
        if tag == _SECTION_FOOTER:
            footer = (data[start:end], size, "footer", _InflateBudget())
    if footer is None:
        raise LogFormatError("missing footer section")
    return _parse_segment_index(_inflate(footer))


# -- mmap-backed zero-copy reading (the parallel detect path) -----------


class MappedSegmentedReader:
    """Random-access view of an on-disk segmented container, without the
    bytes.

    The file is mapped read-only and the constructor walks only the
    section *frame headers* — a few varints per frame, hopping each
    frame by its encoded length — to locate the header and footer, so
    exactly two payloads (identity fields and the segment index) are
    ever decompressed up front.  Everything else stays on disk: a caller
    decompresses precisely the segment frames it owns via
    :meth:`segment_payload`, seeking straight to ``entry.offset`` from
    the footer index.  No process ever holds the whole container as a
    ``bytes`` object, which is what lets the parallel detect path fan a
    multi-gigabyte log across workers that each touch a slice of it.
    """

    __slots__ = ("path", "version", "header", "index", "_file", "_map", "_budget")

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
            header_frame, footer_frame = self._locate_sections()
            self._budget = _InflateBudget()
            self.header = _read_header(
                self.version, _inflate((*header_frame, "header", self._budget))
            )
            self.index = _parse_segment_index(
                _inflate((*footer_frame, "footer", self._budget))
            )
        except Exception:
            self.close()
            raise

    def _locate_sections(self) -> Tuple[tuple, tuple]:
        """Hop the frame chain; slice out only header and footer."""
        header = None
        footer = None
        for tag, start, end, size in _iter_frames(self._map):
            if tag == _SECTION_HEADER and header is None:
                header = (self._map[start:end], size)
            elif tag == _SECTION_FOOTER:
                footer = (self._map[start:end], size)
        if header is None:
            raise LogFormatError("missing header section")
        if footer is None:
            raise LogFormatError("missing footer section")
        return header, footer

    def segment_payload(self, entry: SegmentIndexEntry) -> bytes:
        """Decompress one segment's payload straight out of the mapping."""
        tag, start, end, size = _frame_head(
            self._map, entry.offset, self.version, entry.ordinal
        )
        if tag != _SECTION_SEGMENT:
            reason = "segment index entry %d points at a tag-%d frame"
            raise LogFormatError(reason % (entry.ordinal, tag), entry.offset)
        return _inflate(
            (self._map[start:end], size, "segment", self._budget), entry.ordinal
        )

    def close(self) -> None:
        try:
            self._map.close()
        finally:
            self._file.close()

    def __enter__(self) -> "MappedSegmentedReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scan_segment_sequencers(payload: bytes, version: int) -> List[tuple]:
    """Prelude scan: per-thread sequencer totals, rows skipped.

    A partition worker catching up to its segment range only needs to
    know, per thread, *how many* sequencers came before the range and
    where the last one sits (that sequencer opens the thread's possibly
    still-active region at the cut).  This decodes exactly that — the
    sequencer step/timestamp deltas plus the final record's kind — and
    seeks past every access and heap row (v4: the C-speed varint skip;
    v5: count x width per column), so a prelude segment costs a small
    fraction of a full decode.  ``version`` is the container's.

    Returns ``(name, tid, block, count, last_step, last_ts, last_kind)``
    per thread present in the segment.
    """
    reader = _Reader(payload)
    reader.skip_uints(3)  # ordinal, first_ts, last_ts
    rows = _RowSectionReader(reader, version, "segment")
    threads: List[tuple] = []
    for _ in range(reader.uint()):
        name = reader.text()
        tid = reader.uint()
        block = reader.text()
        count, step, timestamp, kind = rows.sequencer_tail()
        rows.skip_access()
        rows.skip_heap()
        threads.append((name, tid, block, count, step, timestamp, kind))
    return threads


@dataclass
class _GatheredThread:
    """One thread's rows concatenated across every segment of a
    segmented container, plus its trailer residue."""

    tid: int
    block: str
    columns: object
    sequencers: List[SequencerRecord] = field(default_factory=list)
    interned: Dict[int, StaticInstructionId] = field(default_factory=dict)


def _gather_segments(
    data: bytes, version: int, new_columns, keep_heap: bool, budget: _InflateBudget
) -> Tuple[Dict[str, _GatheredThread], bytes]:
    """Decode every segment of a segmented container straight into
    per-thread sequencer lists and access columns (``new_columns()``
    makes one thread's column carrier; heap rows land in its ``heap_*``
    lists only when ``keep_heap``).  Returns the threads in
    first-appearance order and the decompressed trailer; what the frames
    inflate to is charged to ``budget``."""
    gathered: Dict[str, _GatheredThread] = {}
    trailer: Optional[bytes] = None
    ordinal = 0
    for tag, start, end, size in _iter_frames(data):
        if tag == _SECTION_TRAILER:
            trailer = _inflate((data[start:end], size, "trailer", budget))
        if tag != _SECTION_SEGMENT:
            continue
        try:
            reader = _Reader(_inflate((data[start:end], size, "segment", budget), ordinal))
            reader.skip_uints(3)  # ordinal, first_ts, last_ts
            rows = _RowSectionReader(reader, version, "segment")
            for _ in range(reader.uint()):
                name, tid, block = reader.text(), reader.uint(), reader.text()
                thread = gathered.get(name)
                if thread is None:
                    thread = gathered[name] = _GatheredThread(tid, block, new_columns())
                thread.sequencers.extend(rows.sequencers())
                _extend_access_columns(
                    thread.columns, rows.access(block, thread.interned)
                )
                if keep_heap:
                    _extend_heap_columns(thread.columns, rows.heap())
                else:
                    rows.skip_heap()
        except LogFormatError as error:
            raise error.in_segment(ordinal) from None
        ordinal += 1
    if trailer is None:
        raise LogFormatError("missing trailer section")
    return gathered, trailer


def _decode_log_segmented(data: bytes) -> ReplayLog:
    """Reassemble a full :class:`ReplayLog` from a segmented container.

    Sequencers and captured rows come from the segments (concatenated in
    segment order — global timestamp order), everything else from the
    trailer.  Note one canonicalization: per-thread sequencer lists come
    back in timestamp order, which is the order every machine-produced
    log already has.
    """
    budget = _InflateBudget()
    header = _header_within(data, budget)
    gathered, trailer = _gather_segments(
        data, header.version, ThreadAccessColumns, keep_heap=True, budget=budget
    )
    reader = _Reader(trailer)
    rows = _RowSectionReader(reader, header.version, "trailer")
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
        _read_loads(reader, header.version, thread)
        _read_syscalls(reader, thread)
        into = gathered.get(name)
        if into is None:
            into = gathered[name] = _GatheredThread(tid, block, ThreadAccessColumns())
        thread.sequencers.extend(into.sequencers)
        thread.pc_footprint = _read_footprint(reader)
        thread.steps = reader.uint()
        thread.end = _read_end(reader)
        _extend_access_columns(into.columns, rows.access(block, into.interned))
        _extend_heap_columns(into.columns, rows.heap())
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
    """The sectioned reader for segmented containers: segment rows
    decoded straight into per-thread columns, trailer seeked through for
    step counts and residual rows, footer skipped."""
    budget = _InflateBudget()
    header = _header_within(data, budget)
    gathered, trailer = _gather_segments(
        data, header.version, CapturedColumnView, keep_heap=False, budget=budget
    )
    threads: Dict[str, ThreadSectionView] = {
        name: ThreadSectionView(
            name=name, tid=thread.tid, block=thread.block, sequencers=thread.sequencers
        )
        for name, thread in gathered.items()
    }
    reader = _Reader(trailer)
    rows = _RowSectionReader(reader, header.version, "trailer")
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
        _skip_loads(reader, header.version)
        _skip_syscalls(reader)
        _skip_footprint(reader)
        section.steps = reader.uint()
        _skip_end(reader)
        into = gathered[name]
        _extend_access_columns(into.columns, rows.access(block, into.interned))
        rows.skip_heap()  # residual heap rows
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
