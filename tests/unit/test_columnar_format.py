"""Unit tests for the v5 columnar segmented container.

Covers what the round-trip properties cannot reach from valid logs: the
bounded inflate of a frame that declares its inflated length (a
decompression bomb, a short stream, trailing input), the typed column
errors with the row section they occurred in, the one-line CLI error on
such a file, and the fan-out readers (sequencer scan, segment read) over
v4 and v5 encodings of one recording.
"""

import io
import tracemalloc
import zlib

import pytest

from reference_rows import COLUMN_WIDTHS, read_column_group, read_strings, read_varint
from repro.cli import main
from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import (
    MAGIC,
    LogFormatError,
    MappedSegmentedReader,
    _Reader,
    _RowSectionReader,
    decode_log,
    decode_log_sections,
    encode_log,
    encode_log_segmented,
    iter_segments,
    read_segment_payload,
    scan_segment_sequencers,
)
from repro.record.compression import encode_varint
from repro.vm import RandomScheduler

SOURCE = """
.data
counter: .word 0
m: .word 0
.thread left right
    li r3, 3
loop:
    load r1, [counter]
    addi r1, r1, 1
    store r1, [counter]
    lock [m]
    load r2, [counter]
    unlock [m]
    subi r3, r3, 1
    bnez r3, loop
    halt
"""

READERS = (
    ("iter_segments", lambda data: list(iter_segments(data))),
    ("decode_log_sections", decode_log_sections),
    ("decode_log", decode_log),
)


def _recorded():
    program = assemble(SOURCE, name="columnar_unit")
    _, log = record_run(
        program, scheduler=RandomScheduler(seed=5, switch_probability=0.4), seed=5
    )
    return log


def _frame(tag, compressed, inflated_length):
    return (
        encode_varint(tag)
        + encode_varint(len(compressed))
        + encode_varint(inflated_length)
        + compressed
    )


def _frames(data):
    """``[tag, raw payload]`` for each frame of a v5 container."""
    frames = []
    offset = len(MAGIC) + 1
    while offset < len(data):
        tag, offset = read_varint(data, offset)
        length, offset = read_varint(data, offset)
        _, offset = read_varint(data, offset)
        frames.append([tag, zlib.decompress(data[offset : offset + length])])
        offset += length
    return frames


def _container(frames):
    return MAGIC + bytes([5]) + b"".join(
        _frame(tag, zlib.compress(raw), len(raw)) for tag, raw in frames
    )


def _text(value):
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def _first_thread_groups(raw):
    """Offsets of the first thread's sequencer, access and heap column
    groups in a v5 segment payload, found with the reference reader."""
    offset = 0
    for _ in range(3):  # ordinal, first_ts, last_ts
        _, offset = read_varint(raw, offset)
    _, offset = read_strings(raw, offset)
    _, offset = read_varint(raw, offset)  # thread count
    for field in ("name", "tid", "block"):
        value, offset = read_varint(raw, offset)
        if field != "tid":
            offset += value  # the string's bytes
    groups = {}
    for section, width in (("sequencers", 5), ("access", 5), ("heap", 4)):
        groups[section] = offset
        _, _, offset = read_column_group(raw, offset, width)
    return groups


def _corrupt_first_segment(data, corrupt):
    """``data`` with its first segment payload replaced by
    ``corrupt(raw, groups)``."""
    frames = _frames(data)
    segment = next(frame for frame in frames if frame[0] == 2)
    segment[1] = corrupt(segment[1], _first_thread_groups(segment[1]))
    return _container(frames)


class TestBoundedInflate:
    def test_decompression_bomb_is_refused_in_bounded_memory(self):
        header = _text("bomb") + _text("") + encode_varint(0) + _text("") + b"\x01"
        deflate = zlib.compressobj()
        chunks = [deflate.compress(bytes(1 << 20)) for _ in range(64)]
        bomb = b"".join(chunks) + deflate.flush()  # 64 MiB of zeros
        data = (
            MAGIC
            + bytes([5])
            + _frame(1, zlib.compress(header), len(header))
            + _frame(2, bomb, 1024)
        )
        for name, read in READERS:
            tracemalloc.start()
            try:
                with pytest.raises(LogFormatError) as info:
                    read(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert info.value.segment == 0, name
            assert "past its declared 1024 bytes" in str(info.value), name
            assert peak < 4 << 20, (name, peak)

    @pytest.mark.parametrize(
        "declared, tail, message",
        [
            (None, b"", "stream cut short"),
            (2, b"", "past its declared 2 bytes"),
            (+1, b"", "inflates to"),
            (0, b"junk", "4 bytes follow"),
        ],
    )
    def test_declared_length_must_match_the_stream(self, declared, tail, message):
        data = encode_log_segmented(_recorded())
        frames = _frames(data)
        position = next(i for i, frame in enumerate(frames) if frame[0] == 2)
        raw = frames[position][1]
        compressed = zlib.compress(raw)
        if declared is None:
            compressed, size = compressed[:-6], len(raw)
        elif declared == 2:
            size = 2
        else:
            size = len(raw) + declared
        parts = [
            _frame(tag, zlib.compress(payload), len(payload))
            for tag, payload in frames
        ]
        parts[position] = _frame(2, compressed + tail, size)
        corrupt = MAGIC + bytes([5]) + b"".join(parts)
        for name, read in READERS:
            with pytest.raises(LogFormatError, match=message) as info:
                read(corrupt)
            assert info.value.segment == 0, name


class TestColumnErrors:
    @staticmethod
    def _section(payload, where="trailer"):
        return _RowSectionReader(_Reader(payload), 5, where)

    def test_unknown_typecode(self):
        with pytest.raises(LogFormatError) as info:
            list(self._section(b"x\x00").access("b", {}))
        assert info.value.section == "trailer.access"
        assert info.value.offset == 0
        assert "unknown column typecode 0x78" in str(info.value)
        assert str(info.value).endswith("(section trailer.access)")

    def test_count_times_width_past_the_payload(self):
        # Three 8-byte values declared, 16 bytes present.
        payload = b"Q" + encode_varint(3) + bytes(16)
        with pytest.raises(LogFormatError) as info:
            self._section(payload).skip_heap()
        assert info.value.section == "trailer.heap"
        assert "column of 3 x 8-byte values runs past the end" in str(info.value)

    def test_ragged_column_group(self):
        column = b"B" + encode_varint(2) + b"\x01\x02"
        short = b"B" + encode_varint(1) + b"\x01"
        # Table: no strings; then a sequencer group whose last column is short.
        payload = encode_varint(0) + column * 4 + short
        with pytest.raises(LogFormatError) as info:
            self._section(payload, "segment").sequencers()
        assert info.value.section == "segment.sequencers"
        assert "columns differ in length (2, 2, 2, 2, 1 rows)" in str(info.value)

    def test_string_index_out_of_range(self):
        zero = b"b" + encode_varint(1) + b"\x00"
        payload = encode_varint(0) + zero * 2 + b"B\x01\x05" + b"B\x01\x00" * 2
        with pytest.raises(LogFormatError, match="string-table index 5") as info:
            self._section(payload, "segment").sequencers()
        assert info.value.section == "segment.sequencers"

    @pytest.mark.parametrize(
        "section, corrupt, reason",
        [
            (
                "segment.access",
                lambda raw, at: raw[: at["access"]] + b"x" + raw[at["access"] + 1 :],
                "unknown column typecode",
            ),
            (
                "segment.heap",
                lambda raw, at: raw[: at["heap"]] + b"Z" + raw[at["heap"] + 1 :],
                "unknown column typecode",
            ),
            (
                "segment.access",
                # The first access column's count becomes 2**40.
                lambda raw, at: raw[: at["access"] + 1]
                + encode_varint(2**40)
                + raw[read_varint(raw, at["access"] + 1)[1] :],
                "runs past the end",
            ),
            (
                "segment.sequencers",
                # The last sequencer column loses its final value.
                lambda raw, at: _drop_last_value(raw, at["sequencers"], 5),
                "columns differ in length",
            ),
        ],
    )
    def test_every_reader_names_segment_and_section(self, section, corrupt, reason):
        data = _corrupt_first_segment(encode_log_segmented(_recorded()), corrupt)
        for name, read in READERS:
            with pytest.raises(LogFormatError, match=reason) as info:
                read(data)
            assert info.value.segment == 0, name
            assert info.value.section == section, name

    @pytest.mark.parametrize("version", (4, 5))
    def test_row_value_out_of_its_column_range(self, version):
        # A negative address decodes, but cannot enter a packed column.
        log = _recorded()
        columns = next(iter(log.captured.threads.values()))
        columns.addresses[0] = -8
        with pytest.raises(LogFormatError, match="out of its column's range") as info:
            decode_log_sections(encode_log(log, version=version))
        assert info.value.segment == 0

    def test_detect_on_a_corrupt_column_is_a_one_line_error(self, tmp_path, capsys):
        data = _corrupt_first_segment(
            encode_log_segmented(_recorded(), segment_bytes=64),
            lambda raw, at: raw[: at["access"]] + b"x" + raw[at["access"] + 1 :],
        )
        path = tmp_path / "corrupt.rprb"
        path.write_bytes(data)
        capsys.readouterr()
        code = main(["detect", str(path)], out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: corrupt replay log: unknown column typecode 0x78")
        assert "in segment 0 (section segment.access)" in err
        assert err.count("\n") == 1 and "Traceback" not in err


def _drop_last_value(raw, group, width):
    """Drop the final value of the ``width``-th column of the group at
    ``group``, keeping the payload otherwise well formed."""
    offset = group
    for _ in range(width - 1):
        _, _, offset = read_column_group(raw, offset, 1)
    count, start = read_varint(raw, offset + 1)
    width_bytes = COLUMN_WIDTHS[chr(raw[offset])]
    end = start + count * width_bytes
    return (
        raw[: offset + 1]
        + encode_varint(count - 1)
        + raw[start : end - width_bytes]
        + raw[end:]
    )


class TestFanOutReaders:
    def test_scan_and_segment_read_agree_across_versions(self, tmp_path):
        from repro.record.binary_format import _encode_segmented

        log = _recorded()
        paths = {}
        for version in (4, 5):
            paths[version] = tmp_path / ("v%d.rprb" % version)
            paths[version].write_bytes(
                _encode_segmented(log, version, 64, True, None, True)
            )
        with MappedSegmentedReader(paths[4]) as v4, MappedSegmentedReader(
            paths[5]
        ) as v5:
            assert (v4.version, v5.version) == (4, 5)
            assert len(v4.index) == len(v5.index) > 2
            for old, new in zip(v4.index, v5.index):
                assert (old.first_ts, old.last_ts) == (new.first_ts, new.last_ts)
                old_payload = v4.segment_payload(old)
                new_payload = v5.segment_payload(new)
                assert scan_segment_sequencers(
                    old_payload, 4
                ) == scan_segment_sequencers(new_payload, 5)
                assert read_segment_payload(
                    old_payload, 4, keep_heap=False
                ) == read_segment_payload(new_payload, 5, keep_heap=False)

    def test_v5_segment_cut_mid_column(self):
        data = encode_log_segmented(_recorded())
        frames = _frames(data)
        raw = frames[1][1]
        access = _first_thread_groups(raw)["access"]
        cut = raw[: access + 4]
        frames[1][1] = cut
        truncated = _container(frames)
        for name, read in READERS:
            with pytest.raises(LogFormatError) as info:
                read(truncated)
            assert info.value.segment == 0, name
            assert info.value.section == "segment.access", name
        with pytest.raises(LogFormatError) as info:
            read_segment_payload(cut, 5, keep_heap=False)
        assert info.value.segment == 0
        assert read_segment_payload(raw, 5, keep_heap=False).ordinal == 0

    @pytest.mark.parametrize("value", (255, 65535, 2**32 - 1, 2**64 - 1))
    def test_every_value_width_reads_into_packed_columns(self, value):
        # The widest value of a column picks its typecode; the packed
        # from-log and per-segment columns take each width alike.
        log = _recorded()
        for columns in log.captured.threads.values():
            columns.values[0] = value
        v4 = encode_log(log, version=4)
        v5 = encode_log(log, version=5)
        sections = decode_log_sections(v5)
        assert sections.captured == decode_log_sections(v4).captured
        assert value in sections.captured[next(iter(sections.captured))].values
        assert list(iter_segments(v5)) == list(iter_segments(v4))

    def test_encode_log_still_writes_v4(self):
        log = _recorded()
        v4 = encode_log(log, version=4)
        v5 = encode_log(log, version=5)
        assert (v4[len(MAGIC)], v5[len(MAGIC)]) == (4, 5)
        assert v5 == encode_log_segmented(log)
        assert decode_log(v4) == decode_log(v5) == log
