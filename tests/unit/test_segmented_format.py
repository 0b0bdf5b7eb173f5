"""Unit tests for the v4 segmented container and the segment cursor.

Covers the pieces the streaming equivalence properties treat as a black
box: the deterministic window-sealing rule, races whose regions straddle
a segment boundary, the cursor's ordering/consistency errors (with the
offending segment ordinal and step in the message), the streaming
recorder, the version gates on the streaming view, and the typed
:class:`LogFormatError` every reader raises on a truncated container.
"""

import zlib

import pytest

from repro.analysis.pipeline import detect_only, detection_report, render_report
from repro.isa import assemble
from repro.record import load_log, record_run, record_run_segmented
from repro.record.binary_format import (
    MAGIC,
    SEGMENTED_FORMAT_VERSION,
    CapturedColumnView,
    LogFormatError,
    MappedSegmentedReader,
    SegmentedLogWriter,
    _read_sequencers,
    _Reader,
    decode_log,
    decode_log_sections,
    encode_log,
    encode_log_segmented,
    is_segmented_log,
    iter_segments,
    read_segment_index,
    read_segment_payload,
    read_segmented_header,
)
from repro.record.compression import decode_varint, encode_varint
from repro.replay.errors import ReplayDivergence, stream_context
from repro.replay.log_view import (
    LogViewUnavailable,
    RowView,
    SegmentCursor,
    StreamingLogView,
)
from repro.vm import RandomScheduler

RACY_COUNTER = """
.data
counter: .word 0
m: .word 0
.thread racer_a
    load r1, [counter]
    addi r1, r1, 1
    store r1, [counter]
    lock [m]
    load r2, [counter]
    unlock [m]
    load r1, [counter]
    addi r1, r1, 1
    store r1, [counter]
    halt
.thread racer_b
    load r1, [counter]
    addi r1, r1, 2
    store r1, [counter]
    lock [m]
    load r2, [counter]
    unlock [m]
    load r1, [counter]
    addi r1, r1, 2
    store r1, [counter]
    halt
"""


def _recorded(seed=9, switch_probability=0.4):
    program = assemble(RACY_COUNTER, name="seg_unit")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=switch_probability),
        seed=seed,
    )
    return program, log


def _segments(log, budget):
    """The segments of ``log``'s v5 container at ``budget``, decoded."""
    return list(iter_segments(encode_log_segmented(log, segment_bytes=budget)))


class TestWindowSealing:
    def test_small_budget_seals_many_segments_deterministically(self):
        _, log = _recorded()
        small = _segments(log, 64)
        again = _segments(log, 64)
        large = _segments(log, 1 << 20)
        assert len(small) > 1
        assert len(large) == 1
        assert [view.ordinal for view in small] == list(range(len(small)))
        # Same log, same budget — same cuts, every time.
        assert [
            (view.first_ts, view.last_ts) for view in small
        ] == [(view.first_ts, view.last_ts) for view in again]

    def test_segments_are_globally_timestamp_ordered(self):
        _, log = _recorded()
        views = _segments(log, 64)
        previous_last = -1
        for view in views:
            assert view.first_ts <= view.last_ts
            assert view.first_ts > previous_last
            previous_last = view.last_ts

    def test_file_cuts_match_in_memory_cuts(self):
        """Cutting the log decoded back out of a container again gives
        the container's own cuts."""
        _, log = _recorded()
        data = encode_log_segmented(log, segment_bytes=64)
        assert is_segmented_log(data)
        assert read_segmented_header(data).version == SEGMENTED_FORMAT_VERSION
        from_bytes = list(iter_segments(data))
        in_memory = _segments(decode_log(data), 64)
        assert len(from_bytes) > 1
        assert [(view.ordinal, view.first_ts, view.last_ts) for view in from_bytes] == [
            (view.ordinal, view.first_ts, view.last_ts) for view in in_memory
        ]
        assert [entry.offset for entry in read_segment_index(data)] == sorted(
            entry.offset for entry in read_segment_index(data)
        )

    def test_non_positive_budget_is_rejected(self):
        _, log = _recorded()
        with pytest.raises(ValueError):
            encode_log_segmented(log, segment_bytes=0)

    def test_writer_refuses_double_finish(self):
        import io

        writer = SegmentedLogWriter(
            io.BytesIO(),
            program_name="p",
            program_source="",
            seed=0,
            scheduler="",
            has_captured=False,
        )
        writer.finish(threads={})
        with pytest.raises(ValueError, match="finished"):
            writer.finish(threads={})


class TestSegmentBoundaryRaces:
    def test_races_straddling_boundaries_survive_streaming(self):
        _, log = _recorded()
        v3 = encode_log(log, version=3)
        expected = render_report(
            detection_report(detect_only(v3, mode="from-log"))
        )
        v4 = encode_log_segmented(log, segment_bytes=64)
        assert len(list(iter_segments(v4))) > 1
        streamed = detect_only(v4, mode="stream")
        assert render_report(detection_report(streamed)) == expected
        assert streamed.instance_count > 0
        assert streamed.path == "stream"

    def test_streaming_detector_rejects_unsorted_regions(self):
        from repro.race.happens_before import StreamingHappensBeforeDetector

        _, log = _recorded()
        cursor = SegmentCursor()
        regions = []
        for segment in _segments(log, 1 << 20):
            regions.extend(cursor.feed(segment))
        regions.extend(cursor.finish())
        assert len(regions) >= 2
        detector = StreamingHappensBeforeDetector()
        detector.add_region(*regions[1])
        with pytest.raises(ValueError, match="fed out of order"):
            detector.add_region(*regions[0])


class TestCursorSkip:
    def test_skipped_prelude_releases_the_regions_closing_after_it(self):
        """A fan-out worker skips the segments before its range: the
        cursor must then build exactly the regions that close after the
        cut — numbered as if it had read everything."""
        _, log = _recorded()
        views = _segments(log, 64)
        full = SegmentCursor()
        everything = []
        for view in views:
            everything.extend(full.feed(view))
        everything.extend(full.finish())
        for cut in range(1, len(views)):
            cursor = SegmentCursor()
            for view in views[:cut]:
                for name, thread in view.threads.items():
                    if thread.sequencers:
                        last = thread.sequencers[-1]
                        cursor.skip(
                            name,
                            thread.tid,
                            len(thread.sequencers),
                            (last.thread_step, last.timestamp, last.kind),
                        )
            released = []
            for view in views[cut:]:
                released.extend(cursor.feed(view))
            released.extend(cursor.finish())
            prelude_end = views[cut - 1].last_ts
            assert released == [
                item for item in everything if item[0].end_ts > prelude_end
            ]

    def test_claimed_rows_leave_the_buffer(self):
        """Resident rows stay bounded by the open regions: once the
        segment holding a region's closing sequencer is in, its rows
        leave the per-thread buffers."""
        _, log = _recorded()
        views = _segments(log, 64)
        cursor = SegmentCursor()
        for view in views:
            cursor.feed(view)
            buffered = sum(len(_buffered(cursor, name)) for name in cursor._threads)
            fed = sum(len(thread.columns.steps) for thread in view.threads.values())
            # Only the sync rows of each thread's last sequencer wait for
            # the next region.
            assert buffered <= fed + len(cursor._threads)

    def test_stream_index_stats_match_the_batch_index(self):
        _, log = _recorded()
        batch = detect_only(encode_log(log, version=3), mode="from-log")
        streamed = detect_only(
            encode_log_segmented(log, segment_bytes=64), mode="stream"
        )
        assert (
            streamed.source.access_index().stats()
            == batch.source.access_index().stats()
        )


class _Opaque:
    """A static id that refuses to be compared: claiming rows must
    decide on the step alone."""

    def __eq__(self, other):
        raise AssertionError("row static ids compared")

    __lt__ = __gt__ = __le__ = __ge__ = __eq__
    __hash__ = object.__hash__


def _columns(rows):
    """``(step, flag, address, value, static_id)`` rows as the five
    columns a segment carries."""
    columns = CapturedColumnView()
    for step, flag, address, value, static_id in rows:
        columns.steps.append(step)
        columns.flags.append(flag)
        columns.addresses.append(address)
        columns.values.append(value)
        columns.static_ids.append(static_id)
    return columns


def _buffered(cursor, name):
    """A thread's fed rows no completed region has claimed yet."""
    return [
        row
        for columns, offset in cursor._threads[name].chunks
        for row in RowView(columns, offset, len(columns.steps))
    ]


class TestCursorClaim:
    def test_rows_at_the_closing_step_wait_for_the_next_region(self):
        """A region claims the rows below its closing step.  The rows at
        that step belong to the closing sync instruction: they stay
        buffered, and the next region drops them as sync stragglers
        below its start step."""
        sid = _Opaque()
        stragglers = [(2, 2, 0x40, 0, sid), (2, 3, 0x40, 1, sid)]
        first = [(3, 0, 0x10, 5, sid), (4, 1, 0x10, 6, sid), (4, 0, 0x18, 6, sid)]
        at_close = [(5, 2, 0x40, 1, sid), (5, 3, 0x40, 0, sid), (5, 2, 0x48, 0, sid)]
        second = [(6, 1, 0x10, 7, sid), (6, 0, 0x18, 7, sid)]
        cursor = SegmentCursor()
        cursor.add(
            0,
            "t",
            1,
            [(2, 1, "lock"), (5, 3, "unlock")],
            _columns(stragglers + first + at_close),
        )
        assert _buffered(cursor, "t") == at_close
        cursor.add(1, "t", 1, [(7, 5, "lock")], _columns(second))
        assert _buffered(cursor, "t") == []
        released = cursor.finish()
        assert [(region.start_step, region.end_step) for region, _ in released] == [
            (3, 5),
            (6, 7),
        ]
        assert [rows for _, rows in released] == [first, second]

    def test_plain_row_below_the_window_is_refused(self):
        cursor = SegmentCursor()
        with pytest.raises(LogViewUnavailable, match="below its region window"):
            cursor.add(
                0, "t", 1, [(2, 1, "lock"), (5, 3, "unlock")],
                _columns([(2, 0, 0x10, 0, None), (3, 0, 0x10, 0, None)]),
            )

    def test_a_region_inside_one_segment_is_a_view_of_its_columns(self):
        """No copy: every released region of a recorded stream lies in
        one segment, and its rows are a slice of that segment's own
        column objects."""
        _, log = _recorded()
        cursor = SegmentCursor()
        fed = []
        released = []
        for view in _segments(log, 64):
            fed.extend(thread.columns for thread in view.threads.values())
            released.extend(cursor.feed(view))
        released.extend(cursor.finish())
        assert any(len(rows) for _, rows in released)
        for region, rows in released:
            if len(rows):
                assert any(rows.columns is columns for columns in fed), region

    def test_a_region_across_segments_copies_its_rows_once(self):
        sid = _Opaque()
        head = [(3, 0, 0x10, 5, sid), (4, 1, 0x10, 6, sid)]
        tail = [(4, 0, 0x18, 6, sid), (5, 2, 0x40, 1, sid)]
        cursor = SegmentCursor()
        cursor.add(0, "t", 1, [(2, 1, "lock")], _columns(head))
        cursor.add(1, "t", 1, [(5, 3, "unlock")], _columns(tail))
        [(region, rows)] = cursor.finish()
        assert (region.start_step, region.end_step) == (3, 5)
        assert rows == head + tail[:1]
        assert (rows.lo, rows.hi) == (0, 3)


class TestCursorErrors:
    def test_out_of_order_segments_name_segment_and_step(self):
        _, log = _recorded()
        views = _segments(log, 64)
        assert len(views) > 1
        cursor = SegmentCursor()
        cursor.feed(views[-1])
        with pytest.raises(LogViewUnavailable) as excinfo:
            for view in views[:-1]:
                cursor.feed(view)
        message = str(excinfo.value)
        assert "at segment" in message
        assert "step" in message

    def test_replay_divergence_carries_stream_context(self):
        error = ReplayDivergence("value mismatch", thread_step=7, segment=3)
        assert error.thread_step == 7
        assert error.segment == 3
        assert "(at segment 3, step 7)" in str(error)
        assert stream_context(segment=2) == " (at segment 2)"
        assert stream_context(thread_step=5) == " (at step 5)"
        assert stream_context() == ""
        # Existing single-argument raises are unaffected.
        assert str(ReplayDivergence("plain")) == "plain"


class TestStreamingViewGates:
    @pytest.mark.parametrize("version", (1, 2))
    def test_v1_v2_containers_are_refused(self, version):
        _, log = _recorded()
        data = encode_log(log, version=version)
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(data)

    def test_captureless_v3_is_refused(self):
        _, log = _recorded()
        data = encode_log(log, version=3, include_captured=False)
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(data)

    def test_captureless_v4_is_refused(self):
        _, log = _recorded()
        data = encode_log_segmented(log, include_captured=False)
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(data)

    def test_non_binary_bytes_are_refused(self):
        with pytest.raises(LogViewUnavailable):
            StreamingLogView.from_bytes(b'{"not": "a container"}')

    def test_only_segmented_containers_stream(self):
        """A monolithic v3 container and a JSON log have captured
        columns but no segments: a forced stream refuses both."""
        import json

        from repro.analysis.pipeline import analyze_log_stream
        from repro.record.serialization import log_to_json

        _, log = _recorded()
        v3 = encode_log(log, version=3)
        as_json = json.dumps(log_to_json(log)).encode("utf-8")
        with pytest.raises(LogViewUnavailable, match="segmented"):
            detect_only(v3, mode="stream")
        for data in (v3, as_json):
            with pytest.raises(LogViewUnavailable, match="segmented"):
                analyze_log_stream(data)


class TestStreamingRecorder:
    def test_segmented_recording_round_trips(self, tmp_path):
        program, batch_log = _recorded(seed=11)
        destination = tmp_path / "run.rprb"
        _, stream_log = record_run_segmented(
            program,
            destination,
            scheduler=RandomScheduler(seed=11, switch_probability=0.4),
            seed=11,
            segment_bytes=128,
        )
        # The streaming log keeps captured columns in the file only.
        assert stream_log.captured is None
        decoded = load_log(destination)
        assert decoded == batch_log
        assert decoded.captured is not None
        for name, columns in batch_log.captured.threads.items():
            assert decoded.captured.threads[name] == columns

    def test_segmented_recording_streams_detection(self, tmp_path):
        program, batch_log = _recorded(seed=11)
        destination = tmp_path / "run.rprb"
        record_run_segmented(
            program,
            destination,
            scheduler=RandomScheduler(seed=11, switch_probability=0.4),
            seed=11,
            segment_bytes=128,
        )
        data = destination.read_bytes()
        assert is_segmented_log(data)
        expected = render_report(
            detection_report(
                detect_only(encode_log(batch_log, version=3), mode="from-log")
            )
        )
        assert render_report(
            detection_report(detect_only(data, mode="stream"))
        ) == expected

    @pytest.mark.parametrize("seed", [3, 9, 11, 17])
    @pytest.mark.parametrize("budget", [32, 64, 128, 4096])
    def test_recorded_container_is_canonical(self, tmp_path, seed, budget):
        """The recorder cuts where the encoder cuts: a sync instruction's
        own rows attach to its sequencer, so re-encoding the decoded
        recording at the same budget gives back the recorded bytes."""
        program = assemble(RACY_COUNTER, name="seg_unit")
        destination = tmp_path / "run.rprb"
        record_run_segmented(
            program,
            destination,
            scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
            seed=seed,
            segment_bytes=budget,
        )
        data = destination.read_bytes()
        assert encode_log_segmented(decode_log(data), segment_bytes=budget) == data

    def test_save_log_rejects_json_with_segments(self, tmp_path):
        from repro.record.serialization import save_log

        _, log = _recorded()
        with pytest.raises(ValueError):
            save_log(log, tmp_path / "log.json", segment_bytes=64)


def _frames(data):
    """``(tag, compressed payload)`` for each frame of a segmented
    container (a v5 frame head also declares the inflated length)."""
    frames = []
    offset = len(MAGIC) + 1
    while offset < len(data):
        tag, offset = decode_varint(data, offset)
        length, offset = decode_varint(data, offset)
        if data[len(MAGIC)] >= 5:
            _, offset = decode_varint(data, offset)
        frames.append((tag, data[offset : offset + length]))
        offset += length
    return frames


def _container(data, frames):
    def head(tag, payload):
        head = encode_varint(tag) + encode_varint(len(payload))
        if data[len(MAGIC)] >= 5:
            head += encode_varint(len(zlib.decompress(payload)))
        return head

    return data[: len(MAGIC) + 1] + b"".join(
        head(tag, payload) + payload for tag, payload in frames
    )


def _cut_mid_row(raw):
    """Cut a decompressed v4 segment payload inside the second access
    row of its first thread."""
    reader = _Reader(raw)
    reader.skip_uints(3)  # ordinal, first_ts, last_ts
    reader.uint()  # thread count
    reader.text(), reader.uint(), reader.text()
    _read_sequencers(reader)
    assert reader.uint() >= 2  # access rows of the first thread
    reader.skip_uints(5)  # the whole first row
    return raw[: reader.offset + 2]


class TestTruncatedContainers:
    """Every reader turns a cut container into a :class:`LogFormatError`
    (a ``ValueError``) naming the byte offset, never an ``IndexError``."""

    def test_frame_header_cut(self, tmp_path):
        _, log = _recorded()
        data = encode_log_segmented(log, segment_bytes=64)
        entry = read_segment_index(data)[1]
        cut = data[: entry.offset + 1]  # the tag byte, then nothing
        for read in (decode_log, decode_log_sections, lambda d: list(iter_segments(d))):
            with pytest.raises(LogFormatError) as info:
                read(cut)
            assert info.value.offset == entry.offset
            assert "truncated frame header" in str(info.value)
        path = tmp_path / "cut.rprb"
        path.write_bytes(cut)
        with pytest.raises(LogFormatError):
            MappedSegmentedReader(path)

    def test_frame_payload_cut_names_the_segment(self):
        _, log = _recorded()
        data = encode_log_segmented(log, segment_bytes=64)
        entry = read_segment_index(data)[2]
        with pytest.raises(LogFormatError) as info:
            decode_log_sections(data[: entry.offset + entry.length - 1])
        assert info.value.segment == 2
        assert info.value.offset == entry.offset

    def test_segment_payload_cut_mid_row(self):
        _, log = _recorded()
        data = encode_log(log, version=4)
        frames = _frames(data)
        assert [tag for tag, _ in frames].count(2) == 1
        raw = zlib.decompress(frames[1][1])
        cut = _cut_mid_row(raw)
        frames[1] = (2, zlib.compress(cut))
        truncated = _container(data, frames)
        readers = (
            decode_log,
            decode_log_sections,
            lambda d: list(iter_segments(d)),
        )
        for read in readers:
            with pytest.raises(LogFormatError) as info:
                read(truncated)
            assert info.value.segment == 0
            assert info.value.offset is not None
        # The fan-out worker's read of one owned segment (heap rows skipped).
        with pytest.raises(LogFormatError) as info:
            read_segment_payload(cut, 4, keep_heap=False)
        assert info.value.segment == 0
        # The uncut payload still decodes through the same readers.
        assert read_segment_payload(raw, 4, keep_heap=False).ordinal == 0

    def test_v3_captured_section_cut(self):
        _, log = _recorded()
        body = zlib.decompress(encode_log(log, version=3)[len(MAGIC) + 1 :])
        # Without captured columns the body ends at the has-captured flag,
        # so the captured section starts where that shorter body ends.
        bare = zlib.decompress(
            encode_log(log, version=3, include_captured=False)[len(MAGIC) + 1 :]
        )
        start = len(bare)
        assert body[: start - 1] == bare[:-1] and len(body) > start + 8
        cut = body[: start + (len(body) - start) // 2]
        truncated = MAGIC + bytes([3]) + zlib.compress(cut)
        for read in (decode_log, decode_log_sections):
            with pytest.raises(LogFormatError) as info:
                read(truncated)
            assert info.value.offset is not None
            assert info.value.offset <= len(cut)


class TestContainerHeader:
    """One header check fronts every binary reader: a foreign file, a
    cut header and an unknown version byte are each one
    :class:`LogFormatError`, carrying the rejected ``version``."""

    @staticmethod
    def _readers(tmp_path):
        def mapped(data):
            path = tmp_path / "header.rprb"
            path.write_bytes(data)
            MappedSegmentedReader(path).close()

        return (decode_log, decode_log_sections, read_segmented_header, mapped)

    def test_bad_magic(self, tmp_path):
        _, log = _recorded()
        data = b"NOPE" + encode_log_segmented(log)[len(MAGIC) :]
        for read in self._readers(tmp_path):
            with pytest.raises(LogFormatError) as info:
                read(data)
            assert info.value.version is None
            assert info.value.offset == 0
            assert "bad magic" in str(info.value)

    @pytest.mark.parametrize("version", (0, SEGMENTED_FORMAT_VERSION + 1, 99))
    def test_unknown_version(self, tmp_path, version):
        _, log = _recorded()
        data = bytearray(encode_log_segmented(log))
        data[len(MAGIC)] = version
        for read in self._readers(tmp_path):
            with pytest.raises(LogFormatError) as info:
                read(bytes(data))
            assert info.value.version == version
            assert info.value.offset == len(MAGIC)
            assert "unsupported binary replay-log format version: %d" % version in str(
                info.value
            )

    def test_cut_before_the_version_byte(self, tmp_path):
        for read in self._readers(tmp_path):
            with pytest.raises(LogFormatError, match="truncated container header"):
                read(MAGIC)

    def test_known_monolithic_version_is_no_format_error(self, tmp_path):
        """A valid v3 container is not corrupt: the segmented readers
        refuse it with a plain ``ValueError`` naming the version gap."""
        _, log = _recorded()
        data = encode_log(log, version=3)
        for read in self._readers(tmp_path)[2:]:
            with pytest.raises(ValueError, match="predates") as info:
                read(data)
            assert not isinstance(info.value, LogFormatError)
