"""Unit tests for the parallel segment-fanout detection path.

The contract under test is strict equivalence: fanning a v4 container's
segments across workers must yield the *byte-identical* detection report
the serial paths produce — same instances, same order, same truncation —
including when a racing pair's regions straddle a segment boundary and
are stitched back together by the boundary-overlap window.  The helpers
(`partition_segment_ranges`, `MappedSegmentedReader`) and the CLI's
input-driven path choice are covered alongside.  The fan-out is a
library path only: no CLI flag or service setting reaches it.
"""

import bisect
import io

import pytest

from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import detect_only, detection_report, render_report
from repro.cli import main
from repro.isa import assemble
from repro.race.happens_before import (
    parallel_detect_races,
    partition_segment_ranges,
)
from repro.record import binary_format, record_run
from repro.record.binary_format import (
    MappedSegmentedReader,
    encode_log,
    encode_log_segmented,
    read_segment_index,
    read_segmented_header,
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
    program = assemble(RACY_COUNTER, name="par_unit")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=switch_probability),
        seed=seed,
    )
    return program, log


def _segmented_file(tmp_path, log, segment_bytes=64, name="par.rprb"):
    data = encode_log_segmented(log, segment_bytes=segment_bytes)
    path = tmp_path / name
    path.write_bytes(data)
    return path, data


def _report_bytes(analysis) -> bytes:
    return render_report(detection_report(analysis))


class TestCrossBoundaryEquivalence:
    def test_all_four_paths_produce_identical_report_bytes(self, tmp_path):
        """replay / from-log / stream / parallel: one report, four engines."""
        _, log = _recorded()
        path, data = _segmented_file(tmp_path, log, segment_bytes=64)
        assert len(read_segment_index(data)) > 1

        replayed = detect_only(data, mode="replay")
        from_log = detect_only(data, mode="from-log")
        streamed = detect_only(data, mode="stream")
        fanned = detect_only(path, mode="parallel", jobs=3)

        reference = _report_bytes(replayed)
        assert _report_bytes(from_log) == reference
        assert _report_bytes(streamed) == reference
        assert _report_bytes(fanned) == reference
        assert fanned.instances == from_log.instances  # order included
        assert fanned.truncated_locations == from_log.truncated_locations
        assert fanned.path == "parallel"

    def test_a_racing_pair_actually_straddles_a_segment_boundary(self, tmp_path):
        """The equivalence above must exercise the boundary stitch, not
        dodge it: at a 64-byte budget at least one racing pair's regions
        open in *different* segments."""
        _, log = _recorded()
        path, data = _segmented_file(tmp_path, log, segment_bytes=64)
        entries = read_segment_index(data)
        first_ts = [entry.first_ts for entry in entries]

        def segment_of(ts):
            return bisect.bisect_right(first_ts, ts) - 1

        perf = PerfStats()
        analysis = detect_only(path, mode="parallel", jobs=3, perf=perf)
        assert analysis.instances
        spanning = [
            instance
            for instance in analysis.instances
            if segment_of(instance.region_a.start_ts)
            != segment_of(instance.region_b.start_ts)
        ]
        assert spanning
        assert perf.parallel_boundary_stitches > 0

    def test_parallel_stats_match_batch_access_index(self, tmp_path):
        _, log = _recorded()
        path, data = _segmented_file(tmp_path, log, segment_bytes=160)
        batch = detect_only(data, mode="from-log")
        fanned = detect_only(path, mode="parallel", jobs=3)
        assert fanned.source.access_index().stats() == batch.source.access_index().stats()

    def test_single_segment_container_still_works(self, tmp_path):
        _, log = _recorded()
        path, data = _segmented_file(tmp_path, log, segment_bytes=1 << 20)
        assert len(read_segment_index(data)) == 1
        fanned = detect_only(path, mode="parallel", jobs=4)
        batch = detect_only(data, mode="from-log")
        assert _report_bytes(fanned) == _report_bytes(batch)


class TestPartitionSegmentRanges:
    def _entries(self, weights):
        class Entry:
            def __init__(self, rows):
                self.access_rows = rows
                self.sequencer_rows = 0

        return [Entry(rows) for rows in weights]

    def test_ranges_tile_the_index_exactly(self):
        entries = self._entries([5, 1, 9, 2, 2, 7, 1, 4])
        for jobs in (1, 2, 3, 5, 8):
            ranges = partition_segment_ranges(entries, jobs)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(entries)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo  # contiguous, non-overlapping
            assert all(lo < hi for lo, hi in ranges)

    def test_jobs_clamped_to_segment_count(self):
        entries = self._entries([3, 3])
        assert len(partition_segment_ranges(entries, 16)) == 2
        assert len(partition_segment_ranges(entries, 0)) == 1

    def test_weight_balancing_splits_heavy_prefix(self):
        # One huge first segment: the greedy target must not also drag
        # every light segment into worker 0.
        entries = self._entries([100, 1, 1, 1])
        ranges = partition_segment_ranges(entries, 2)
        assert ranges == [(0, 1), (1, 4)]


class TestMappedSegmentedReader:
    def test_header_and_index_match_the_byte_readers(self, tmp_path):
        _, log = _recorded()
        path, data = _segmented_file(tmp_path, log, segment_bytes=128)
        with MappedSegmentedReader(path) as reader:
            assert reader.header == read_segmented_header(data)
            assert reader.index == read_segment_index(data)
            # Decompressed payloads parse: every entry round-trips its
            # own ordinal at the head of the payload.
            for position, entry in enumerate(reader.index):
                payload = reader.segment_payload(entry)
                assert payload  # non-empty decompressed bytes
                assert entry.ordinal == position

    def test_non_segmented_container_is_refused(self, tmp_path):
        _, log = _recorded()
        path = tmp_path / "v3.rprb"
        path.write_bytes(encode_log(log))
        with pytest.raises(ValueError):
            MappedSegmentedReader(path)


class TestParallelRejections:
    def test_v3_bytes_are_rejected_with_guidance(self):
        _, log = _recorded()
        with pytest.raises(ValueError, match="segmented container"):
            detect_only(encode_log(log), mode="parallel", jobs=2)

    def test_captureless_v4_is_refused_and_auto_replays(self, tmp_path):
        # Without captured columns the fanned workers would sweep no rows
        # and report a race-free log.
        _, log = _recorded()
        path = tmp_path / "nocap.rprb"
        path.write_bytes(encode_log_segmented(log, 64, include_captured=False))
        with pytest.raises(ValueError, match="captured access columns"):
            detect_only(path, mode="parallel", jobs=2)
        analysis = detect_only(path, jobs=2)
        assert analysis.path == "replay" and analysis.instances
        assert _report_bytes(analysis) == _report_bytes(
            detect_only(encode_log(log), mode="replay")
        )

    def test_bad_jobs_value_is_rejected(self, tmp_path):
        _, log = _recorded()
        path, _ = _segmented_file(tmp_path, log)
        with pytest.raises(ValueError, match="jobs"):
            detect_only(path, mode="parallel", jobs=0)

    def test_jobs_one_auto_mode_stays_serial(self, tmp_path):
        _, log = _recorded()
        path, data = _segmented_file(tmp_path, log)
        analysis = detect_only(path, mode="auto", jobs=1)
        assert analysis.path != "parallel"
        assert _report_bytes(analysis) == _report_bytes(
            detect_only(data, mode="from-log")
        )


class TestCliJobsValidation:
    @pytest.fixture()
    def seg_log(self, tmp_path):
        _, log = _recorded()
        path, _ = _segmented_file(tmp_path, log)
        return path

    def test_detect_has_no_path_flags(self, seg_log, capsys):
        # The log picks the detect path: naming a path or a worker count
        # is a usage error.
        for flag in ("--stream", "--from-log", "--jobs"):
            with pytest.raises(SystemExit) as excinfo:
                main(["detect", str(seg_log), flag], out=io.StringIO())
            assert excinfo.value.code == 2
            assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    def test_stream_alone_still_works(self, seg_log, tmp_path):
        """A v4 container streams with no flag, and prints what the
        monolithic encoding of the same recording prints."""
        _, log = _recorded()
        v3 = tmp_path / "v3.rprb"
        v3.write_bytes(encode_log(log))
        out = io.StringIO()
        assert main(["detect", str(seg_log), "--perf"], out=out) == 0
        assert "detect path: stream" in out.getvalue()
        streamed = io.StringIO()
        assert main(["detect", str(seg_log)], out=streamed) == 0
        serial = io.StringIO()
        assert main(["detect", str(v3)], out=serial) == 0
        assert streamed.getvalue() == serial.getvalue()

    def test_analyze_jobs_conflicts_with_stream(self, seg_log):
        # analyze has no path options: the log picks the path.
        for flags in (["--stream"], ["--jobs", "4", "--stream"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["analyze", str(seg_log)] + flags, out=io.StringIO())
            assert excinfo.value.code == 2

    def test_analyze_jobs_rejects_non_segmented_log(self, tmp_path):
        _, log = _recorded()
        path = tmp_path / "v3.rprb"
        path.write_bytes(encode_log(log))
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(path), "--jobs", "4"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert main(["analyze", str(path)], out=io.StringIO()) == 0

    def test_analyze_streams_only_segmented_logs(self, seg_log, tmp_path):
        _, log = _recorded()
        v3 = tmp_path / "v3.rprb"
        v3.write_bytes(encode_log(log))
        reports = []
        for path, streams in ((seg_log, True), (v3, False)):
            report = tmp_path / (path.stem + ".json")
            out = io.StringIO()
            argv = ["analyze", str(path), "--perf", "--json", str(report)]
            assert main(argv, out=out) == 0
            assert ("stream: 1 jobs" in out.getvalue()) is streams
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


class TestParallelDetectRaces:
    def test_worker_metadata_is_reported(self, tmp_path, monkeypatch):
        _, log = _recorded()
        path, data = _segmented_file(tmp_path, log, segment_bytes=64)
        segments = len(read_segment_index(data))
        # The parent inflates only the header and footer frames; the
        # workers (separate processes) inflate the segments.
        inflated = []
        real_inflate = binary_format._inflate

        def spying_inflate(payload, segment=None):
            inflated.append(segment)
            return real_inflate(payload, segment)

        monkeypatch.setattr(binary_format, "_inflate", spying_inflate)
        outcome = parallel_detect_races(path, jobs=3)
        assert inflated == [None, None]
        detect_only(path, mode="from-log")
        assert len(inflated) - 2 >= segments  # the spy sees a serial read
        assert outcome.segments == segments
        assert 1 <= outcome.workers <= 3
        assert len(outcome.worker_seconds) == outcome.workers
        assert outcome.header.program_name == "par_unit"
