"""Property-based tests: the segmented container and the streaming path.

Three invariant families over random recorded programs (and random
segment budgets, so cut points land everywhere):

* **Canonical form** — ``encode_log_segmented`` round-trips: decoding a
  segmented container reproduces the monolithic decode of the same log,
  and re-encoding the decoded log is byte-identical for every segment
  budget.
* **Concatenated segments ≡ monolithic view** — replaying the segment
  stream through the cursor yields exactly the regions the batch
  :class:`LogView` computes (same order, same fields, same rows up to
  the sync filter), and the streaming access window finishes with the
  same accesses/addresses/writes the batch :class:`AccessIndex` holds.
* **Stream detect ≡ batch detect ≡ parallel detect** —
  ``detect_only(mode="stream")`` and the segment-fanout
  ``detect_only(mode="parallel", jobs=N)`` both render byte-identically
  to the from-log and replay paths, for segmented bytes at several
  budgets (small budgets put racing regions on opposite sides of segment
  cuts, exercising the fanout's boundary stitching).
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.pipeline import (
    analyze_log,
    analyze_log_stream,
    detect_only,
    detection_report,
    execution_report,
    render_report,
)
from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import (
    decode_log,
    encode_log,
    encode_log_segmented,
    iter_segments,
    read_segment_index,
)
from repro.replay import LogView
from repro.replay.log_view import SegmentCursor
from repro.vm import RandomScheduler

from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Small budgets force many segments (and cuts at every boundary class);
#: the large one degenerates to a single segment.
segment_budgets = st.sampled_from((64, 160, 512, 4096, 1 << 20))


def _recording(source, seed):
    program = assemble(source, name="prop_stream")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, log


def _segments(log, budget):
    return iter_segments(encode_log_segmented(log, segment_bytes=budget))


class TestSegmentedContainerCanonicalForm:
    @given(source=programs(), seed=seeds, budget=segment_budgets)
    @_SETTINGS
    def test_v4_round_trip_matches_monolithic_decode(self, source, seed, budget):
        _, log = _recording(source, seed)
        data = encode_log_segmented(log, segment_bytes=budget)
        decoded = decode_log(data)
        assert decoded == decode_log(encode_log(log, version=3))
        assert decoded.captured is not None
        for name, columns in log.captured.threads.items():
            assert decoded.captured.threads[name] == columns

    @given(source=programs(), seed=seeds, budget=segment_budgets)
    @_SETTINGS
    def test_encode_decode_encode_is_byte_stable(self, source, seed, budget):
        _, log = _recording(source, seed)
        first = encode_log_segmented(log, segment_bytes=budget)
        second = encode_log_segmented(decode_log(first), segment_bytes=budget)
        assert first == second

    @given(source=programs(), seed=seeds, budget=segment_budgets)
    @_SETTINGS
    def test_footer_index_covers_every_segment(self, source, seed, budget):
        _, log = _recording(source, seed)
        data = encode_log_segmented(log, segment_bytes=budget)
        index = read_segment_index(data)
        views = list(iter_segments(data))
        assert [entry.ordinal for entry in index] == [
            view.ordinal for view in views
        ]
        assert [entry.ordinal for entry in index] == list(range(len(views)))
        for entry, view in zip(index, views):
            assert entry.first_ts == view.first_ts
            assert entry.last_ts == view.last_ts


class TestConcatenatedSegmentsEqualMonolithicView:
    @given(source=programs(), seed=seeds, budget=segment_budgets)
    @_SETTINGS
    def test_cursor_regions_match_batch_log_view(self, source, seed, budget):
        _, log = _recording(source, seed)
        batch = LogView.from_log(log)
        # The batch view numbers sync-only regions too; the cursor only
        # releases regions with at least one plain step — project the
        # batch list down before comparing.
        expected = [
            region for region in batch.all_regions() if region.step_count > 0
        ]
        cursor = SegmentCursor()
        streamed = []
        for segment in _segments(log, budget):
            streamed.extend(region for region, _ in cursor.feed(segment))
        streamed.extend(region for region, _ in cursor.finish())
        assert streamed == expected

    @given(source=programs(), seed=seeds, budget=segment_budgets)
    @_SETTINGS
    def test_streaming_window_totals_match_access_index(self, source, seed, budget):
        from repro.analysis.access_index import StreamingAccessWindow

        _, log = _recording(source, seed)
        batch_stats = LogView.from_log(log).access_index().stats()
        window = StreamingAccessWindow()
        cursor = SegmentCursor()

        def admit_all(released):
            for region, rows in released:
                window.admit(region, rows)

        for segment in _segments(log, budget):
            admit_all(cursor.feed(segment))
        admit_all(cursor.finish())
        stats = window.stats()
        # The batch index also numbers regions with only sync accesses;
        # every other aggregate must agree exactly.
        assert stats["accesses"] == batch_stats["accesses"]
        assert stats["addresses"] == batch_stats["addresses"]
        assert stats["writes"] == batch_stats["writes"]
        assert stats["regions"] <= batch_stats["regions"]


class TestStreamDetectEqualsBatchDetect:
    @given(
        source=programs(),
        seed=seeds,
        budget=segment_budgets,
        jobs=st.sampled_from((2, 3, 4)),
    )
    @_SETTINGS
    def test_stream_report_bytes_match_both_batch_paths(
        self, source, seed, budget, jobs
    ):
        _, log = _recording(source, seed)
        v3 = encode_log(log, version=3)
        expected = render_report(
            detection_report(detect_only(v3, mode="from-log"))
        )
        assert expected == render_report(
            detection_report(detect_only(v3, mode="replay"))
        )
        v4 = encode_log_segmented(log, segment_bytes=budget)
        assert expected == render_report(
            detection_report(detect_only(v4, mode="stream"))
        )
        # The parallel fanout sweeps the same container from a file —
        # spooled here so the workers can mmap it — and must merge back
        # to the exact same bytes, whatever the cut points and fan width.
        with tempfile.NamedTemporaryFile(suffix=".rprb") as handle:
            handle.write(v4)
            handle.flush()
            assert expected == render_report(
                detection_report(
                    detect_only(handle.name, mode="parallel", jobs=jobs)
                )
            )

    @given(source=programs(), seed=seeds)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_eager_classification_report_matches_batch(self, source, seed):
        _, log = _recording(source, seed)
        expected = render_report(execution_report(analyze_log(log)))
        v4 = encode_log_segmented(log, segment_bytes=256)
        streamed = render_report(
            execution_report(analyze_log_stream(v4))
        )
        assert streamed == expected
