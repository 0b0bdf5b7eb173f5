"""Property-based tests: the segment cursor's row views.

The segment cursor releases each region's rows as a
:class:`~repro.replay.log_view.RowView` — rows ``[lo, hi)`` of the
segment's decoded columns — instead of a list of row tuples.  Over
random recorded programs and random segment budgets:

* **A view is the old row shape** — every released region's view
  iterates to exactly the ``(step, flag, address, value, static_id)``
  tuples that bisecting the log's captured columns on the region's step
  window gives, for segments decoded from the v5 container bytes.
* **Spanning segments changes nothing** — feeding each thread's part of
  a segment as two column chunks split at a random row makes regions
  span two chunks; the cursor must release the same regions with the
  same rows.
"""

from bisect import bisect_left

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import (
    CapturedColumnView,
    encode_log_segmented,
    iter_segments,
)
from repro.replay.log_view import SegmentCursor
from repro.vm import RandomScheduler

from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

segment_budgets = st.sampled_from((64, 160, 512, 4096, 1 << 20))

_COLUMNS = ("steps", "flags", "addresses", "values", "static_ids")


def _recording(source, seed):
    program = assemble(source, name="prop_row_view")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return log


def _segments(log, budget):
    return list(iter_segments(encode_log_segmented(log, segment_bytes=budget)))


def _released(segments):
    cursor = SegmentCursor()
    released = []
    for segment in segments:
        released.extend(cursor.feed(segment))
    released.extend(cursor.finish())
    return released


def _sequencers(thread):
    return [
        (sequencer.thread_step, sequencer.timestamp, sequencer.kind)
        for sequencer in thread.sequencers
    ]


def _slice(columns, lo, hi):
    return CapturedColumnView(
        *(getattr(columns, name)[lo:hi] for name in _COLUMNS)
    )


def _released_split(segments, draw):
    """Feed every thread's part of a segment as two column chunks."""
    cursor = SegmentCursor()
    released = []
    for segment in segments:
        for name, thread in segment.threads.items():
            columns = thread.columns
            count = len(columns.steps)
            cut = draw(st.integers(0, count))
            cursor.add(
                segment.ordinal, name, thread.tid, [], _slice(columns, 0, cut)
            )
            cursor.add(
                segment.ordinal,
                name,
                thread.tid,
                _sequencers(thread),
                _slice(columns, cut, count),
            )
        released.extend(cursor.seal(segment.last_ts))
    released.extend(cursor.finish())
    return released


def _bisected(columns, region):
    """The old row shape: the region's step window of the captured
    columns, as row tuples."""
    lo = bisect_left(columns.steps, region.start_step)
    hi = bisect_left(columns.steps, region.end_step, lo)
    return list(zip(*(getattr(columns, name)[lo:hi] for name in _COLUMNS)))


class TestRowViews:
    @given(
        source=programs(),
        seed=seeds,
        budget=segment_budgets,
    )
    @_SETTINGS
    def test_views_iterate_to_the_bisected_rows(self, source, seed, budget):
        log = _recording(source, seed)
        released = _released(_segments(log, budget))
        assert released
        captured = log.captured.threads
        for region, rows in released:
            expected = _bisected(captured[region.thread_name], region)
            assert len(rows) == len(expected)
            assert list(rows) == expected, region

    @given(
        source=programs(),
        seed=seeds,
        budget=segment_budgets,
        data=st.data(),
    )
    @_SETTINGS
    def test_regions_spanning_chunks_release_the_same_rows(
        self, source, seed, budget, data
    ):
        log = _recording(source, seed)
        segments = _segments(log, budget)
        whole = _released(segments)
        split = _released_split(segments, data.draw)
        assert [region for region, _ in split] == [region for region, _ in whole]
        for (region, rows), (_, expected) in zip(split, whole):
            assert list(rows) == list(expected), region
