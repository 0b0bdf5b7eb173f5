"""Property-based tests: the sweep's row-store protocol.

The sweep reads regions through three calls — ``addresses_of``,
``accesses_at`` and ``retire`` — answered by two stores.  Over random
recorded programs:

* **One answer per (region, address)** — ``accesses_at`` returns the
  same ``(step, is_write, value, static_id)`` rows from the
  captured-column :class:`AccessIndex`, the one built over the generic
  replay oracle (``tests/reference_interp.py``) and the
  :class:`StreamingAccessWindow`, and
  they equal the oracle's per-address grouping of the replayed accesses
  (``tests/reference_detector.py``).
* **Sync rows inside a region are dropped** — recordings never put a
  sync row strictly inside a region, so sync copies of random rows are
  injected into the captured columns; both stores must filter them and
  still answer exactly as the oracle does.
* **The cap** — with a small ``max_pairs_per_location`` every store's
  sweep emits the oracle's instances and counts the oracle's
  ``truncated_locations``.
"""

from bisect import bisect_left
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.access_index import AccessIndex, StreamingAccessWindow
from repro.isa import assemble
from repro.race.happens_before import (
    HappensBeforeDetector,
    StreamingHappensBeforeDetector,
)
from repro.record import record_run
from repro.record.binary_format import (
    encode_log,
    encode_log_segmented,
    iter_segments,
)
from repro.replay import LogView, OrderedReplay
from repro.replay.log_view import SegmentCursor
from repro.vm import RandomScheduler

from reference_detector import NaiveHappensBeforeDetector
from reference_interp import ReferenceOrderedReplay, stripped
from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Two threads racing on ``x`` every iteration: far more conflicting
#: pairs per region pair than any cap drawn below.
LOOPY = (
    ".data\nx: .word 0\n.thread a b\n    li r1, 12\nl:\n    load r2, [x]\n"
    "    addi r2, r2, 1\n    store r2, [x]\n    subi r1, r1, 1\n"
    "    bnez r1, l\n    halt\n"
)


def _recording(source, seed):
    program = assemble(source, name="prop_row_store")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, log


def _oracle(ordered):
    """``{(tid, region index): {address: rows}}`` from the reference
    detector's own grouping of the replayed accesses."""
    naive = NaiveHappensBeforeDetector(ordered)
    return {
        (region.tid, region.index): {
            address: [
                (access.thread_step, access.is_write, access.value, access.static_id)
                for access in accesses
            ]
            for address, accesses in naive._index_accesses(region).items()
        }
        for region in ordered.all_regions()
        if not region.is_empty
    }


def _index_answers(index):
    return {
        (region.tid, region.index): {
            address: index.accesses_at(ordinal, address)
            for address in index.addresses_of(ordinal)
        }
        for ordinal, region in enumerate(index.regions)
    }


def _window_answers(released):
    """Admit ``(region, rows)`` in sweep order; a region without plain
    rows is not admitted and answers with no addresses."""
    window = StreamingAccessWindow()
    answers = {}
    for region, rows in released:
        ordinal = window.admit(region, rows)
        answers[(region.tid, region.index)] = (
            {}
            if ordinal is None
            else {
                address: window.accesses_at(ordinal, address)
                for address in window.addresses_of(ordinal)
            }
        )
    return answers


def _streamed(log):
    cursor = SegmentCursor()
    released = []
    for segment in iter_segments(encode_log_segmented(log, segment_bytes=64)):
        released.extend(cursor.feed(segment))
    released.extend(cursor.finish())
    return released


def _with_sync_rows(columns, picks):
    """Copies of ``columns`` with a sync-flagged duplicate after each
    picked row (same step, so the columns stay step-sorted)."""
    out = SimpleNamespace(steps=[], flags=[], addresses=[], values=[], static_ids=[])
    for position, row in enumerate(
        zip(columns.steps, columns.flags, columns.addresses, columns.values, columns.static_ids)
    ):
        copies = [row]
        if position in picks:
            step, flag, address, value, static_id = row
            copies.append((step, flag | 2, address ^ 8, value + 1, static_id))
        for step, flag, address, value, static_id in copies:
            out.steps.append(step)
            out.flags.append(flag)
            out.addresses.append(address)
            out.values.append(value)
            out.static_ids.append(static_id)
    return out


def _rows_of(region, columns):
    """The ``(step, flag, address, value, static_id)`` rows of one
    region's step window, as the segment cursor hands them over."""
    lo = bisect_left(columns.steps, region.start_step)
    hi = bisect_left(columns.steps, region.end_step, lo)
    return list(
        zip(
            columns.steps[lo:hi],
            columns.flags[lo:hi],
            columns.addresses[lo:hi],
            columns.values[lo:hi],
            columns.static_ids[lo:hi],
        )
    )


class TestAccessesAt:
    @given(source=programs(), seed=seeds)
    @_SETTINGS
    def test_three_stores_and_the_oracle_agree(self, source, seed):
        program, log = _recording(source, seed)
        expected = _oracle(OrderedReplay(log, program))
        captured = LogView.from_bytes(encode_log(log)).access_index()
        replay_built = ReferenceOrderedReplay(stripped(log), program).access_index()
        assert _index_answers(captured) == expected
        assert _index_answers(replay_built) == expected
        windowed = _window_answers(_streamed(log))
        assert windowed == {key: expected[key] for key in windowed}
        assert all(expected[key] == {} for key in set(expected) - set(windowed))

    @given(source=programs(), seed=seeds, data=st.data())
    @_SETTINGS
    def test_sync_rows_inside_regions_are_filtered(self, source, seed, data):
        program, log = _recording(source, seed)
        ordered = OrderedReplay(log, program)
        expected = _oracle(ordered)
        injected = {}
        for name, columns in log.captured.threads.items():
            count = len(columns.steps)
            picks = data.draw(
                st.sets(st.integers(0, count - 1)) if count else st.just(set())
            )
            injected[name] = _with_sync_rows(columns, picks)
        regions = ordered.all_regions()
        index = AccessIndex.from_captured(regions, injected)
        assert _index_answers(index) == expected
        released = [
            (region, _rows_of(region, injected[region.thread_name]))
            for region in regions
            if not region.is_empty
        ]
        windowed = _window_answers(released)
        assert windowed == {key: expected[key] for key in windowed}


class TestCap:
    @staticmethod
    def _sweeps(program, log, cap):
        """Every store's sweep and the oracle, at one cap."""
        detectors = [
            HappensBeforeDetector(
                LogView.from_bytes(encode_log(log)), max_pairs_per_location=cap
            ),
            HappensBeforeDetector(
                ReferenceOrderedReplay(stripped(log), program),
                max_pairs_per_location=cap,
            ),
        ]
        results = [
            (detector.detect(), detector.truncated_locations) for detector in detectors
        ]
        streaming = StreamingHappensBeforeDetector(max_pairs_per_location=cap)
        for region, rows in _streamed(log):
            streaming.add_region(region, rows)
        results.append((streaming.finish(), streaming.truncated_locations))
        naive = NaiveHappensBeforeDetector(
            OrderedReplay(log, program), max_pairs_per_location=cap
        )
        return results, (naive.detect(), naive.truncated_locations)

    @given(seed=seeds, cap=st.integers(1, 4))
    @_SETTINGS
    def test_capped_loop_truncates_like_the_oracle(self, seed, cap):
        program, log = _recording(LOOPY, seed)
        results, oracle = self._sweeps(program, log, cap)
        assert oracle[1] > 0
        assert all(result == oracle for result in results)

    @given(source=programs(), seed=seeds, cap=st.integers(1, 3))
    @_SETTINGS
    def test_capped_random_programs_match_the_oracle(self, source, seed, cap):
        program, log = _recording(source, seed)
        results, oracle = self._sweeps(program, log, cap)
        assert all(result == oracle for result in results)
