"""Unit tests for the region-overlap happens-before detector."""

from repro.isa import assemble
from repro.race.happens_before import (
    HappensBeforeDetector,
    StreamingHappensBeforeDetector,
    find_races,
)
from repro.record import record_run
from repro.record.binary_format import encode_log_segmented, iter_segments
from repro.replay import OrderedReplay
from repro.replay.log_view import SegmentCursor
from repro.vm import ExplicitScheduler, RandomScheduler

from conftest import record_with_trace
from reference_detector import NaiveHappensBeforeDetector


def detect(source, seed=3, scheduler=None, name="hb", **kwargs):
    program = assemble(source, name=name)
    _, log = record_run(
        program,
        scheduler=scheduler or RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    ordered = OrderedReplay(log, program)
    return program, find_races(ordered, **kwargs), ordered


class TestDetection:
    def test_unsynchronized_rmw_detected(self):
        program, instances, _ = detect(
            ".data\nx: .word 0\n.thread a b\n    load r1, [x]\n"
            "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
        )
        assert instances
        assert all(i.address == program.data_address("x") for i in instances)
        assert all(i.involves_write for i in instances)

    def test_locked_program_is_silent(self):
        _, instances, _ = detect(
            ".data\nx: .word 0\nm: .word 0\n.thread a b\n    lock [m]\n"
            "    load r1, [x]\n    addi r1, r1, 1\n    store r1, [x]\n"
            "    unlock [m]\n    halt\n"
        )
        assert instances == []

    def test_atomic_program_is_silent(self):
        _, instances, _ = detect(
            ".data\nx: .word 0\n.thread a b\n    li r1, 1\n"
            "    atom_add r2, [x], r1\n    halt\n"
        )
        assert instances == []

    def test_read_read_is_not_a_race(self):
        _, instances, _ = detect(
            ".data\nx: .word 5\n.thread a b\n    load r1, [x]\n    halt\n"
        )
        assert instances == []

    def test_disjoint_addresses_not_raced(self):
        _, instances, _ = detect(
            ".data\nx: .word 0\ny: .word 0\n.thread a\n    li r1, 1\n"
            "    store r1, [x]\n    halt\n.thread b\n    li r1, 2\n"
            "    store r1, [y]\n    halt\n"
        )
        assert instances == []

    def test_single_thread_never_races(self):
        _, instances, _ = detect(
            ".data\nx: .word 0\n.thread t\n    load r1, [x]\n    li r2, 1\n"
            "    store r2, [x]\n    load r3, [x]\n    halt\n"
        )
        assert instances == []

    def test_serialized_by_schedule_still_races(self):
        """Even when thread a fully runs before b, no sequencer orders
        their accesses — the happens-before algorithm must still report
        the race (unlike an 'actually overlapped in time' heuristic)."""
        program, instances, _ = detect(
            ".data\nx: .word 0\n.thread a b\n    load r1, [x]\n"
            "    addi r1, r1, 1\n    store r1, [x]\n    halt\n",
            scheduler=ExplicitScheduler([0] * 8 + [1] * 8),
        )
        assert instances

    def test_sync_ordered_threads_do_not_race(self):
        """When a lock genuinely orders the two accesses, silence."""
        _, instances, _ = detect(
            ".data\nx: .word 0\nm: .word 0\n.thread a b\n"
            "    lock [m]\n    load r1, [x]\n    addi r1, r1, 1\n"
            "    store r1, [x]\n    unlock [m]\n    halt\n",
            scheduler=ExplicitScheduler([0] * 12 + [1] * 12),
        )
        assert instances == []


class TestInstanceStructure:
    def test_canonical_side_ordering(self):
        _, instances, _ = detect(
            ".data\nx: .word 0\n.thread a b\n    load r1, [x]\n"
            "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
        )
        for instance in instances:
            assert (instance.region_a.start_ts, instance.region_a.tid) <= (
                instance.region_b.start_ts,
                instance.region_b.tid,
            )
            assert instance.access_a.tid == instance.region_a.tid
            assert instance.access_b.tid == instance.region_b.tid

    def test_static_key_is_order_insensitive(self):
        _, instances, _ = detect(
            ".data\nx: .word 0\n.thread a b\n    load r1, [x]\n"
            "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
        )
        keys = {i.static_key for i in instances}
        for first, second in keys:
            assert first.sort_key() <= second.sort_key()

    def test_deterministic_output(self):
        source = (
            ".data\nx: .word 0\n.thread a b\n    load r1, [x]\n"
            "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
        )
        _, first, _ = detect(source)
        _, second, _ = detect(source)
        assert [str(i) for i in first] == [str(i) for i in second]


class TestPairCap:
    LOOPY = (
        ".data\nx: .word 0\n.thread a b\n    li r1, 30\nl:\n    load r2, [x]\n"
        "    addi r2, r2, 1\n    store r2, [x]\n    subi r1, r1, 1\n"
        "    bnez r1, l\n    halt\n"
    )

    def test_cap_limits_instances(self):
        program = assemble(self.LOOPY, name="cap")
        _, log = record_run(program, scheduler=RandomScheduler(seed=2), seed=2)
        ordered = OrderedReplay(log, program)
        capped = HappensBeforeDetector(ordered, max_pairs_per_location=10)
        capped_instances = capped.detect()
        uncapped = HappensBeforeDetector(ordered, max_pairs_per_location=None)
        uncapped_instances = uncapped.detect()
        assert len(capped_instances) < len(uncapped_instances)
        assert capped.truncated_locations > 0
        assert uncapped.truncated_locations == 0

    #: No sequencers at all: one region per thread, one region pair.
    #: Address ``x`` races on every loop iteration (well past the cap);
    #: address ``y`` races exactly once (a single store per thread).
    TWO_LOCATIONS = (
        ".data\nx: .word 0\ny: .word 0\n.thread a b\n    li r1, 4\nl:\n"
        "    load r2, [x]\n    addi r2, r2, 1\n    store r2, [x]\n"
        "    subi r1, r1, 1\n    bnez r1, l\n    li r3, 7\n"
        "    store r3, [y]\n    halt\n"
    )

    def test_cap_counts_per_location_not_per_pair(self):
        """The cap trips on the hot address only; the quiet address in the
        same region pair reports all of its instances, and the truncation
        counter says exactly one location was cut."""
        program = assemble(self.TWO_LOCATIONS, name="cap2loc")
        _, log = record_run(program, scheduler=RandomScheduler(seed=4), seed=4)
        ordered = OrderedReplay(log, program)
        x = program.data_address("x")
        y = program.data_address("y")
        detector = HappensBeforeDetector(ordered, max_pairs_per_location=10)
        instances = detector.detect()
        by_address = {
            address: sum(1 for i in instances if i.address == address)
            for address in (x, y)
        }
        assert by_address[x] == 10  # cut at the cap
        assert by_address[y] == 1  # untouched by the cap
        assert detector.truncated_locations == 1

    def test_cap_semantics_match_reference(self):
        program = assemble(self.TWO_LOCATIONS, name="cap2ref")
        _, log = record_run(program, scheduler=RandomScheduler(seed=4), seed=4)
        ordered = OrderedReplay(log, program)
        sweep = HappensBeforeDetector(ordered, max_pairs_per_location=10)
        naive = NaiveHappensBeforeDetector(ordered, max_pairs_per_location=10)
        assert sweep.detect() == naive.detect()
        assert sweep.truncated_locations == naive.truncated_locations == 1


def _streamed_regions(source, seed=2, name="kernel"):
    """Every ``(region, rows)`` of one recording, in sweep order."""
    program = assemble(source, name=name)
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.5),
        seed=seed,
    )
    cursor = SegmentCursor()
    released = []
    for segment in iter_segments(encode_log_segmented(log, segment_bytes=64)):
        released.extend(cursor.feed(segment))
    released.extend(cursor.finish())
    return OrderedReplay(log, program), released


class TestSweepKernel:
    """The one sweep, driven region by region as the stream and the
    fan-out workers drive it."""

    #: A lock round-trip per iteration cuts each thread into many
    #: regions; the unlocked update of ``x`` races across them.
    LOCKSTEP = (
        ".data\nx: .word 0\nm: .word 0\n.thread a b\n    li r1, 6\nl:\n"
        "    load r2, [x]\n    addi r2, r2, 1\n    store r2, [x]\n"
        "    lock [m]\n    unlock [m]\n    subi r1, r1, 1\n    bnez r1, l\n"
        "    halt\n"
    )

    def test_stream_of_regions_matches_batch_detection(self):
        ordered, released = _streamed_regions(TestPairCap.LOOPY)
        detector = StreamingHappensBeforeDetector(max_pairs_per_location=10)
        for region, rows in released:
            detector.add_region(region, rows)
        batch = HappensBeforeDetector(ordered, max_pairs_per_location=10)
        assert detector.finish() == batch.detect()
        assert detector.truncated_locations == batch.truncated_locations > 0

    def test_preloaded_regions_pair_but_never_emit(self):
        """A fan-out worker preloads the regions opened before its range:
        they pair with the regions it sweeps, but a pair of two preloaded
        regions belongs to an earlier worker and is never emitted."""
        _, released = _streamed_regions(self.LOCKSTEP)
        everything = StreamingHappensBeforeDetector(max_pairs_per_location=None)
        for region, rows in released:
            everything.add_region(region, rows)
        expected = everything.finish()
        cut = len(released) // 2
        cut_ts = released[cut][0].start_ts
        split = StreamingHappensBeforeDetector(max_pairs_per_location=None)
        for region, rows in released[:cut]:
            split.preload(region, rows)
        for region, rows in released[cut:]:
            split.add_region(region, rows)
        tail = split.finish()
        # The swept (later-opening) side of every instance is side B.
        assert tail == [i for i in expected if i.region_b.start_ts >= cut_ts]
        assert tail and len(tail) < len(expected)
        assert split.kernel.swept == sum(
            1 for region, rows in released[cut:] if any(not row[1] & 2 for row in rows)
        )

    def test_window_retires_expired_regions(self):
        _, released = _streamed_regions(self.LOCKSTEP)
        detector = StreamingHappensBeforeDetector()
        peak = 0
        for region, rows in released:
            detector.add_region(region, rows)
            peak = max(peak, detector.window.resident_regions)
        assert 0 < peak < detector.window.stats()["regions"]
        detector.finish()
        assert detector.window.resident_regions == 0


def _oracle_races(trace):
    """Independent happens-before oracle computed from the machine trace.

    Access ``x`` (thread T) happens-before access ``y`` (thread U) iff some
    sequencer of T at-or-after ``x`` has a timestamp no greater than some
    sequencer of U at-or-before ``y`` — i.e. the synchronization total
    order transitively orders them.  A conflicting pair ordered in neither
    direction is a true data race.
    """
    sequencers_by_tid = {}
    for sequencer in trace.sequencers:
        sequencers_by_tid.setdefault(sequencer.tid, []).append(sequencer)

    def earliest_seq_after(tid, step):
        candidates = [s.timestamp for s in sequencers_by_tid[tid] if s.thread_step >= step]
        return min(candidates) if candidates else None

    def latest_seq_before(tid, step):
        candidates = [s.timestamp for s in sequencers_by_tid[tid] if s.thread_step <= step]
        return max(candidates) if candidates else None

    def happens_before(x, y):
        after_x = earliest_seq_after(x.tid, x.thread_step)
        before_y = latest_seq_before(y.tid, y.thread_step)
        return after_x is not None and before_y is not None and after_x <= before_y

    plain = [a for a in trace.accesses if not a.is_sync]
    races = set()
    for i in range(len(plain)):
        for j in range(i + 1, len(plain)):
            x, y = plain[i], plain[j]
            if x.tid == y.tid or x.address != y.address:
                continue
            if not (x.is_write or y.is_write):
                continue
            if happens_before(x, y) or happens_before(y, x):
                continue
            key = tuple(sorted([(x.tid, x.thread_step), (y.tid, y.thread_step)]))
            races.add(key + (x.address,))
    return races


class TestNoFalsePositives:
    def test_detector_matches_independent_oracle(self, racy_analysis):
        """The detector's instance set equals an independently computed
        happens-before oracle over the full machine trace — so there are
        neither false positives nor missed pairs."""
        result, log, trace, ordered = racy_analysis
        detector = HappensBeforeDetector(ordered, max_pairs_per_location=None)
        detected = {
            tuple(
                sorted(
                    [
                        (i.access_a.tid, i.access_a.thread_step),
                        (i.access_b.tid, i.access_b.thread_step),
                    ]
                )
            )
            + (i.address,)
            for i in detector.detect()
        }
        oracle = _oracle_races(trace)
        assert detected == oracle
        assert detected, "expected the racy program to race"
