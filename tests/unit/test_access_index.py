"""Unit tests for the columnar access index shared by detect and classify."""

import pytest

from repro.analysis.access_index import AccessIndex, build_access_index
from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import decode_log, encode_log
from repro.replay import LogView, OrderedReplay
from repro.vm import RandomScheduler

SOURCE = """
.data
x: .word 0
y: .word 0
m: .word 0
.thread a b
    li r1, 3
loop:
    lock [m]
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    unlock [m]
    load r4, [y]
    addi r4, r4, 1
    store r4, [y]
    subi r1, r1, 1
    bnez r1, loop
    halt
"""


@pytest.fixture(scope="module")
def ordered():
    program = assemble(SOURCE, name="aidx")
    _, log = record_run(
        program, scheduler=RandomScheduler(seed=5, switch_probability=0.4), seed=5
    )
    return OrderedReplay(log, program)


@pytest.fixture(scope="module")
def index(ordered):
    return ordered.access_index()


class TestConstruction:
    def test_regions_follow_opening_timestamp_order(self, index):
        timestamps = [region.start_ts for region in index.regions]
        assert timestamps == sorted(timestamps)
        assert all(not region.is_empty for region in index.regions)

    def test_slices_partition_the_columns(self, index):
        position = 0
        for ordinal in range(index.region_count):
            start, end = index.region_slice(ordinal)
            assert start == position and end >= start
            position = end
        assert position == index.access_count

    def test_columns_are_parallel(self, index):
        assert (
            len(index.steps)
            == len(index.addresses)
            == len(index.values)
            == len(index.write_flags)
            == len(index.region_of)
            == index.access_count
        )

    def test_region_of_matches_slices(self, index):
        for ordinal in range(index.region_count):
            start, end = index.region_slice(ordinal)
            assert all(
                index.region_of[position] == ordinal
                for position in range(start, end)
            )

    def test_sync_accesses_excluded(self, ordered, index):
        for region in index.regions:
            for access in index.region_accesses(region):
                assert not access.is_sync

    def test_build_helper(self, ordered):
        built = build_access_index(ordered)
        assert built.access_count == ordered.access_index().access_count


class TestQueries:
    def test_region_accesses_matches_direct_extraction(self, ordered, index):
        """The O(1) slice equals the seed's bisect-and-filter extraction."""
        for region in index.regions:
            replay = ordered.thread_replays[region.thread_name]
            expected = [
                access
                for access in replay.accesses_in_steps(
                    region.start_step, region.end_step
                )
                if not access.is_sync
            ]
            assert index.region_accesses(region) == expected

    def test_empty_region_yields_no_accesses(self):
        # lock at step 0 and unlock right after it create step-empty regions.
        program = assemble(
            ".data\nm: .word 0\n.thread a b\n    lock [m]\n    unlock [m]\n"
            "    halt\n",
            name="aidx-empty",
        )
        _, log = record_run(program, scheduler=RandomScheduler(seed=1), seed=1)
        ordered = OrderedReplay(log, program)
        index = ordered.access_index()
        empties = [
            region for region in ordered.all_regions() if region.is_empty
        ]
        assert empties, "workload should produce at least one empty region"
        for region in empties:
            assert index.ordinal_of(region) is None
            assert index.region_accesses(region) == []

    def test_postings_are_ascending_and_complete(self, index):
        for address, ordinals in index.postings.items():
            assert ordinals == sorted(set(ordinals))
            for ordinal in ordinals:
                assert address in index.addresses_of(ordinal)

    def test_addresses_of_covers_every_access(self, index):
        for ordinal, region in enumerate(index.regions):
            touched = {
                access.address for access in index.region_accesses(region)
            }
            assert set(index.addresses_of(ordinal)) == touched

    def test_accesses_at_groups_in_step_order(self, index):
        """``accesses_at`` partitions a region's plain accesses by
        address, each group in step order, as ``(step, is_write, value,
        static_id)`` rows."""
        for ordinal, region in enumerate(index.regions):
            accesses = index.region_accesses(region)
            grouped = {
                address: index.accesses_at(ordinal, address)
                for address in index.addresses_of(ordinal)
            }
            assert sum(len(rows) for rows in grouped.values()) == len(accesses)
            for address, rows in grouped.items():
                assert rows == [
                    (
                        access.thread_step,
                        access.is_write,
                        access.value,
                        access.static_id,
                    )
                    for access in accesses
                    if access.address == address
                ]
                assert all(type(row[1]) is bool for row in rows)

    def test_accesses_at_is_cached_until_retired(self, index):
        ordinal = next(
            ordinal
            for ordinal in range(index.region_count)
            if index.addresses_of(ordinal)
        )
        address = index.addresses_of(ordinal)[0]
        rows = index.accesses_at(ordinal, address)
        assert index.accesses_at(ordinal, address) is rows
        index.retire(ordinal)
        again = index.accesses_at(ordinal, address)
        assert again == rows and again is not rows

    def test_regions_touching(self, ordered, index):
        x = ordered.program.data_address("x")
        assert index.regions_touching(x) == index.postings[x]
        assert index.regions_touching(0xDEAD_BEEF) == []

    def test_stats_counters(self, index):
        stats = index.stats()
        assert stats["regions"] == index.region_count
        assert stats["accesses"] == index.access_count == len(index.steps)
        assert stats["addresses"] == len(index.postings)
        assert stats["writes"] == sum(index.write_flags)
        assert 0 < stats["writes"] < stats["accesses"]


#: Edge-case workload: a step-empty region (lock, then unlock on the
#: very next step), a region with steps but no memory accesses (the
#: register-only stretch between the unlock and the next lock), and an
#: address (``z``) touched by exactly one region of one thread.
EDGE_SOURCE = """
.data
x: .word 0
z: .word 0
m: .word 0
.thread a b
    lock [m]
    unlock [m]
    addi r1, r1, 0
    lock [m]
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    unlock [m]
    halt
.thread w
    li r2, 7
    store r2, [z]
    halt
"""


def _edge_recording(seed=3):
    program = assemble(EDGE_SOURCE, name="aidx-edge")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, log


class TestFromCaptured:
    """`AccessIndex.from_captured` (the zero-replay build) edge cases."""

    def _both_indexes(self, log, program):
        replay_built = OrderedReplay(log, program).access_index()
        captured_built = LogView.from_bytes(encode_log(log)).access_index()
        return replay_built, captured_built

    def test_matches_replay_built_index(self):
        """Column-for-column identical to the replay-derived index —
        including sync-row exclusion (the lock/unlock accesses)."""
        program = assemble(SOURCE, name="aidx-cap")
        _, log = record_run(
            program,
            scheduler=RandomScheduler(seed=5, switch_probability=0.4),
            seed=5,
        )
        replay_built, captured_built = self._both_indexes(log, program)
        assert captured_built.regions == replay_built.regions
        assert list(captured_built.steps) == list(replay_built.steps)
        assert list(captured_built.addresses) == list(replay_built.addresses)
        assert list(captured_built.values) == list(replay_built.values)
        assert list(captured_built.write_flags) == list(replay_built.write_flags)
        assert list(captured_built.region_of) == list(replay_built.region_of)
        assert captured_built.postings == replay_built.postings

    def test_step_empty_regions_excluded(self):
        program, log = _edge_recording()
        view = LogView.from_bytes(encode_log(log))
        index = view.access_index()
        empties = [region for region in view.all_regions() if region.is_empty]
        assert empties, "workload should produce at least one empty region"
        for region in empties:
            assert index.ordinal_of(region) is None
            assert index.region_accesses(region) == []

    def test_access_free_region_has_empty_slice(self):
        """A region with steps but only register traffic gets an ordinal
        whose slice, addresses and grouped accesses are all empty."""
        program, log = _edge_recording()
        index = LogView.from_bytes(encode_log(log)).access_index()
        bare = [
            ordinal
            for ordinal, region in enumerate(index.regions)
            if not index.addresses_of(ordinal)
        ]
        assert bare, "workload should produce an access-free region"
        for ordinal in bare:
            start, end = index.region_slice(ordinal)
            assert start == end
            assert index.accesses_at(ordinal, 0) == []
            assert index.region_accesses(index.regions[ordinal]) == []

    def test_single_region_address_postings(self):
        program, log = _edge_recording()
        index = LogView.from_bytes(encode_log(log)).access_index()
        z = program.data_address("z")
        assert len(index.postings[z]) == 1
        (only,) = index.postings[z]
        assert index.regions[only].thread_name == "w"
        assert z in index.addresses_of(only)

    def test_v1_log_falls_back_to_replay_columns(self):
        """A v1 container has no captured section: the index built
        through the replay fallback must still equal the captured-built
        one from the v3 encoding of the same log."""
        program, log = _edge_recording()
        v1_log = decode_log(encode_log(log, version=1))
        assert v1_log.captured is None
        fallback = OrderedReplay(v1_log).access_index()
        captured_built = LogView.from_bytes(encode_log(log)).access_index()
        assert fallback.regions == captured_built.regions
        assert list(fallback.steps) == list(captured_built.steps)
        assert list(fallback.addresses) == list(captured_built.addresses)
        assert list(fallback.values) == list(captured_built.values)
        assert list(fallback.write_flags) == list(captured_built.write_flags)
        assert fallback.postings == captured_built.postings

    def test_write_count_is_cached_and_correct(self):
        program, log = _edge_recording()
        index = LogView.from_bytes(encode_log(log)).access_index()
        expected = sum(index.write_flags)
        assert index.write_count == expected
        assert index.write_count == expected  # second read hits the cache
        assert index.stats()["writes"] == expected


class TestOrderedReplayIntegration:
    def test_index_is_cached(self, ordered):
        assert ordered.access_index() is ordered.access_index()

    def test_invalidate_rebuilds(self, ordered):
        first = ordered.access_index()
        ordered.invalidate_access_index()
        second = ordered.access_index()
        assert second is not first
        assert second.access_count == first.access_count

    def test_region_accesses_delegates_to_index(self, ordered):
        region = next(
            region for region in ordered.all_regions() if not region.is_empty
        )
        assert ordered.region_accesses(region) == ordered.access_index(
        ).region_accesses(region)
