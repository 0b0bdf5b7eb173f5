"""Property-based tests: the sweep's race groups expand to the oracle's instances.

The sweep emits one :class:`~repro.race.happens_before.RaceGroup` per
(region pair, address) and counts its pairs instead of enumerating
them.  Over random recorded programs and the caps ``{1, 2, 3, None}``:

* **Expansion** — :func:`expand_groups` of the batch detector's groups
  and of the streaming detector's groups equals the instance list of
  ``tests/reference_detector.py``, and both count its
  ``truncated_locations``.
* **Canonical walk** — :func:`canonical_pairs`, the order the batch
  pass classifies and the lazy lists are built in, visits exactly that
  list, pair by pair, without sorting instances.
* **One set of objects** — the streaming detector's ``finish`` returns
  the very instances its ``add_region`` calls returned, so a caller
  may key verdicts by instance identity.
* **A cap inside a row** — on a loop whose first side-A row conflicts
  with more side-B rows than the cap, the group ends partway through
  that row, exactly where the oracle's list is cut.
* **Addresses that interleave** — when one region pair races at several
  addresses in falling address order, the canonical walk merges the
  pair's groups step by step instead of visiting them one after another.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.race.happens_before import (
    HappensBeforeDetector,
    StreamingHappensBeforeDetector,
    canonical_pairs,
    expand_groups,
)
from repro.record import record_run
from repro.record.binary_format import encode_log, encode_log_segmented, iter_segments
from repro.replay import LogView, OrderedReplay
from repro.replay.log_view import SegmentCursor
from repro.vm import RandomScheduler

from reference_detector import NaiveHappensBeforeDetector
from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

caps = st.sampled_from((1, 2, 3, None))

#: Two threads racing on ``x`` every iteration in one region each: the
#: first side-A row (a load) conflicts with all twelve side-B stores.
LOOPY = (
    ".data\nx: .word 0\n.thread a b\n    li r1, 12\nl:\n    load r2, [x]\n"
    "    addi r2, r2, 1\n    store r2, [x]\n    subi r1, r1, 1\n"
    "    bnez r1, l\n    halt\n"
)


#: Both threads walk ``arr`` from its last word down to its first in one
#: region each: the pair's groups come out in address order, its
#: instances in step order, highest address first.
INTERLEAVED = (
    ".data\narr: .space 4\n.thread a b\n    li r1, 4\nl:\n    subi r1, r1, 1\n"
    "    li r4, arr\n    add r4, r4, r1\n    load r2, [r4]\n    addi r2, r2, 1\n"
    "    store r2, [r4]\n    bnez r1, l\n    halt\n"
)


def _recording(source, seed):
    program = assemble(source, name="prop_groups")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, log


def _batch_groups(log, cap):
    detector = HappensBeforeDetector(
        LogView.from_bytes(encode_log(log)), max_pairs_per_location=cap
    )
    return detector.detect_groups(), detector.truncated_locations


def _released(log):
    cursor = SegmentCursor()
    for segment in iter_segments(encode_log_segmented(log, segment_bytes=64)):
        yield from cursor.feed(segment)
    yield from cursor.finish()


def _stream_groups(log, cap):
    detector = StreamingHappensBeforeDetector(max_pairs_per_location=cap)
    emitted = []
    for region, rows in _released(log):
        emitted.extend(detector.add_groups(region, rows))
    groups = detector.finish_groups()
    assert groups == emitted
    return groups, detector.truncated_locations


def _oracle(program, log, cap):
    naive = NaiveHappensBeforeDetector(
        OrderedReplay(log, program), max_pairs_per_location=cap
    )
    return naive.detect(), naive.truncated_locations


def _canonical_walk(groups):
    return [
        groups[index].instance(row_a, row_b)
        for index, _, row_a, row_b in canonical_pairs(groups)
    ]


def _check(program, log, cap):
    expected, truncated = _oracle(program, log, cap)
    for groups, groups_truncated in (_batch_groups(log, cap), _stream_groups(log, cap)):
        assert groups_truncated == truncated
        assert sum(group.count for group in groups) == len(expected)
        assert expand_groups(groups) == expected
        assert _canonical_walk(groups) == expected
    return expected, truncated


class TestGroupsExpandToTheOracle:
    @given(source=programs(), seed=seeds, cap=caps)
    @_SETTINGS
    def test_random_programs(self, source, seed, cap):
        program, log = _recording(source, seed)
        _check(program, log, cap)

    @given(seed=seeds, cap=caps)
    @_SETTINGS
    def test_racy_loop(self, seed, cap):
        program, log = _recording(LOOPY, seed)
        _check(program, log, cap)

    @given(source=programs(), seed=seeds, cap=caps)
    @_SETTINGS
    def test_finish_returns_the_instances_add_region_returned(self, source, seed, cap):
        program, log = _recording(source, seed)
        detector = StreamingHappensBeforeDetector(max_pairs_per_location=cap)
        returned = []
        for region, rows in _released(log):
            returned.extend(detector.add_region(region, rows))
        finished = detector.finish()
        assert finished == _oracle(program, log, cap)[0]
        assert sorted(map(id, finished)) == sorted(map(id, returned))


def test_a_cap_cuts_a_group_partway_through_a_row():
    program, log = _recording(LOOPY, 5)
    expected, truncated = _check(program, log, 3)
    assert truncated > 0
    groups, _ = _batch_groups(log, 3)
    (group,) = [group for group in groups if group.count == 3]
    pairs = list(group.pairs())
    first_row = group.rows_a[0]
    # Every emitted pair is the first row's; it has more partners left.
    assert all(row_a is first_row for row_a, _ in pairs)
    partners = [row for row in group.rows_b if first_row[1] or row[1]]
    assert len(partners) > 3
    assert [row_b for _, row_b in pairs] == partners[:3]
    assert group.instances() == expected[:3]


def test_the_canonical_walk_merges_the_addresses_of_one_region_pair():
    program, log = _recording(INTERLEAVED, 3)
    for cap in (2, None):
        expected, _ = _check(program, log, cap)
        groups, _ = _batch_groups(log, cap)
        assert len({(group.region_a, group.region_b) for group in groups}) == 1
        assert len(groups) == 4
        # Emission order is address order; the canonical order is not.
        emitted = [instance for group in groups for instance in group.instances()]
        assert emitted != expected
