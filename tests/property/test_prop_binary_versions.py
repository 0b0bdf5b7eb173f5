"""Property-based tests: binary containers round-trip across format versions.

Random :class:`ReplayLog` instances (not produced by the recorder — the
point is to cover the container, not the machine) are pushed through
encode→decode→encode for every supported version, asserting

* decode(encode(log)) reproduces every logical field,
* re-encoding the decoded log is byte-identical (the container is a
  canonical form: sorted loads/syscalls/footprint, deterministic v2
  predictor),
* the captured-columns section survives v3 and is dropped — never
  corrupted — by v1/v2 and by ``include_captured=False``.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.program import StaticInstructionId
from repro.record.binary_format import (
    BINARY_FORMAT_VERSION,
    SEGMENTED_FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    _encode_segmented,
    decode_log,
    decode_log_sections,
    encode_log,
    encode_log_segmented,
    iter_segments,
)
from repro.record.log import (
    CapturedAccessColumns,
    LoadRecord,
    ReplayLog,
    SequencerRecord,
    SyscallRecord,
    ThreadAccessColumns,
    ThreadEnd,
    ThreadLog,
)

_SETTINGS = settings(max_examples=25, deadline=None)

names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)
texts = st.text(max_size=24)
uints = st.integers(min_value=0, max_value=2**40)
small_uints = st.integers(min_value=0, max_value=10_000)
sints = st.integers(min_value=-(2**32), max_value=2**32)
#: Small value pool so the v2 load predictor actually gets hits (the
#: elision branch must be exercised, not just the literal one).
load_values = st.integers(min_value=0, max_value=3)
sequencer_kinds = st.sampled_from(
    ("thread-start", "thread-end", "lock", "unlock", "syscall", "atomic")
)


@st.composite
def _static_ids(draw):
    return StaticInstructionId(block=draw(names), index=draw(small_uints))


@st.composite
def _thread_logs(draw, name, tid):
    thread = ThreadLog(
        name=name,
        tid=tid,
        block=draw(names),
        initial_registers=tuple(draw(st.lists(uints, max_size=4))),
    )
    # Loads share a small address pool so consecutive loads of one
    # address (predictable in v2) occur with useful probability.
    addresses = draw(st.lists(uints, min_size=1, max_size=3))
    for step in draw(st.lists(small_uints, max_size=8, unique=True)):
        thread.loads[step] = LoadRecord(
            thread_step=step,
            address=draw(st.sampled_from(addresses)),
            value=draw(load_values),
        )
    for step in draw(st.lists(small_uints, max_size=4, unique=True)):
        thread.syscalls[step] = SyscallRecord(
            thread_step=step, name=draw(names), result=draw(sints)
        )
    step = -1
    timestamp = draw(small_uints)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        thread.sequencers.append(
            SequencerRecord(
                thread_step=step,
                timestamp=timestamp,
                kind=draw(sequencer_kinds),
                static_id=draw(st.none() | _static_ids()),
            )
        )
        step += draw(st.integers(min_value=0, max_value=50))
        timestamp += draw(st.integers(min_value=1, max_value=50))
    thread.pc_footprint = set(draw(st.lists(small_uints, max_size=16)))
    thread.steps = draw(small_uints)
    if draw(st.booleans()):
        thread.end = ThreadEnd(
            thread_step=draw(st.integers(min_value=-1, max_value=10_000)),
            reason=draw(st.sampled_from(("halt", "fault"))),
            fault_kind=draw(st.none() | names),
        )
    return thread


def _sorted_columns(draw, count, block):
    columns = ThreadAccessColumns()
    columns.steps = sorted(draw(st.lists(small_uints, min_size=count, max_size=count)))
    for _ in range(count):
        columns.addresses.append(draw(uints))
        columns.values.append(draw(load_values))
        columns.flags.append(draw(st.integers(min_value=0, max_value=3)))
        # Decoder rebinds the block from the owning thread record, so a
        # faithful round trip requires rows tagged with that block.
        columns.static_ids.append(
            StaticInstructionId(block=block, index=draw(small_uints))
        )
    heap_count = draw(st.integers(min_value=0, max_value=3))
    columns.heap_steps = sorted(
        draw(st.lists(small_uints, min_size=heap_count, max_size=heap_count))
    )
    for _ in range(heap_count):
        columns.heap_kinds.append(draw(st.sampled_from(("alloc", "free"))))
        columns.heap_bases.append(draw(uints))
        columns.heap_sizes.append(draw(small_uints))
    return columns


@st.composite
def replay_logs(draw):
    thread_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    threads = {}
    for tid, name in enumerate(thread_names):
        threads[name] = draw(_thread_logs(name, tid))
    log = ReplayLog(
        program_name=draw(names),
        program_source=draw(texts),
        threads=threads,
        seed=draw(sints),
        scheduler=draw(st.sampled_from(("", "round-robin", "random"))),
    )
    if draw(st.booleans()):
        log.global_order = [
            (draw(st.integers(min_value=0, max_value=len(threads) - 1)), draw(sints))
            for _ in range(draw(st.integers(min_value=0, max_value=6)))
        ]
    if draw(st.booleans()):
        captured = CapturedAccessColumns(predicted_loads=draw(small_uints))
        for name in thread_names:
            count = draw(st.integers(min_value=0, max_value=6))
            captured.threads[name] = _sorted_columns(draw, count, threads[name].block)
        log.captured = captured
    return log


class TestCrossVersionRoundTrip:
    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    @given(log=replay_logs())
    @_SETTINGS
    def test_decode_restores_every_field(self, version, log):
        decoded = decode_log(encode_log(log, version=version))
        # ReplayLog.__eq__ covers name/source/seed/scheduler/global_order
        # and the full per-thread record sets (captured excluded).
        assert decoded == log
        for name, thread in log.threads.items():
            assert decoded.threads[name] == thread

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    @pytest.mark.parametrize("elide", (True, False))
    @given(log=replay_logs())
    @_SETTINGS
    def test_encode_decode_encode_is_byte_stable(self, version, elide, log):
        first = encode_log(log, version=version, elide_predicted_loads=elide)
        second = encode_log(
            decode_log(first), version=version, elide_predicted_loads=elide
        )
        assert first == second

    @given(log=replay_logs())
    @_SETTINGS
    def test_all_versions_decode_to_the_same_log(self, log):
        decoded = [decode_log(encode_log(log, version=v)) for v in SUPPORTED_VERSIONS]
        for other in decoded[1:]:
            assert other == decoded[0]

    @given(log=replay_logs())
    @_SETTINGS
    def test_elision_never_changes_the_decoded_log(self, log):
        for version in (2, 3):
            eager = decode_log(
                encode_log(log, version=version, elide_predicted_loads=True)
            )
            plain = decode_log(
                encode_log(log, version=version, elide_predicted_loads=False)
            )
            assert eager == plain == log


class TestCapturedSectionEquivalence:
    @given(log=replay_logs())
    @_SETTINGS
    def test_v3_preserves_captured_columns_exactly(self, log):
        decoded = decode_log(encode_log(log, version=3))
        if log.captured is None:
            assert decoded.captured is None
            return
        assert decoded.captured is not None
        assert decoded.captured.predicted_loads == log.captured.predicted_loads
        assert set(decoded.captured.threads) == set(log.captured.threads)
        for name, columns in log.captured.threads.items():
            assert decoded.captured.threads[name] == columns

    @pytest.mark.parametrize("version", (1, 2))
    @given(log=replay_logs())
    @_SETTINGS
    def test_older_versions_drop_captured_columns(self, version, log):
        assert decode_log(encode_log(log, version=version)).captured is None

    @given(log=replay_logs())
    @_SETTINGS
    def test_include_captured_false_matches_stripped_log(self, log):
        without = encode_log(log, version=3, include_captured=False)
        stripped = ReplayLog(
            program_name=log.program_name,
            program_source=log.program_source,
            threads=log.threads,
            seed=log.seed,
            scheduler=log.scheduler,
            global_order=log.global_order,
            captured=None,
        )
        assert without == encode_log(stripped, version=3)
        assert decode_log(without).captured is None

    def test_current_version_is_the_default(self):
        # The monolithic default stays v3; the segmented container is
        # opt-in (``segment_bytes`` / ``record --segment-bytes``) and
        # written as v5 (columnar segments).  v4 still decodes and
        # ``encode_log(version=4)`` still writes it.
        assert BINARY_FORMAT_VERSION == 3
        assert SEGMENTED_FORMAT_VERSION == SUPPORTED_VERSIONS[-1] == 5


class TestSegmentedVersionsAgree:
    """v4 (varint rows) and v5 (columns) encodings of one log are two
    spellings of the same container: every reader returns the same
    thing from either, cut at the same segment boundaries."""

    @staticmethod
    def _both(log, segment_bytes):
        v4 = _encode_segmented(log, 4, segment_bytes, True, None, True)
        v5 = encode_log_segmented(log, segment_bytes=segment_bytes)
        assert (v4[4], v5[4]) == (4, 5)
        return v4, v5

    @pytest.mark.parametrize("segment_bytes", (16, 1 << 16))
    @given(log=replay_logs())
    @_SETTINGS
    def test_every_reader_agrees(self, segment_bytes, log):
        v4, v5 = self._both(log, segment_bytes)
        full = decode_log(v4)
        assert decode_log(v5) == full == log
        if full.captured is not None:
            assert decode_log(v5).captured == full.captured
        sections = decode_log_sections(v4)
        assert dataclasses.replace(decode_log_sections(v5), version=4) == sections
        old = list(iter_segments(v4))
        new = list(iter_segments(v5))
        assert [(view.ordinal, view.first_ts, view.last_ts) for view in new] == [
            (view.ordinal, view.first_ts, view.last_ts) for view in old
        ]
        assert new == old
