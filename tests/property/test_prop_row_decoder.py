"""Property-based tests: the row decoders against independent oracles.

Rows are encoded with the container's own ``_Writer`` (access rows
through ``_write_access_rows``) and read back two ways: through the block decoder
every captured-row read now goes through (``_decode_varints`` under
``_read_access_rows``), and through the per-varint reference loop in
``tests/reference_rows.py``.  Both must return the rows that were
written.  The strategies cover the all-single-byte blocks that take the
``isascii`` fast path, values up to ``2**64 - 1``, negative address
deltas, empty sections, and row counts on either side of the decoder's
4096-row block boundary.  Addresses stay below ``2**63``: the writer's
zigzag map covers signed 64-bit deltas.

The v5 column groups are written by the container's row-section writer
and read back by its row-section reader and by the ``struct``-based
oracle in ``tests/reference_rows.py``: widths on either side of each
typecode boundary, negative step and address deltas, empty sections,
and sequencers with no static id or a static id in another block.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from reference_rows import (
    read_access_columns,
    read_access_rows,
    read_heap_columns,
    read_heap_rows,
    read_sequencer_columns,
    read_strings,
    read_varints,
)
from repro.isa.program import StaticInstructionId
from repro.record.binary_format import (
    LogFormatError,
    _decode_varints,
    _read_access_rows,
    _read_heap_rows,
    _Reader,
    _RowSectionReader,
    _RowSectionWriter,
    _Writer,
    _write_access_rows,
)
from repro.record.log import SequencerRecord
from repro.record.compression import encode_varint

_SETTINGS = settings(max_examples=40, deadline=None)

U64 = 2**64 - 1
BLOCK = "worker"

I63 = 2**63 - 1

u64s = st.integers(min_value=0, max_value=U64)
addresses = st.integers(min_value=0, max_value=I63)
#: Row counts of a long section: either side of one and two 4096-row blocks.
long_counts = st.sampled_from((4095, 4096, 4097, 8191, 8192, 8193))


def _rows_from(template, count):
    """Absolute ``(step, flag, address, value, index)`` rows: ``template``
    ``(step delta, flag, address, value, index)`` tuples cycled to
    ``count`` rows, steps accumulated so they never decrease."""
    rows = []
    step = 0
    for position in range(count):
        delta, flag, address, value, index = template[position % len(template)]
        step += delta
        rows.append((step, flag, address, value, index))
    return rows


def _encode_access(rows):
    writer = _Writer()
    _write_access_rows(
        writer,
        [
            (step, flag, address, value, StaticInstructionId(block=BLOCK, index=index))
            for step, flag, address, value, index in rows
        ],
    )
    return bytes(writer.out)


def _decode_access(data):
    """Decode with the block decoder; returns ``(rows, static_ids, end)``."""
    reader = _Reader(data)
    rows = []
    static_ids = []
    for steps, flags, addresses, values, ids in _read_access_rows(reader, BLOCK, {}):
        assert len(steps) <= 4096
        rows.extend(
            zip(steps, flags, addresses, values, [sid.index for sid in ids])
        )
        static_ids.extend(ids)
    return rows, static_ids, reader.offset


def _mismatch(got, want):
    """``None`` when the row lists are equal, else where they first differ
    (kept short: a full diff of thousands of rows is slow to render)."""
    if got == want:
        return None
    for position, (left, right) in enumerate(zip(got, want)):
        if left != right:
            return "row %d: %r != %r" % (position, left, right)
    return "%d rows != %d rows" % (len(got), len(want))


def _check_access(rows):
    data = _encode_access(rows)
    decoded, static_ids, end = _decode_access(data)
    expected, expected_end = read_access_rows(data)
    problem = _mismatch(expected, rows) or _mismatch(decoded, rows)
    assert problem is None, problem
    assert end == expected_end == len(data)
    # One interned object per distinct index, bound to the section's block.
    by_index = {}
    for sid in static_ids:
        assert sid.block == BLOCK
        assert by_index.setdefault(sid.index, sid) is sid


small_rows = st.tuples(
    st.integers(0, 127),  # step delta
    st.integers(0, 3),  # flag
    st.integers(0, 63),  # address: zigzag deltas stay below 128
    st.integers(0, 127),  # value
    st.integers(0, 127),  # static-id index
)
wide_rows = st.tuples(
    st.integers(0, 2**40),
    st.integers(0, 255),
    addresses,
    u64s,
    st.integers(0, 2**20),
)


@_SETTINGS
@given(template=st.lists(small_rows, min_size=1, max_size=64), count=st.integers(0, 127))
def test_single_byte_rows_take_the_ascii_path(template, count):
    rows = _rows_from(template, count)
    data = _encode_access(rows)
    assert data.isascii()  # every varint is one byte: the list(raw) path
    _check_access(rows)


@_SETTINGS
@given(template=st.lists(wide_rows, min_size=1, max_size=64), count=st.integers(0, 300))
def test_wide_rows_match_the_oracle(template, count):
    _check_access(_rows_from(template, count))


# No shrinking: each example is thousands of rows, and the failure
# message already names the first wrong row.
@settings(max_examples=20, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(
    template=st.lists(st.one_of(small_rows, wide_rows), min_size=1, max_size=16),
    count=long_counts,
)
def test_block_boundaries_carry_the_delta_bases(template, count):
    _check_access(_rows_from(template, count))


def test_negative_address_deltas_and_extremes():
    rows = [
        (0, 0, I63, U64, 0),
        (0, 1, 0, 0, 1),  # address delta of -(2**63 - 1)
        (2**40, 3, I63, 1, 0),
        (2**40, 2, 12345, U64, 7),  # step delta 0 after a large step
    ]
    _check_access(rows)


def test_zero_rows():
    assert _encode_access([]) == b"\x00"
    _check_access([])


@_SETTINGS
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2**32), st.integers(0, 1), u64s, st.integers(0, 2**32)
        ),
        max_size=40,
    )
)
def test_heap_rows_match_the_oracle(rows):
    step = 0
    absolute = []
    for delta, kind, base, size in rows:
        step += delta
        absolute.append((step, kind, base, size))
    writer = _Writer()
    writer.uint(len(absolute))
    previous = 0
    for step, kind, base, size in absolute:
        for value in (step - previous, kind, base, size):
            writer.uint(value)
        previous = step
    data = bytes(writer.out)
    reader = _Reader(data)
    decoded = [row for block in _read_heap_rows(reader) for row in zip(*block)]
    assert decoded == read_heap_rows(data)[0] == absolute
    assert reader.offset == len(data)


@_SETTINGS
@given(
    values=st.lists(u64s, max_size=200),
    lead=st.binary(max_size=8).filter(lambda raw: raw.isascii()),
    trail=st.binary(max_size=8),
)
def test_block_decoder_matches_per_varint_loop(values, lead, trail):
    data = lead + b"".join(encode_varint(value) for value in values) + trail
    decoded, end = _decode_varints(data, len(lead), len(values))
    assert (decoded, end) == read_varints(data, len(lead), len(values))
    assert decoded == values


@_SETTINGS
@given(values=st.lists(u64s, min_size=1, max_size=50), data=st.data())
def test_truncated_blocks_raise_log_format_error(values, data):
    encoded = b"".join(encode_varint(value) for value in values)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(LogFormatError):
        _decode_varints(encoded[:cut], 0, len(values))


# ----------------------------------------------------------------------
# v5 column groups against the struct oracle.
# ----------------------------------------------------------------------

#: Unsigned values on either side of each column width boundary.
WIDTH_EDGES = (0, 255, 256, 65535, 65536, 2**32 - 1, 2**32, U64)
edge_u64s = st.one_of(st.sampled_from(WIDTH_EDGES), u64s)


def _sid(index, block=BLOCK):
    return StaticInstructionId(block=block, index=index)


def _encode_v5_access(rows):
    writer = _Writer()
    _RowSectionWriter(5).access(
        writer,
        [
            (step, flag, address, value, _sid(index))
            for step, flag, address, value, index in rows
        ],
    )
    return bytes(writer.out)


def _check_v5_access(rows):
    """Round-trip ``rows`` through the v5 access columns; returns the
    oracle's typecodes."""
    data = _encode_v5_access(rows)
    reader = _Reader(data)
    decoded = []
    for steps, flags, addresses, values, ids in _RowSectionReader(
        reader, 5, "trailer"
    ).access(BLOCK, {}):
        decoded.extend(zip(steps, flags, addresses, values, [sid.index for sid in ids]))
    expected, codes, end = read_access_columns(data)
    problem = _mismatch(expected, rows) or _mismatch(decoded, rows)
    assert problem is None, problem
    assert reader.offset == end == len(data)
    return codes


@pytest.mark.parametrize(
    "top, code",
    [
        (255, "B"),
        (256, "H"),
        (65535, "H"),
        (65536, "I"),
        (2**32 - 1, "I"),
        (2**32, "Q"),
        (U64, "Q"),
    ],
)
def test_v5_value_width_either_side_of_each_boundary(top, code):
    codes = _check_v5_access([(0, 0, 0, 0, 0), (1, 1, 8, top, top % 7)])
    assert codes[3] == code  # values
    assert codes[1] == "B"  # flags


@pytest.mark.parametrize(
    "delta, code",
    [
        (127, "b"),
        (128, "h"),
        (-128, "b"),
        (-129, "h"),
        (2**15 - 1, "h"),
        (2**15, "i"),
        (-(2**15) - 1, "i"),
        (2**31 - 1, "i"),
        (2**31, "q"),
        (-(2**31) - 1, "q"),
        (2**63 - 1, "q"),
        (-(2**63), "q"),
    ],
)
def test_v5_delta_width_either_side_of_each_boundary(delta, code):
    # The first row's deltas are 0, so the second row's fixes the width.
    codes = _check_v5_access([(0, 0, 0, 1, 0), (delta, 0, delta, 1, 0)])
    assert codes[0] == codes[2] == code  # step and address deltas


v5_access_rows = st.tuples(
    st.integers(-(2**40), 2**40),  # absolute step: deltas of either sign
    st.integers(0, 255),
    addresses,
    edge_u64s,
    st.integers(0, 2**20),
)


@_SETTINGS
@given(rows=st.lists(v5_access_rows, max_size=300))
def test_v5_access_columns_match_the_oracle(rows):
    _check_v5_access(rows)


@_SETTINGS
@given(
    rows=st.lists(
        st.tuples(
            st.integers(-(2**40), 2**40), st.integers(0, 1), edge_u64s, edge_u64s
        ),
        max_size=60,
    )
)
def test_v5_heap_columns_match_the_oracle(rows):
    writer = _Writer()
    _RowSectionWriter(5).heap(writer, rows)
    data = bytes(writer.out)
    reader = _Reader(data)
    decoded = [
        row
        for block in _RowSectionReader(reader, 5, "trailer").heap()
        for row in zip(*block)
    ]
    expected, end = read_heap_columns(data)
    assert decoded == expected == rows
    assert reader.offset == end == len(data)


def _check_v5_sequencers(records):
    rows = _RowSectionWriter(5)
    body = _Writer()
    rows.sequencers(body, records)
    data = _Writer()
    rows.write_strings(data)
    data = bytes(data.out + body.out)
    reader = _Reader(data)
    decoded = _RowSectionReader(reader, 5, "segment").sequencers()
    strings, offset = read_strings(data)
    expected, end = read_sequencer_columns(data, strings, offset)
    want = [
        (
            record.thread_step,
            record.timestamp,
            record.kind,
            None
            if record.static_id is None
            else (record.static_id.block, record.static_id.index),
        )
        for record in records
    ]
    assert decoded == records
    assert expected == want
    assert reader.offset == end == len(data)


sequencer_records = st.builds(
    SequencerRecord,
    thread_step=st.integers(-1, 2**40),
    timestamp=st.integers(0, 2**40),
    kind=st.sampled_from(("thread-start", "lock", "unlock", "syscall", "thread-end")),
    # The thread's own block, another block, or no static id at all.
    static_id=st.none()
    | st.builds(
        StaticInstructionId,
        block=st.sampled_from((BLOCK, "other", "lib")),
        index=st.sampled_from((0, 255, 256, 65536, 2**32)),
    ),
)


@_SETTINGS
@given(records=st.lists(sequencer_records, max_size=40))
def test_v5_sequencer_columns_match_the_oracle(records):
    _check_v5_sequencers(records)


def test_v5_sequencers_without_static_ids_and_in_other_blocks():
    _check_v5_sequencers(
        [
            SequencerRecord(-1, 0, "thread-start"),
            SequencerRecord(4, 3, "lock", _sid(2, "lib")),
            SequencerRecord(4, 9, "unlock", _sid(2)),
            SequencerRecord(9, 12, "thread-end"),
        ]
    )


def test_v5_empty_sections():
    _check_v5_sequencers([])
    assert _check_v5_access([]) == ["b", "B", "b", "B", "B"]
    writer = _Writer()
    _RowSectionWriter(5).heap(writer, [])
    data = bytes(writer.out)
    assert read_heap_columns(data) == ([], len(data))
    assert list(_RowSectionReader(_Reader(data), 5, "trailer").heap()) == []
