"""Reference readers for the container's row sections: the row-decoder
oracles.

The v4 readers decode one LEB128 varint per call with their own loop,
exactly the way the container's readers did before rows were decoded in
blocks.  The v5 readers unpack each column with ``struct`` (``'<'`` plus
the column's typecode, repeated) and rebuild deltas with a plain loop.
Neither shares code with :mod:`repro.record.binary_format`, so the
property tests compare two implementations of one wire format.
"""

import struct


def read_varint(data, offset):
    """Decode one unsigned LEB128 varint; returns ``(value, next offset)``."""
    value = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, offset
        shift += 7


def read_varints(data, offset, count):
    """Decode ``count`` varints one at a time; returns ``(values, end)``."""
    values = []
    for _ in range(count):
        value, offset = read_varint(data, offset)
        values.append(value)
    return values, offset


def read_access_rows(data, offset=0):
    """Decode one count-prefixed access-row section.

    Returns ``(rows, end)`` with rows as ``(step, flag, address, value,
    index)``: step and address are delta-encoded against the previous
    row (the address delta zigzag-mapped), starting from zero.
    """
    count, offset = read_varint(data, offset)
    rows = []
    step = 0
    address = 0
    for _ in range(count):
        delta, offset = read_varint(data, offset)
        flag, offset = read_varint(data, offset)
        raw, offset = read_varint(data, offset)
        value, offset = read_varint(data, offset)
        index, offset = read_varint(data, offset)
        step += delta
        address += raw // 2 if raw % 2 == 0 else -(raw + 1) // 2
        rows.append((step, flag, address, value, index))
    return rows, offset


def read_heap_rows(data, offset=0):
    """Decode one count-prefixed heap-row section to ``(step, kind,
    base, size)`` rows (step delta-encoded from zero)."""
    count, offset = read_varint(data, offset)
    rows = []
    step = 0
    for _ in range(count):
        delta, offset = read_varint(data, offset)
        kind, offset = read_varint(data, offset)
        base, offset = read_varint(data, offset)
        size, offset = read_varint(data, offset)
        step += delta
        rows.append((step, kind, base, size))
    return rows, offset


# ----------------------------------------------------------------------
# v5: column groups.  A column is one typecode byte (an ASCII ``struct``
# format character), a varint count, then count little-endian values.
# ----------------------------------------------------------------------

COLUMN_WIDTHS = {"B": 1, "H": 2, "I": 4, "Q": 8, "b": 1, "h": 2, "i": 4, "q": 8}


def read_column(data, offset):
    """Decode one v5 column; returns ``(typecode, values, end)``."""
    code = chr(data[offset])
    count, offset = read_varint(data, offset + 1)
    end = offset + count * COLUMN_WIDTHS[code]
    values = struct.unpack("<" + code * count, data[offset:end])
    return code, list(values), end


def read_column_group(data, offset, width):
    """Decode ``width`` columns; returns ``(codes, columns, end)``."""
    codes = []
    columns = []
    for _ in range(width):
        code, values, offset = read_column(data, offset)
        codes.append(code)
        columns.append(values)
    assert len({len(values) for values in columns}) == 1, "ragged column group"
    return codes, columns, offset


def _running(deltas):
    total = 0
    out = []
    for delta in deltas:
        total += delta
        out.append(total)
    return out


def read_access_columns(data, offset=0):
    """Decode one v5 access column group to ``(step, flag, address,
    value, index)`` rows; returns ``(rows, codes, end)``."""
    codes, (steps, flags, addresses, values, indices), end = read_column_group(
        data, offset, 5
    )
    rows = list(zip(_running(steps), flags, _running(addresses), values, indices))
    return rows, codes, end


def read_heap_columns(data, offset=0):
    """Decode one v5 heap column group to ``(step, kind, base, size)``
    rows; returns ``(rows, end)``."""
    _, (steps, kinds, bases, sizes), end = read_column_group(data, offset, 4)
    return list(zip(_running(steps), kinds, bases, sizes)), end


def read_strings(data, offset=0):
    """Decode a v5 segment string table; returns ``(strings, end)``."""
    count, offset = read_varint(data, offset)
    strings = []
    for _ in range(count):
        length, offset = read_varint(data, offset)
        strings.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    return strings, offset


def read_sequencer_columns(data, strings, offset=0):
    """Decode one v5 sequencer column group to ``(step, timestamp, kind,
    static)`` rows, ``static`` being ``(block, index)`` or ``None``;
    returns ``(rows, end)``."""
    _, (steps, stamps, kinds, blocks, indices), end = read_column_group(
        data, offset, 5
    )
    rows = []
    for step, stamp, kind, block, index in zip(
        _running(steps), _running(stamps), kinds, blocks, indices
    ):
        static = None if block == 0 else (strings[block - 1], index)
        rows.append((step, stamp, strings[kind], static))
    return rows, end
