"""A per-varint reference reader for count-prefixed row sections: the
row-decoder oracle.

It decodes one LEB128 varint per call with its own loop, exactly the
way the container's readers did before rows were decoded in blocks, and
shares no code with :mod:`repro.record.binary_format`, so the property
tests compare two implementations of one wire format.
"""


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
