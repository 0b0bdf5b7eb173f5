"""Every read of a container inflates at most ``MAX_INFLATED_BYTES``.

The budget is charged across every frame of every container version:
a v5 frame that honestly declares more than is left is refused before
inflating, and a v1–v4 body inflates through a bounded decompressor.
Either way the read ends in one :class:`LogFormatError` in bounded
memory, and the service answers the upload with a 400.
"""

from __future__ import annotations

import threading
import tracemalloc
import zlib

import pytest

from repro.record import binary_format
from repro.record.binary_format import (
    MAGIC,
    LogFormatError,
    decode_log,
    decode_log_sections,
    iter_segments,
)
from repro.record.compression import encode_varint
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    make_server,
)

BUDGET = 1 << 20
INFLATED = 4 << 20


def _text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def _zeros_compressed(size: int) -> bytes:
    deflate = zlib.compressobj()
    return deflate.compress(bytes(size)) + deflate.flush()


def _v5_frame(tag: int, payload: bytes, inflated: int) -> bytes:
    return encode_varint(tag) + encode_varint(len(payload)) + encode_varint(inflated) + payload


def _honest_v5_bomb() -> bytes:
    """A v5 container whose first segment frame truthfully declares
    4 MiB of zeros."""
    header = _text("bomb") + _text("") + encode_varint(0) + _text("") + b"\x01"
    return (
        MAGIC
        + bytes([5])
        + _v5_frame(1, zlib.compress(header), len(header))
        + _v5_frame(2, _zeros_compressed(INFLATED), INFLATED)
    )


def _v3_bomb() -> bytes:
    """A v3 container whose body inflates to 4 MiB."""
    return MAGIC + bytes([3]) + _zeros_compressed(INFLATED)


V5_READERS = (
    ("iter_segments", lambda data: list(iter_segments(data))),
    ("decode_log_sections", decode_log_sections),
    ("decode_log", decode_log),
)
V3_READERS = (
    ("decode_log_sections", decode_log_sections),
    ("decode_log", decode_log),
)


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(binary_format, "MAX_INFLATED_BYTES", BUDGET)


def _refused_in_bounded_memory(read, data) -> LogFormatError:
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError) as info:
            read(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    return info.value


class TestInflationBudget:
    @pytest.mark.parametrize("name, read", V5_READERS)
    def test_honest_v5_frame_past_the_budget_is_refused(self, small_budget, name, read):
        error = _refused_in_bounded_memory(read, _honest_v5_bomb())
        assert error.segment == 0, name
        assert "segment declares %d inflated bytes" % INFLATED in str(error), name

    @pytest.mark.parametrize("name, read", V3_READERS)
    def test_v3_body_past_the_budget_is_refused(self, small_budget, name, read):
        error = _refused_in_bounded_memory(read, _v3_bomb())
        assert "body inflates past" in str(error), name

    def test_the_budget_is_charged_across_frames(self, monkeypatch):
        """Two frames that each fit the budget but together exceed it."""
        header = _text("two") + _text("") + encode_varint(0) + _text("") + b"\x01"
        half = BUDGET * 3 // 4
        data = (
            MAGIC
            + bytes([5])
            + _v5_frame(1, zlib.compress(header), len(header))
            + _v5_frame(2, _zeros_compressed(half), half)
            + _v5_frame(2, _zeros_compressed(half), half)
        )
        monkeypatch.setattr(binary_format, "MAX_INFLATED_BYTES", BUDGET)
        with pytest.raises(LogFormatError) as info:
            list(iter_segments(data))
        assert info.value.segment == 1

    def test_a_real_container_fits_the_default_budget(self):
        from repro.isa import assemble
        from repro.record import record_run
        from repro.record.binary_format import encode_log, encode_log_segmented

        program = assemble(".data\nx: .word 0\n.thread a b\n    load r1, [x]\n    store r1, [x]\n    halt\n")
        _, log = record_run(program, seed=3)
        for data in (encode_log(log), encode_log_segmented(log)):
            assert decode_log(data) == log


@pytest.fixture
def service(small_budget):
    service = AnalysisService(
        ServiceConfig(pool_size=0, queue_capacity=4, port=0)
    ).start()
    server = make_server(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield ServiceClient(server.url)
    server.shutdown()
    service.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("bomb", [_honest_v5_bomb, _v3_bomb], ids=["v5", "v3"])
def test_upload_past_the_budget_is_400(service, bomb):
    with pytest.raises(ServiceError) as caught:
        service.submit_log(bomb())
    assert caught.value.status == 400
    assert "inflat" in str(caught.value)
