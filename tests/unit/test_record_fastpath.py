"""Edge cases of the record-stage fast path.

The predecoded interpreter, the columnar recorder, and the v2 binary
elision each have corners the paper suite never exercises: faulting
threads, threads that retire zero steps, regions containing nothing but
sequencers, and logs whose load values actually repeat.  Each test pins
the predecoded interpreter to the generic oracle
(``tests/reference_interp.py``) or to a hand-built expectation on one
such corner.
"""

import dataclasses

import pytest

import reference_interp
from repro.analysis.access_index import AccessIndex
from repro.isa import assemble
from repro.record import Recorder, record_run
from repro.record.binary_format import (
    BINARY_FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    decode_log,
    encode_log,
)
from repro.record.log import LoadRecord, ReplayLog, ThreadEnd, ThreadLog
from repro.record.serialization import load_log, save_log
from repro.replay.ordered_replay import OrderedReplay
from repro.vm import ExplicitScheduler, RandomScheduler


def _both_paths(program, **kwargs):
    fast = record_run(program, **kwargs)
    slow = reference_interp.record_run(program, **kwargs)
    return fast, slow


class TestFastPathEdgeCases:
    def test_faulting_thread_matches_reference(self):
        # Null dereference on the second instruction: the fault must land
        # at the same step with the same columnar capture either way.
        program = assemble(
            ".thread t\n    li r1, 0\n    load r2, [r1]\n    halt\n"
        )
        (fast_result, fast_log), (slow_result, slow_log) = _both_paths(program)
        assert fast_log == slow_log
        assert fast_result.threads == slow_result.threads
        assert fast_result.threads["t"].fault_kind is not None
        assert fast_log.threads["t"].end.reason == "fault"

    def test_immediate_fault_thread_retires_zero_steps(self):
        # The very first instruction faults: zero retired steps, an empty
        # access column, and a fault-kind thread end.
        program = assemble(".thread t\n    load r1, [r0]\n    halt\n")
        (fast_result, fast_log), (slow_result, slow_log) = _both_paths(program)
        assert fast_log == slow_log
        assert fast_log.threads["t"].steps == 0
        assert len(fast_log.captured.threads["t"]) == 0

    def test_thread_falls_off_end_of_block(self):
        # A block with no terminating halt: the pc walks past the last
        # instruction and the thread ends with "fell-off-end" under both
        # interpreters.  (The assembler rejects truly empty blocks, so a
        # single nop is the smallest such program.)
        program = assemble(".thread t\n    nop\n.thread worker\n    li r1, 1\n    halt\n")
        (fast_result, fast_log), (slow_result, slow_log) = _both_paths(program)
        assert fast_log == slow_log
        assert fast_log.threads["t"].steps == 1
        assert fast_log.threads["t"].end.reason == "fell-off-end"
        assert fast_result.threads == slow_result.threads

    def test_sequencer_only_regions(self):
        # fence;fence creates regions with sequencers but no accesses; the
        # columnar capture must leave them empty and still round-trip.
        program = assemble(".thread t\n    fence\n    fence\n    halt\n")
        (fast_result, fast_log), (slow_result, slow_log) = _both_paths(program)
        assert fast_log == slow_log
        assert len(fast_log.threads["t"].sequencers) >= 2
        assert len(fast_log.captured.threads["t"]) == 0
        assert decode_log(encode_log(fast_log)) == fast_log

    def test_blocked_lock_matches_reference(self):
        # Thread b blocks on a's lock; the block/wake path flows through
        # the fast dispatch's K_LOCK branch.
        program = assemble(
            ".data\nm: .word 0\nx: .word 0\n"
            ".thread a\n    lock [m]\n    li r1, 1\n    store r1, [x]\n"
            "    unlock [m]\n    halt\n"
            ".thread b\n    lock [m]\n    load r1, [x]\n    unlock [m]\n    halt\n"
        )
        for seed in (1, 5, 9):
            fast = record_run(
                program,
                scheduler=RandomScheduler(seed=seed, switch_probability=0.5),
            )
            slow = reference_interp.record_run(
                program,
                scheduler=RandomScheduler(seed=seed, switch_probability=0.5),
            )
            assert fast[1] == slow[1]
            assert fast[0].threads == slow[0].threads


class TestCapturedAccessIndex:
    def test_captured_index_matches_replay_derived(self):
        program = assemble(
            ".data\nx: .word 0\n"
            ".thread a\n    li r1, 3\nal:\n    load r2, [x]\n    addi r2, r2, 1\n"
            "    store r2, [x]\n    sys_rand r3, 2\n    subi r1, r1, 1\n"
            "    bnez r1, al\n    halt\n"
            ".thread b\n    li r1, 3\nbl:\n    load r2, [x]\n    addi r2, r2, 2\n"
            "    store r2, [x]\n    sys_rand r3, 2\n    subi r1, r1, 1\n"
            "    bnez r1, bl\n    halt\n"
        )
        _, log = record_run(
            program, scheduler=RandomScheduler(seed=7, switch_probability=0.4), seed=7
        )
        assert log.captured is not None

        from_capture = AccessIndex(OrderedReplay(log, program))
        stripped = dataclasses.replace(log)
        stripped.captured = None
        from_replay = AccessIndex(OrderedReplay(stripped, program))

        assert list(from_capture.steps) == list(from_replay.steps)
        assert list(from_capture.addresses) == list(from_replay.addresses)
        assert list(from_capture.values) == list(from_replay.values)
        assert bytes(from_capture.write_flags) == bytes(from_replay.write_flags)
        assert list(from_capture.region_of) == list(from_replay.region_of)
        assert from_capture.postings == from_replay.postings
        assert [
            (a.thread_step, a.static_id, a.address, a.value, a.is_write)
            for a in from_capture.materialized_objects()
        ] == [
            (a.thread_step, a.static_id, a.address, a.value, a.is_write)
            for a in from_replay.materialized_objects()
        ]


class TestSerializationEdges:
    def test_uppercase_json_suffix_round_trips_as_json(self, tmp_path):
        program = assemble(".thread t\n    sys_rand r1, 5\n    halt\n")
        _, log = record_run(program, seed=2)
        path = tmp_path / "LOG.JSON"
        save_log(log, path)
        assert path.read_bytes().lstrip().startswith(b"{")
        assert load_log(path) == log

    def test_v1_container_still_decodes(self):
        program = assemble(
            ".data\nx: .word 4\n.thread t\n    load r1, [x]\n    halt\n"
        )
        _, log = record_run(program)
        assert decode_log(encode_log(log, version=1)) == log

    def test_unknown_version_rejected(self):
        program = assemble(".thread t\n    halt\n")
        _, log = record_run(program)
        with pytest.raises(ValueError):
            encode_log(log, version=max(SUPPORTED_VERSIONS) + 1)
        blob = bytearray(encode_log(log))
        blob[4] = 99  # container version byte follows the 4-byte magic
        with pytest.raises(ValueError):
            decode_log(bytes(blob))


class TestPredictedLoadElision:
    def _log_with_repeats(self):
        """A hand-built log whose logged load values repeat per address —
        the case the v2 wire predictor elides."""
        thread = ThreadLog(
            name="t",
            tid=0,
            block="t",
            initial_registers=(0,) * 16,
            loads={
                0: LoadRecord(thread_step=0, address=0x40, value=7),
                2: LoadRecord(thread_step=2, address=0x40, value=7),
                4: LoadRecord(thread_step=4, address=0x40, value=9),
                6: LoadRecord(thread_step=6, address=0x40, value=9),
                8: LoadRecord(thread_step=8, address=0x80, value=7),
            },
            syscalls={},
            sequencers=[],
            pc_footprint={0},
            steps=10,
            end=ThreadEnd(thread_step=10, reason="halt", fault_kind=None),
        )
        return ReplayLog(
            program_name="elision",
            program_source=".thread t\n    halt\n",
            threads={"t": thread},
            seed=0,
            scheduler="",
            global_order=None,
        )

    def test_elision_fires_and_round_trips(self):
        log = self._log_with_repeats()
        stats = {}
        blob = encode_log(log, elide_predicted_loads=True, stats=stats)
        # Steps 2 and 6 repeat the previous logged value of 0x40; the
        # 0x80 load is a different address and must not be predicted.
        assert stats["elided_load_values"] == 2
        assert decode_log(blob) == log

    def test_elision_shrinks_the_container(self):
        thread = self._log_with_repeats().threads["t"]
        loads = {
            step: LoadRecord(thread_step=step, address=0x40, value=123456789)
            for step in range(0, 200, 2)
        }
        log = ReplayLog(
            program_name="elision",
            program_source=".thread t\n    halt\n",
            threads={"t": dataclasses.replace(thread, loads=loads, steps=200)},
            seed=0,
            scheduler="",
            global_order=None,
        )
        elided = encode_log(log, elide_predicted_loads=True)
        verbatim = encode_log(log, elide_predicted_loads=False)
        assert len(elided) < len(verbatim)
        assert decode_log(elided) == decode_log(verbatim) == log

    def test_no_elision_flag_still_v2_decodable(self):
        log = self._log_with_repeats()
        stats = {}
        blob = encode_log(log, elide_predicted_loads=False, stats=stats)
        assert stats["elided_load_values"] == 0
        assert decode_log(blob) == log
