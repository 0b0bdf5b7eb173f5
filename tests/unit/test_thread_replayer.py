"""Unit tests for isolated per-thread replay.

Fidelity and snapshot cases run the production replayer and pin it to
the generic oracle (``tests/reference_interp.py``); the divergence cases
run the production replayer alone.
"""

import pytest

from reference_interp import ReferenceThreadReplayer
from repro.isa import assemble
from repro.record import record_run
from repro.replay import ReplayDivergence, ThreadReplayer, replay_thread
from repro.vm import ExplicitScheduler, RandomScheduler

from conftest import record_with_trace


def roundtrip(source, seed=3, scheduler=None):
    program = assemble(source, name="rt")
    result, log = record_run(
        program,
        scheduler=scheduler or RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    replays = {
        name: replay_thread(program, log, name) for name in log.threads
    }
    for name, replay in replays.items():
        oracle = ReferenceThreadReplayer(program, log, name).run()
        assert replay.materialized() == oracle, name
    return program, result, log, replays


class TestFidelity:
    def test_final_registers_match(self):
        _, result, _, replays = roundtrip(
            ".data\nx: .word 0\n.thread a b\n    li r1, 4\nl:\n    load r2, [x]\n"
            "    addi r2, r2, 1\n    store r2, [x]\n    subi r1, r1, 1\n"
            "    bnez r1, l\n    halt\n"
        )
        for name, replay in replays.items():
            assert replay.final_registers == result.threads[name].registers

    def test_step_counts_match(self):
        _, result, _, replays = roundtrip(
            ".thread a b\n    li r1, 3\nl:\n    subi r1, r1, 1\n    bnez r1, l\n"
            "    halt\n"
        )
        for name, replay in replays.items():
            assert replay.steps == result.threads[name].steps

    def test_isolated_replay_sees_cross_thread_values(self):
        # b writes 9 into x between a's loads; a's replay must still see it.
        source = (
            ".data\nx: .word 1\n.thread a\n    load r1, [x]\n    load r2, [x]\n"
            "    sys_print r2\n    halt\n"
            ".thread b\n    li r1, 9\n    store r1, [x]\n    halt\n"
        )
        program = assemble(source)
        _, log = record_run(program, scheduler=ExplicitScheduler([0, 1, 1, 1, 0, 0, 0]))
        replay = replay_thread(program, log, "a")
        values = [a.value for a in replay.accesses if not a.is_write]
        assert values == [1, 9]

    def test_syscall_results_replayed(self):
        _, result, log, replays = roundtrip(
            ".thread t\n    sys_rand r1, 1000\n    sys_print r1\n    halt\n"
        )
        assert replays["t"].output == result.output

    def test_faulted_thread_replays_retired_prefix(self):
        source = (
            ".data\nx: .word 3\n.thread t\n    load r1, [x]\n    li r2, 0\n"
            "    load r3, [r2]\n    halt\n"  # null deref on 3rd instruction
        )
        program = assemble(source)
        result, log = record_run(program)
        assert result.threads["t"].status == "faulted"
        replay = replay_thread(program, log, "t")
        assert replay.steps == 2  # the faulting load never retired
        assert replay.final_registers[1] == 3

    def test_heap_events_reconstructed(self):
        _, _, _, replays = roundtrip(
            ".thread t\n    li r1, 3\n    sys_alloc r2, r1\n    sys_free r2\n"
            "    halt\n"
        )
        events = replays["t"].heap_events
        assert [e.kind for e in events] == ["alloc", "free"]
        assert events[0].size == 3
        assert events[0].base == events[1].base


class TestSnapshots:
    def test_region_start_snapshots_present(self):
        program = assemble(
            ".data\nm: .word 0\n.thread t\n    li r1, 7\n    lock [m]\n"
            "    addi r1, r1, 1\n    unlock [m]\n    halt\n"
        )
        _, log = record_run(program)
        replay = replay_thread(program, log, "t")
        # Regions start at steps 0 (thread start), 2 (after lock), 4 (after unlock).
        assert 0 in replay.region_start_registers
        assert 2 in replay.region_start_registers
        assert replay.region_start_registers[2][1] == 7  # r1 before the addi
        assert replay.region_start_pcs[2] == 2

    def test_access_lookup_helpers(self):
        program = assemble(
            ".data\nx: .word 4\n.thread t\n    load r1, [x]\n    halt\n"
        )
        _, log = record_run(program)
        replay = replay_thread(program, log, "t")
        access = replay.access_at(0)
        assert access is not None and access.value == 4
        assert replay.access_at(0, address=0xBAD) is None
        assert replay.accesses_in_steps(0, 1) == [access]


class TestDivergence:
    def test_unknown_thread(self):
        program = assemble(".thread t\n    halt\n")
        _, log = record_run(program)
        with pytest.raises(ReplayDivergence):
            ThreadReplayer(program, log, "ghost")

    def test_corrupted_load_address_detected(self):
        program = assemble(
            ".data\nx: .word 4\n.thread t\n    load r1, [x]\n    halt\n"
        )
        _, log = record_run(program)
        record = log.threads["t"].loads[0]
        log.threads["t"].loads[0] = type(record)(
            thread_step=0, address=record.address + 1, value=record.value
        )
        with pytest.raises(ReplayDivergence):
            replay_thread(program, log, "t")

    def test_missing_load_record_detected(self):
        program = assemble(
            ".data\nx: .word 4\n.thread t\n    load r1, [x]\n    halt\n"
        )
        _, log = record_run(program)
        log.threads["t"].loads.clear()
        with pytest.raises(ReplayDivergence):
            replay_thread(program, log, "t")

    def test_missing_syscall_record_detected(self):
        program = assemble(".thread t\n    sys_rand r1, 5\n    halt\n")
        _, log = record_run(program)
        log.threads["t"].syscalls.clear()
        with pytest.raises(ReplayDivergence):
            replay_thread(program, log, "t")
