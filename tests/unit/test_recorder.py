"""Unit tests for the load-based-checkpointing recorder."""

from repro.isa import assemble
from repro.record import Recorder, record_run
from repro.vm import ExplicitScheduler, Machine, RandomScheduler

from conftest import record_with_trace


class TestLoadLogging:
    def test_first_load_is_logged(self):
        program = assemble(
            ".data\nx: .word 5\n.thread t\n    load r1, [x]\n    halt\n"
        )
        _, log = record_run(program)
        thread_log = log.threads["t"]
        assert len(thread_log.loads) == 1
        record = thread_log.loads[0]
        assert record.value == 5
        assert record.address == program.data_address("x")

    def test_predicted_reload_not_logged(self):
        program = assemble(
            ".data\nx: .word 5\n.thread t\n    load r1, [x]\n    load r2, [x]\n"
            "    halt\n"
        )
        _, log = record_run(program)
        assert len(log.threads["t"].loads) == 1  # second load predicted

    def test_own_store_predicts_later_load(self):
        program = assemble(
            ".data\nx: .word 5\n.thread t\n    li r1, 9\n    store r1, [x]\n"
            "    load r2, [x]\n    halt\n"
        )
        _, log = record_run(program)
        assert len(log.threads["t"].loads) == 0  # store primed the cache

    def test_external_modification_relogged(self):
        # Thread b writes x between a's two loads (forced schedule).
        program = assemble(
            ".data\nx: .word 1\n.thread a\n    load r1, [x]\n    load r2, [x]\n"
            "    halt\n.thread b\n    li r1, 2\n    store r1, [x]\n    halt\n"
        )
        _, log = record_run(
            program, scheduler=ExplicitScheduler([0, 1, 1, 1, 0, 0])
        )
        loads = log.threads["a"].loads
        assert len(loads) == 2
        assert loads[0].value == 1 and loads[1].value == 2

    def test_syscall_results_always_logged(self):
        program = assemble(
            ".thread t\n    sys_rand r1, 100\n    sys_rand r2, 100\n    halt\n"
        )
        _, log = record_run(program, seed=3)
        assert len(log.threads["t"].syscalls) == 2

    def test_footprint_covers_executed_pcs(self):
        program = assemble(
            ".thread t\n    li r1, 2\nloop:\n    subi r1, r1, 1\n"
            "    bnez r1, loop\n    halt\n"
        )
        _, log = record_run(program)
        assert log.threads["t"].pc_footprint == {0, 1, 2, 3}

    def test_footprint_excludes_untaken_path(self):
        program = assemble(
            ".thread t\n    li r1, 1\n    bnez r1, skip\n    li r2, 9\n"
            "skip:\n    halt\n"
        )
        _, log = record_run(program)
        assert 2 not in log.threads["t"].pc_footprint


class TestSequencerRecords:
    def test_thread_boundaries_present(self):
        program = assemble(".thread t\n    halt\n")
        _, log = record_run(program)
        kinds = [s.kind for s in log.threads["t"].sequencers]
        assert kinds[0] == "thread_start"
        assert kinds[-1] == "thread_end"

    def test_sync_ops_logged_with_static_id(self):
        program = assemble(
            ".data\nm: .word 0\n.thread t\n    lock [m]\n    unlock [m]\n    halt\n"
        )
        _, log = record_run(program)
        sync = [s for s in log.threads["t"].sequencers if s.kind in ("lock", "unlock")]
        assert len(sync) == 2
        assert all(s.static_id is not None for s in sync)

    def test_timestamps_globally_unique(self):
        program = assemble(
            ".data\nm: .word 0\n.thread a b\n    lock [m]\n    unlock [m]\n    halt\n"
        )
        _, log = record_run(program)
        timestamps = [
            s.timestamp for thread in log.threads.values() for s in thread.sequencers
        ]
        assert len(set(timestamps)) == len(timestamps)

    def test_start_step_is_minus_one(self):
        program = assemble(".thread t\n    halt\n")
        _, log = record_run(program)
        start = log.threads["t"].sequencers[0]
        assert start.thread_step == -1


class TestGlobalOrder:
    def test_captured_by_default(self):
        program = assemble(".thread a b\n    nop\n    halt\n")
        _, log = record_run(program)
        assert log.global_order is not None
        assert len(log.global_order) == log.total_instructions

    def test_opt_out(self):
        program = assemble(".thread t\n    halt\n")
        _, log = record_run(program, capture_global_order=False)
        assert log.global_order is None

    def test_global_position_lookup(self):
        program = assemble(".thread a b\n    nop\n    halt\n")
        _, log = record_run(program, scheduler=ExplicitScheduler([1, 1, 0, 0]))
        first = log.global_order[0]
        assert log.global_position(*first) == 0

    def test_global_position_indexes_a_repeating_order_once(self):
        """An order that repeats an entry (the index holds it once) is
        still indexed once, not once per query."""

        class CountingOrder(list):
            walks = 0

            def __iter__(self):
                CountingOrder.walks += 1
                return super().__iter__()

        program = assemble(".thread a b\n    nop\n    halt\n")
        _, log = record_run(program, scheduler=ExplicitScheduler([1, 1, 0, 0]))
        order = CountingOrder(log.global_order)
        order[-1] = order[0]
        log.global_order = order
        for tid, step in list.__iter__(order):
            log.global_position(tid, step)
        assert CountingOrder.walks == 1
        assert log.global_position(*order[0]) == 0
        # A new order object is indexed afresh.
        log.global_order = list(reversed(order))
        assert log.global_position(*order[1]) == len(order) - 2


class TestEndRecords:
    def test_halt_reason(self):
        program = assemble(".thread t\n    halt\n")
        _, log = record_run(program)
        assert log.threads["t"].end.reason == "halt"

    def test_fault_recorded(self):
        program = assemble(".thread t\n    li r1, 0\n    load r2, [r1]\n    halt\n")
        _, log = record_run(program)
        end = log.threads["t"].end
        assert end.reason == "fault"
        assert "null" in end.fault_kind

    def test_steps_counted(self):
        program = assemble(".thread t\n    nop\n    nop\n    halt\n")
        _, log = record_run(program)
        assert log.threads["t"].steps == 3
        assert log.total_instructions == 3
