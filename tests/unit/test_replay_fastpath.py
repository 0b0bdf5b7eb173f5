"""Edge cases of the replay-stage fast path.

The predecoded thread replayer, the lazy register snapshots, the bisected
region lookup, the strict ``output()`` check and the v3 captured-columns
section each have corners the suite-wide equivalence tests sweep past:
races in the first or last region, empty regions, thread-end sequencers,
tampered logs, pickling a lazy replay.  Each test pins one such corner.
"""

import dataclasses
import pickle

import pytest

from reference_interp import ReferenceOrderedReplay, stripped
from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import decode_log, encode_log
from repro.replay.errors import ReplayDivergence
from repro.replay.events import LazyAccessList, LazyRegisterDict
from repro.replay.ordered_replay import OrderedReplay
from repro.vm import RandomScheduler

RACY = """
.data
x: .word 0
.thread a
    li r1, 3
al:
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    sys_rand r3, 2
    subi r1, r1, 1
    bnez r1, al
    sys_print r2
    halt
.thread b
    li r1, 3
bl:
    load r2, [x]
    addi r2, r2, 2
    store r2, [x]
    sys_rand r3, 2
    subi r1, r1, 1
    bnez r1, bl
    sys_print r2
    halt
"""

#: Race candidates in the very first and very last region of each thread:
#: no sequencer before the first access, none after the last.
EDGE_REGION_RACE = """
.data
x: .word 0
.thread a
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    fence
    load r2, [x]
    store r2, [x]
    halt
.thread b
    load r2, [x]
    addi r2, r2, 2
    store r2, [x]
    fence
    load r2, [x]
    store r2, [x]
    halt
"""


def _replayed(source, seed=7, name="fastpath"):
    program = assemble(source, name=name)
    result, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, result, log, OrderedReplay(log, program)


def _generic(log, program):
    return ReferenceOrderedReplay(stripped(log), program)


class TestRegionForStepBisect:
    def test_bisect_matches_linear_scan_everywhere(self):
        """The bisected ``region_for_step`` equals the reference linear
        scan on every (thread, step) pair, including past-the-end steps."""
        for source in (RACY, EDGE_REGION_RACE):
            _, _, log, ordered = _replayed(source)
            for name, thread_log in log.threads.items():
                for step in range(-1, thread_log.steps + 2):
                    fast = ordered.region_for_step(name, step)
                    slow = ordered._region_for_step_scan(name, step)
                    assert fast is slow, (name, step)


class TestLazySnapshotEdges:
    def test_first_and_last_region_snapshots(self):
        """Races living in a thread's first and last region force lazy
        reconstruction at both extremes of the step range."""
        program, _, log, ordered = _replayed(EDGE_REGION_RACE)
        generic = _generic(log, program)
        for name in log.threads:
            fast = ordered.thread_replays[name]
            slow = generic.thread_replays[name]
            assert fast.region_start_registers.materialize_all() == dict(
                slow.region_start_registers
            )
            assert fast.region_end_registers.materialize_all() == dict(
                slow.region_end_registers
            )
            assert fast.registers_at_step.materialize_all() == dict(
                slow.registers_at_step
            )

    def test_thread_end_sequencer_snapshot(self):
        """The thread-end boundary (step == steps) resolves to the final
        register file without reconstruction."""
        program, _, log, ordered = _replayed(RACY)
        for name, thread_log in log.threads.items():
            replay = ordered.thread_replays[name]
            if any(
                sequencer.thread_step == thread_log.steps
                for sequencer in thread_log.sequencers
            ):
                assert (
                    replay.region_end_registers[thread_log.steps]
                    == replay.final_registers
                )

    def test_empty_region_program(self):
        """Back-to-back fences make step-empty regions; the lazy dicts
        must still agree with the eager ones."""
        source = ".data\nx: .word 1\n.thread t\n    fence\n    fence\n    load r1, [x]\n    fence\n    halt\n"
        program, _, log, ordered = _replayed(source)
        generic = _generic(log, program)
        fast = ordered.thread_replays["t"]
        slow = generic.thread_replays["t"]
        assert fast.materialized() == slow.materialized()

    def test_invalid_step_raises_key_error(self):
        """A step that is neither a region boundary nor a memory access
        raises KeyError exactly like the eager dict."""
        program, _, log, ordered = _replayed(RACY)
        generic = _generic(log, program)
        replay = ordered.thread_replays["a"]
        slow = generic.thread_replays["a"]
        for step in range(log.threads["a"].steps):
            if step not in slow.registers_at_step:
                with pytest.raises(KeyError):
                    replay.registers_at_step[step]
                assert replay.registers_at_step.get(step) is None
                break
        else:  # pragma: no cover - RACY always has non-memory steps
            pytest.fail("no non-memory step found")

    def test_lazy_dict_is_lazy(self):
        """Plain construction plus a targeted query reconstructs only the
        queried snapshot, not every boundary."""
        _, _, _, ordered = _replayed(RACY)
        replay = ordered.thread_replays["a"]
        assert isinstance(replay.region_start_registers, LazyRegisterDict)
        assert isinstance(replay.accesses, LazyAccessList)
        assert not dict.__len__(replay.registers_at_step)
        first_access_step = replay.accesses[0].thread_step
        replay.registers_at_step[first_access_step]
        assert dict.__len__(replay.registers_at_step) == 1


class TestOnePath:
    def test_fast_path_false_is_rejected(self):
        """``fast_path`` survives only as a True-only keyword: there is no
        other replay path to select."""
        program, _, log, _ = _replayed(RACY)
        with pytest.raises(ValueError):
            OrderedReplay(log, program, fast_path=False)
        assert OrderedReplay(log, program, fast_path=True).output() == (
            OrderedReplay(log, program).output()
        )


class TestStrictOutput:
    def test_tampered_log_raises_divergence(self):
        """A sys_print sequencer whose syscall record was dropped is a
        divergence, not silently truncated output."""
        program, _, log, _ = _replayed(RACY)
        tampered = dataclasses.replace(log)
        tampered.threads = dict(log.threads)
        for name, thread_log in log.threads.items():
            print_steps = [
                step
                for step, record in thread_log.syscalls.items()
                if record.name == "sys_print"
            ]
            if print_steps:
                syscalls = dict(thread_log.syscalls)
                del syscalls[print_steps[0]]
                tampered.threads[name] = dataclasses.replace(
                    thread_log, syscalls=syscalls
                )
                break
        else:  # pragma: no cover - RACY prints from both threads
            pytest.fail("no sys_print record found")
        with pytest.raises(ReplayDivergence):
            OrderedReplay(tampered, program).output()

    def test_output_served_without_materializing_threads(self):
        """``output()`` reads the logged records directly — no thread
        replay is materialized."""
        program, result, log, ordered = _replayed(RACY)
        assert ordered.output() == result.output
        assert not ordered.thread_replays._replays


class TestCapturedRoundTrip:
    def test_v3_round_trips_captured_columns(self):
        _, _, log, _ = _replayed(RACY)
        assert log.captured is not None
        decoded = decode_log(encode_log(log))
        assert decoded == log
        assert decoded.captured is not None
        assert decoded.captured.predicted_loads == log.captured.predicted_loads
        assert set(decoded.captured.threads) == set(log.captured.threads)
        for name, columns in log.captured.threads.items():
            other = decoded.captured.threads[name]
            assert other.steps == columns.steps
            assert other.addresses == columns.addresses
            assert other.values == columns.values
            assert other.flags == columns.flags
            assert other.static_ids == columns.static_ids
            assert other.heap_steps == columns.heap_steps
            assert other.heap_kinds == columns.heap_kinds
            assert other.heap_bases == columns.heap_bases
            assert other.heap_sizes == columns.heap_sizes

    def test_include_captured_false_omits_section(self):
        _, _, log, _ = _replayed(RACY)
        without = encode_log(log, include_captured=False)
        decoded = decode_log(without)
        assert decoded == log
        assert decoded.captured is None
        assert len(without) < len(encode_log(log))

    def test_heap_columns_round_trip(self):
        source = (
            ".thread t\n    li r1, 4\n    sys_alloc r2, r1\n    li r3, 9\n"
            "    store r3, [r2]\n    sys_free r2\n    halt\n"
        )
        _, _, log, _ = _replayed(source)
        columns = log.captured.threads["t"]
        assert columns.heap_kinds == ["alloc", "free"]
        decoded = decode_log(encode_log(log))
        other = decoded.captured.threads["t"]
        assert other.heap_steps == columns.heap_steps
        assert other.heap_kinds == columns.heap_kinds
        assert other.heap_bases == columns.heap_bases
        assert other.heap_sizes == columns.heap_sizes


class TestPickleSafety:
    def test_lazy_ordered_replay_pickles(self):
        """The engine ships OrderedReplay objects to pool workers; the
        lazy structures must survive the round trip with equal behavior."""
        program, _, log, ordered = _replayed(RACY)
        ordered.thread_replays["a"]  # materialize one lazy replay
        clone = pickle.loads(pickle.dumps(ordered))
        assert clone.output() == ordered.output()
        assert clone.final_memory() == ordered.final_memory()
        for name in log.threads:
            assert (
                clone.thread_replays[name].materialized()
                == ordered.thread_replays[name].materialized()
            )
