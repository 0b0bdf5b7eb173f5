"""Unit tests for the both-orders virtual processor."""

from dataclasses import replace

import pytest

from repro.isa import assemble
from repro.record import record_run
from repro.replay import (
    OrderedReplay,
    ReplayFailure,
    ReplayFailureKind,
    VPConfig,
    VPThreadSpec,
    VirtualProcessor,
    same_state,
)
from repro.race.happens_before import find_races
from repro.vm import RandomScheduler


def setup_vp(source, seed=3, config=None, instance_index=0, name="vp"):
    """Record a program, find its first race, and build the VP for it."""
    program = assemble(source, name=name)
    _, log = record_run(
        program, scheduler=RandomScheduler(seed=seed, switch_probability=0.4), seed=seed
    )
    ordered = OrderedReplay(log, program)
    instances = find_races(ordered)
    assert instances, "expected at least one race instance"
    instance = instances[instance_index]
    live_in, freed = ordered.pair_snapshot(instance.region_a, instance.region_b)

    def spec(access, region):
        thread_log = log.threads[access.thread_name]
        return VPThreadSpec(
            thread_name=access.thread_name,
            block=program.blocks[thread_log.block],
            start_pc=ordered.region_start_pc(region),
            registers=ordered.live_in_registers(region),
            racing_step_offset=access.thread_step - region.start_step,
            racing_static_id=access.static_id,
            pc_footprint=set(thread_log.pc_footprint),
        )

    processor = VirtualProcessor(
        program,
        live_in,
        freed,
        spec(instance.access_a, instance.region_a),
        spec(instance.access_b, instance.region_b),
        config,
    )
    return program, instance, live_in, processor


RACY_RMW = """
.data
x: .word 10
.thread a b
    load r1, [x]
    addi r1, r1, 1
    store r1, [x]
    halt
"""

SAME_VALUE = """
.data
x: .word 7
.thread a b
    li r1, 7
    store r1, [x]
    load r2, [x]
    halt
"""


class TestBothOrders:
    def test_rmw_orders_differ(self):
        program, instance, live_in, processor = setup_vp(RACY_RMW)
        first = processor.run(first=instance.access_a.thread_name)
        second = processor.run(first=instance.access_b.thread_name)
        assert not same_state(first, second, live_in)

    def test_redundant_write_orders_agree(self):
        program, instance, live_in, processor = setup_vp(SAME_VALUE)
        first = processor.run(first=instance.access_a.thread_name)
        second = processor.run(first=instance.access_b.thread_name)
        assert same_state(first, second, live_in)

    def test_run_is_deterministic(self):
        program, instance, live_in, processor = setup_vp(RACY_RMW)
        name = instance.access_a.thread_name
        assert processor.run(first=name).registers == processor.run(first=name).registers

    def test_outcome_contains_both_threads(self):
        program, instance, live_in, processor = setup_vp(RACY_RMW)
        outcome = processor.run(first=instance.access_a.thread_name)
        assert set(outcome.registers) == {
            instance.access_a.thread_name,
            instance.access_b.thread_name,
        }
        assert all(steps > 0 for steps in outcome.steps.values())

    def test_executed_trace_recorded(self):
        program, instance, live_in, processor = setup_vp(RACY_RMW)
        outcome = processor.run(first=instance.access_a.thread_name)
        for thread_name, executed in outcome.executed.items():
            assert executed, "thread %s executed nothing" % thread_name

    def test_unknown_first_thread_rejected(self):
        program, instance, live_in, processor = setup_vp(RACY_RMW)
        with pytest.raises(ValueError):
            processor.run(first="ghost")

    def test_unknown_first_thread_rejected_before_replaying(self):
        """A bad ``first`` is a programming error, never a replay failure:
        it is rejected even when phase 1 would fail."""
        program, instance, live_in, processor = setup_vp(RACY_RMW)
        # A racing op past the region end: phase 1 runs off the region.
        processor.spec_a = replace(processor.spec_a, racing_step_offset=10_000)
        with pytest.raises(ReplayFailure) as failure:
            processor.run(first=processor.spec_a.thread_name)
        assert failure.value.kind is ReplayFailureKind.DIVERGENCE
        with pytest.raises(ValueError):
            processor.run(first="ghost")


class TestSameState:
    def test_redundant_store_vs_no_store_is_equal(self):
        """A dirty write of the live-in value equals not writing at all."""
        from repro.replay.virtual_processor import VPOutcome

        base = dict(registers={"a": (0,) * 16}, end_pcs={"a": 5}, steps={"a": 1}, executed={"a": []})
        one = VPOutcome(dirty_memory={100: 7}, **base)
        other = VPOutcome(dirty_memory={}, **base)
        assert same_state(one, other, {100: 7})
        assert not same_state(one, other, {100: 6})

    def test_register_difference_detected(self):
        from repro.replay.virtual_processor import VPOutcome

        one = VPOutcome(
            registers={"a": (1,) + (0,) * 15},
            dirty_memory={},
            end_pcs={"a": 5},
            steps={"a": 1},
            executed={"a": []},
        )
        other = VPOutcome(
            registers={"a": (2,) + (0,) * 15},
            dirty_memory={},
            end_pcs={"a": 5},
            steps={"a": 1},
            executed={"a": []},
        )
        assert not same_state(one, other, {})

    def test_end_pc_difference_detected(self):
        from repro.replay.virtual_processor import VPOutcome

        one = VPOutcome(
            registers={"a": (0,) * 16},
            dirty_memory={},
            end_pcs={"a": 5},
            steps={"a": 1},
            executed={"a": []},
        )
        other = VPOutcome(
            registers={"a": (0,) * 16},
            dirty_memory={},
            end_pcs={"a": 6},
            steps={"a": 1},
            executed={"a": []},
        )
        assert not same_state(one, other, {})


class TestReplayFailures:
    def test_unknown_address_fails(self):
        source = """
.data
p: .word 0
.thread w
    li r1, 0x9999
    store r1, [p]
    halt
.thread r
    load r1, [p]
    load r2, [r1]
    halt
"""
        # Race on p: in the alternative order the reader dereferences
        # 0x9999, an address absent from the recorded live-in image —
        # OR the original reader read 0 and faulted.  Either way some
        # order must fail.
        program, instance, live_in, processor = setup_vp(source, seed=1)
        failures = []
        for first in (instance.access_a.thread_name, instance.access_b.thread_name):
            try:
                processor.run(first=first)
            except ReplayFailure as failure:
                failures.append(failure.kind)
        assert failures, "expected at least one replay failure"
        assert all(
            kind in (ReplayFailureKind.UNKNOWN_ADDRESS, ReplayFailureKind.MEMORY_FAULT)
            for kind in failures
        )

    def test_step_limit_fails(self):
        # The reader consumes the data, then spins on a completion flag the
        # writer only raises in its *suffix* (after its racing store).  The
        # reader is declared first, so its suffix replays before the
        # writer's: the alternative-order replay wedges in the spin and
        # hits the step limit.
        source = """
.data
flag: .word 0
data: .word 0
.thread r
    load r2, [data]
wait:
    load r1, [flag]
    beqz r1, wait
    halt
.thread w
    li r1, 1
    store r1, [data]
    store r1, [flag]
    halt
"""
        program = assemble(source, name="spin")
        _, log = record_run(program, scheduler=RandomScheduler(seed=3), seed=3)
        ordered = OrderedReplay(log, program)
        instances = [
            i
            for i in find_races(ordered)
            if i.address == program.data_address("data")
        ]
        assert instances
        from repro.race.classifier import ClassifierConfig, RaceClassifier

        classifier = RaceClassifier(ordered, config=ClassifierConfig(step_limit=500))
        outcomes = [classifier.classify_instance(i) for i in instances]
        assert any(
            c.failure_kind is ReplayFailureKind.STEP_LIMIT for c in outcomes
        ), [c.describe() for c in outcomes]

    def test_unknown_address_extension_reads_zero(self):
        source = """
.data
p: .word 0x8888
sink: .word 0
.thread w
    li r1, 0x9999
    store r1, [p]
    halt
.thread r
    li r9, 30
d:
    subi r9, r9, 1
    bnez r9, d
    load r1, [p]
    load r2, [r1+0]
    store r2, [sink]
    halt
"""
        # In the alternative order the reader dereferences the stale
        # 0x8888 pointer — an address absent from the live-in image.
        # Baseline: UNKNOWN_ADDRESS failure.  With
        # the §4.2.1 extension the read returns zero-filled memory and the
        # replay completes (classifying by state comparison instead).
        program = assemble(source, name="unk")
        from repro.vm import ExplicitScheduler

        _, log = record_run(program, scheduler=ExplicitScheduler([0] * 8 + [1] * 80))
        ordered = OrderedReplay(log, program)
        instances = [
            i for i in find_races(ordered) if i.address == program.data_address("p")
        ]
        assert instances
        from repro.race.classifier import ClassifierConfig, RaceClassifier

        baseline = RaceClassifier(ordered).classify_instance(instances[0])
        assert baseline.failure_kind is ReplayFailureKind.UNKNOWN_ADDRESS

        extended = RaceClassifier(
            ordered, config=ClassifierConfig(allow_unknown_addresses=True)
        ).classify_instance(instances[0])
        assert extended.failure_kind is not ReplayFailureKind.UNKNOWN_ADDRESS

    def test_unrecorded_control_flow_fails_without_extension(self):
        source = """
.data
guard: .word 0
.thread w
    li r1, 1
    store r1, [guard]
    halt
.thread r
    li r9, 25
d:
    subi r9, r9, 1
    bnez r9, d
    load r1, [guard]
    beqz r1, skip
    li r2, 111
skip:
    halt
"""
        # Reader originally sees guard=1 (delay) and takes the r2 path; the
        # alternative order reads 0 and goes down the skip edge... both pcs
        # are in the footprint (skip: halt is executed either way), so pick
        # the reverse: record with reader running FIRST so it sees 0 and
        # never records the r2 path.
        program = assemble(source, name="ucf")
        from repro.vm import ExplicitScheduler

        _, log = record_run(
            program, scheduler=ExplicitScheduler([1] * 60 + [0] * 10)
        )
        ordered = OrderedReplay(log, program)
        instances = find_races(ordered)
        assert instances
        from repro.race.classifier import RaceClassifier, ClassifierConfig

        outcome = RaceClassifier(ordered).classify_instance(instances[0])
        assert outcome.failure_kind is ReplayFailureKind.UNRECORDED_CONTROL_FLOW

        # The paper's §4.2.1 extension continues through the fresh path.
        extended = RaceClassifier(
            ordered, config=ClassifierConfig(allow_unrecorded_control_flow=True)
        ).classify_instance(instances[0])
        assert extended.failure_kind is None
