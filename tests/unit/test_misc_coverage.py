"""Tests for smaller paths not covered elsewhere: trace queries, seed
sweeps, figure edge cases, report edge cases, error stringification."""

import pytest

from repro.isa import assemble
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.replay.errors import ReplayFailure, ReplayFailureKind
from repro.vm import TraceObserver, run_program
from repro.vm.errors import FaultKind, MemoryFault


class TestTraceObserverQueries:
    def test_global_order_of(self):
        program = assemble(".thread a b\n    nop\n    halt\n")
        trace = TraceObserver()
        run_program(program, observers=[trace])
        first = trace.steps[0]
        assert trace.global_order_of(first.tid, first.thread_step) == 0
        assert trace.global_order_of(99, 0) is None


class TestErrorRendering:
    def test_memory_fault_str(self):
        fault = MemoryFault(FaultKind.USE_AFTER_FREE, 0x100, "inside freed block")
        text = str(fault)
        assert "use-after-free" in text and "0x100" in text and "freed block" in text

    def test_fault_kind_str(self):
        assert str(FaultKind.NULL_DEREF) == "null-dereference"

    def test_replay_failure_str(self):
        failure = ReplayFailure(ReplayFailureKind.STEP_LIMIT, "wedged")
        assert "step-limit" in str(failure)
        assert "wedged" in str(failure)

    def test_replay_failure_without_detail(self):
        failure = ReplayFailure(ReplayFailureKind.UNKNOWN_ADDRESS)
        assert str(failure) == "unknown-address"


class TestSeedSweepHelper:
    def test_seed_sweep_expansion(self):
        from repro.workloads import flag_publish, seed_sweep

        workload = flag_publish(12)
        runs = seed_sweep(workload, [1, 2, 3])
        assert len(runs) == 3
        assert runs[0][0] == "%s#s1" % workload.name
        assert all(entry[1] is workload for entry in runs)


class TestFigureEdgeCases:
    def test_empty_series_renders(self):
        from repro.analysis.figures import FigureSeries

        series = FigureSeries(title="empty", points=[])
        assert series.max_instances == 0
        assert series.min_instances == 0
        assert series.mean_flagged_fraction == 0.0
        assert "no races" in series.render()

    def test_flagged_fraction(self):
        from repro.analysis.figures import FigurePoint

        point = FigurePoint(race="x", total_instances=10, flagged_instances=3)
        assert point.flagged_fraction == pytest.approx(0.3)
        zero = FigurePoint(race="y", total_instances=0, flagged_instances=0)
        assert zero.flagged_fraction == 0.0


class TestMetricsDetails:
    def test_per_thread_instruction_counts(self):
        from repro.record import log_metrics

        program = assemble(
            ".thread a\n    nop\n    halt\n.thread b\n    nop\n    nop\n    halt\n"
        )
        _, log = record_run(program)
        metrics = log_metrics(log)
        assert metrics.per_thread_instructions == {"a": 2, "b": 3}


class TestDisassemblerBlock:
    def test_disassemble_block_standalone(self):
        from repro.isa import disassemble_block

        program = assemble(".thread a b\n    li r1, 1\n    halt\n")
        text = disassemble_block(program.blocks["a"], ["a", "b"])
        assert text.startswith(".thread a b")
        assert "li r1, 1" in text


class TestOutputOrderingAcrossThreads:
    def test_merged_output_in_global_order(self):
        source = (
            ".thread a\n    li r1, 1\n    sys_print r1\n    sys_yield\n"
            "    li r1, 3\n    sys_print r1\n    halt\n"
            ".thread b\n    li r1, 2\n    sys_print r1\n    halt\n"
        )
        from repro.vm import ExplicitScheduler

        program = assemble(source)
        result, log = record_run(
            program, scheduler=ExplicitScheduler([0, 0, 0, 1, 1, 1, 0, 0, 0])
        )
        assert [value for _, value in result.output] == [1, 2, 3]
        ordered = OrderedReplay(log, program)
        assert ordered.output() == result.output


class TestRegionEdgeCases:
    def test_region_snapshot_for_empty_region_raises(self):
        from repro.replay.errors import ReplayDivergence

        program = assemble(
            ".data\nm: .word 0\n.thread t\n    lock [m]\n    unlock [m]\n    halt\n"
        )
        _, log = record_run(program)
        ordered = OrderedReplay(log, program)
        empty = [region for region in ordered.all_regions() if region.is_empty]
        assert empty
        with pytest.raises(ReplayDivergence):
            ordered.region_snapshot(empty[0])

    def test_region_for_step_outside(self):
        program = assemble(".thread t\n    nop\n    halt\n")
        _, log = record_run(program)
        ordered = OrderedReplay(log, program)
        assert ordered.region_for_step("t", 9999) is None


class TestReportEdgeCases:
    def test_failure_scenario_rendered(self):
        """Replay-failure scenarios carry the failure kind and detail."""
        from repro.race import (
            RaceClassifier,
            aggregate_instances,
            find_races,
            results_to_json,
        )
        from repro.race.report import render_triage
        from repro.vm import RandomScheduler

        source = (
            ".data\np: .word 0\n.thread w\n    li r1, 0x9999\n    store r1, [p]\n"
            "    halt\n.thread r\n    li r9, 20\nd:\n    subi r9, r9, 1\n"
            "    bnez r9, d\n    load r1, [p]\n    load r2, [r1]\n    halt\n"
        )
        program = assemble(source, name="failrep")
        _, log = record_run(program, scheduler=RandomScheduler(seed=1), seed=1)
        ordered = OrderedReplay(log, program)
        classifier = RaceClassifier(ordered, execution_id="x")
        results = aggregate_instances(classifier.classify_all(find_races(ordered)))
        document = results_to_json(results, program, log=log)
        failure_races = [race for race in document["races"] if race.get("failure_kinds")]
        assert failure_races
        scenario = failure_races[0]["scenarios"][0]
        assert scenario["failure"] in failure_races[0]["failure_kinds"]
        assert "alternative replay failed: %s" % scenario["failure"] in render_triage(
            document
        )
