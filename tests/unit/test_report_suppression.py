"""Unit tests for race reports and their suppressed flag."""

import pytest

from repro.isa import assemble
from repro.race import (
    ClassifierConfig,
    RaceClassifier,
    aggregate_instances,
    build_report,
    find_races,
    render_triage_list,
)
from repro.race.outcomes import Classification
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler

RACY = (
    ".data\nx: .word 10\n.thread a b\n    load r1, [x]\n"
    "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
)


@pytest.fixture
def analysis():
    program = assemble(RACY, name="report_prog")
    _, log = record_run(program, scheduler=RandomScheduler(seed=3), seed=3)
    ordered = OrderedReplay(log, program)
    instances = find_races(ordered)
    classifier = RaceClassifier(
        ordered,
        config=ClassifierConfig(store_replay_outcomes=True),
        execution_id="exec1",
    )
    results = aggregate_instances(classifier.classify_all(instances))
    return program, log, results


class TestRaceReport:
    def test_report_structure(self, analysis):
        program, log, results = analysis
        result = next(iter(results.values()))
        report = build_report(result, program, log)
        assert report.instance_count == result.instance_count
        assert "load" in report.instruction_a or "store" in report.instruction_a
        assert report.executions == ["exec1"]
        assert report.scenarios

    def test_scenario_carries_reproduction_info(self, analysis):
        program, log, results = analysis
        harmful = [
            r
            for r in results.values()
            if r.classification is Classification.POTENTIALLY_HARMFUL
        ]
        report = build_report(harmful[0], program, log)
        text = report.render()
        assert "seed 3" in text
        assert "racing ops" in text
        assert "report_prog" in text

    def test_state_change_diff_rendered(self, analysis):
        program, log, results = analysis
        harmful = [
            r
            for r in results.values()
            if r.classification is Classification.POTENTIALLY_HARMFUL
        ]
        report = build_report(harmful[0], program, log)
        rendered = report.render()
        assert "original" in rendered and "alternative" in rendered

    def test_triage_list_orders_harmful_first(self, analysis):
        program, log, results = analysis
        reports = [build_report(r, program, log) for r in results.values()]
        text = render_triage_list(reports)
        assert "potentially harmful" in text
        first_block = text.split("=" * 72)[1]
        assert "potentially-harmful" in first_block

    def test_suggested_reason_included(self, analysis):
        program, log, results = analysis
        result = next(iter(results.values()))
        report = build_report(result, program, log, suggested_reason="redundant-write")
        assert "redundant-write" in report.render()

    def test_suppressed_flag_in_report(self, analysis):
        program, log, results = analysis
        result = next(iter(results.values()))
        report = build_report(result, program, log, suppressed=True)
        assert "suppressed" in report.render()
