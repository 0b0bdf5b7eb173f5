"""Unit tests for the text race report rendered from the export document."""

import pytest

from repro.isa import assemble
from repro.race import (
    ClassifierConfig,
    RaceClassifier,
    aggregate_instances,
    find_races,
    results_to_json,
)
from repro.race.outcomes import Classification
from repro.race.report import render_triage
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


def race_blocks(text):
    """The per-race blocks of a rendered triage list, in listed order."""
    return text.split("=" * 72)[1:]


def harmful_block(program, log, results):
    document = results_to_json(results, program, log=log)
    harmful = [
        race
        for race in document["races"]
        if race["classification"] == str(Classification.POTENTIALLY_HARMFUL)
    ]
    assert harmful
    return document, harmful[0], race_blocks(render_triage(document))[0]


class TestRaceReport:
    def test_report_structure(self, analysis):
        program, log, results = analysis
        result = next(iter(results.values()))
        document = results_to_json(results, program, log=log)
        race = document["races"][0]
        assert race["instances"]["total"] == result.instance_count
        assert "load" in race["instructions"][0] or "store" in race["instructions"][0]
        assert race["executions"] == ["exec1"]
        assert race["scenarios"]
        assert race["instructions"][0] in render_triage(document)

    def test_scenario_carries_reproduction_info(self, analysis):
        program, log, results = analysis
        _, _, text = harmful_block(program, log, results)
        assert "seed 3" in text
        assert "racing ops" in text
        assert "report_prog" in text

    def test_state_change_diff_rendered(self, analysis):
        program, log, results = analysis
        _, race, text = harmful_block(program, log, results)
        assert any(scenario["live_out_difference"] for scenario in race["scenarios"])
        assert "diff: " in text
        assert "(original) vs " in text and "(alternative)" in text

    def test_triage_list_orders_harmful_first(self, analysis):
        program, log, results = analysis
        text = render_triage(results_to_json(results, program, log=log))
        assert "potentially harmful" in text
        assert "potentially-harmful" in race_blocks(text)[0]

    def test_suggested_reason_included(self, analysis):
        program, log, results = analysis
        document = results_to_json(results, program, log=log)
        document["races"][0]["suggested_reason"] = "redundant-write"
        assert "suggested benign reason: redundant-write" in render_triage(document)

    def test_suppressed_flag_in_report(self, analysis):
        program, log, results = analysis
        key = next(iter(results))
        text = render_triage(
            results_to_json(results, program, log=log, suppressed={key})
        )
        assert "1 suppressed" in text
        assert "(suppressed: previously triaged benign)" in race_blocks(text)[-1]

    def test_default_report_has_no_live_out_difference(self):
        program = assemble(RACY, name="report_prog")
        _, log = record_run(program, scheduler=RandomScheduler(seed=3), seed=3)
        ordered = OrderedReplay(log, program)
        classifier = RaceClassifier(ordered, execution_id="exec1")
        results = aggregate_instances(classifier.classify_all(find_races(ordered)))
        document = results_to_json(results, program, log=log)
        assert not any(
            "live_out_difference" in scenario
            for race in document["races"]
            for scenario in race["scenarios"]
        )
        assert "diff: " not in render_triage(document)
