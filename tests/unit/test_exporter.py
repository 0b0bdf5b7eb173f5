"""Unit tests for the JSON results exporter."""

import json

import pytest

from repro.isa import assemble
from repro.race import (
    RaceClassifier,
    aggregate_instances,
    export_results,
    find_races,
    results_to_json,
)
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler

RACY = (
    ".data\nx: .word 10\n.thread a b\n    load r1, [x]\n"
    "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
)


@pytest.fixture(scope="module")
def analysed():
    program = assemble(RACY, name="export_prog")
    _, log = record_run(program, scheduler=RandomScheduler(seed=3), seed=3)
    ordered = OrderedReplay(log, program)
    classifier = RaceClassifier(ordered, execution_id="e1")
    results = aggregate_instances(classifier.classify_all(find_races(ordered)))
    return program, log, results


class TestResultsToJson:
    def test_document_structure(self, analysed):
        program, log, results = analysed
        document = results_to_json(results, program, log=log)
        assert document["export_version"] == 1
        assert document["program"] == "export_prog"
        assert document["recording"]["seed"] == 3
        assert document["summary"]["unique_races"] == len(results)
        assert (
            document["summary"]["potentially_harmful"]
            + document["summary"]["potentially_benign"]
            == len(results)
        )

    def test_race_entries(self, analysed):
        program, log, results = analysed
        document = results_to_json(results, program, log=log)
        for race in document["races"]:
            counts = race["instances"]
            assert counts["total"] == (
                counts["no_state_change"]
                + counts["state_change"]
                + counts["replay_failure"]
            )
            assert race["executions"] == ["e1"]
            assert race["scenarios"]
            assert len(race["instructions"]) == 2

    def test_scenarios_prefer_flagged_instances(self, analysed):
        program, log, results = analysed
        document = results_to_json(results, program, log=log)
        harmful = [
            race
            for race in document["races"]
            if race["classification"] == "potentially-harmful"
        ]
        assert harmful
        for race in harmful:
            assert all(
                scenario["outcome"] != "no-state-change"
                for scenario in race["scenarios"]
            )

    def test_suppression_state_included(self, analysed):
        program, log, results = analysed
        key = next(iter(results))
        document = results_to_json(results, program, suppressed={key})
        suppressed = [race for race in document["races"] if race["suppressed"]]
        assert len(suppressed) == 1
        assert document["summary"]["actionable"] < document["summary"][
            "potentially_harmful"
        ] or document["summary"]["potentially_harmful"] == 0

    def test_deterministic_ordering(self, analysed):
        program, log, results = analysed
        one = results_to_json(results, program)
        two = results_to_json(results, program)
        assert [race["race"] for race in one["races"]] == [
            race["race"] for race in two["races"]
        ]

    def test_json_serializable(self, analysed):
        program, log, results = analysed
        text = json.dumps(results_to_json(results, program, log=log))
        assert json.loads(text)["program"] == "export_prog"


class TestExportResults:
    def test_writes_file(self, analysed, tmp_path):
        program, log, results = analysed
        path = tmp_path / "races.json"
        export_results(path, results, program, log=log)
        document = json.loads(path.read_text())
        assert document["summary"]["unique_races"] == len(results)
