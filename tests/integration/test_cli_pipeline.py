"""Integration scenario: the full CLI workflow a developer would run.

Write a service's source to disk; record two nights of executions;
classify into a fleet store with a JSON export; triage one race; verify
suppression persists and the store accumulates both nights; and gate a
would-be regression with `compare`.
"""

import io
import json

import pytest

from repro.cli import main
from repro.workloads import stats_counter, lost_update
from repro.workloads.composite import combine_workloads


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def service_source():
    service = combine_workloads(
        "cli_pipeline_svc",
        "stats + bank service",
        stats_counter(15, iters=3),
        lost_update(15, iters=3),
    )
    return service.source


def test_full_cli_workflow(tmp_path, service_source):
    program = tmp_path / "service.asm"
    program.write_text(service_source)
    store = tmp_path / "fleet"

    # --- night 1: record, validate, classify -------------------------
    log1 = tmp_path / "night1.replay.json"
    code, _ = run_cli(["record", str(program), "-o", str(log1), "--seed", "10"])
    assert code == 0
    code, text = run_cli(["validate", str(log1), "--strict"])
    assert code == 0

    json1 = tmp_path / "night1.results.json"
    code, text = run_cli(
        [
            "classify",
            str(log1),
            "--store",
            str(store),
            "--json",
            str(json1),
        ]
    )
    assert code == 0
    assert "Triage priority" in text
    document = json.loads(json1.read_text())
    assert document["summary"]["potentially_harmful"] >= 1

    # --- the developer triages the stats race ------------------------
    stats_race = next(
        race["race"]
        for race in document["races"]
        if "stat1" in race["race"]
    )
    code, _ = run_cli(
        [
            "mark-benign",
            str(log1),
            "--race",
            stats_race,
            "--reason",
            "approximate statistics",
            "--by",
            "alice",
            "--store",
            str(store),
        ]
    )
    assert code == 0

    # --- night 2: new seed; suppression applies; the store accumulates -
    log2 = tmp_path / "night2.replay.json"
    run_cli(["record", str(program), "-o", str(log2), "--seed", "41"])
    json2 = tmp_path / "night2.results.json"
    code, text = run_cli(
        [
            "classify",
            str(log2),
            "--store",
            str(store),
            "--json",
            str(json2),
        ]
    )
    assert code == 0
    assert "suppressed" in text
    document2 = json.loads(json2.read_text())
    suppressed = [race for race in document2["races"] if race["suppressed"]]
    assert suppressed
    # The bank bug stays actionable.
    assert document2["summary"]["actionable"] >= 1

    # --- the fleet store accumulated both nights ---------------------
    code, text = run_cli(
        ["fleet", "--store", str(store), "report", "--include-suppressed"]
    )
    assert code == 0
    stored = json.loads(text)
    assert stored["races"]
    assert any(len(race["executions"]) >= 2 for race in stored["races"])

    # --- drift gate: night2 vs night1 (same program: no NEW races) ----
    code, text = run_cli(["compare", str(json1), str(json2), "--gate"])
    assert code == 0

    # --- time travel into one racing operation -----------------------
    scenario = document2["races"][0]["scenarios"][0]
    thread = scenario["access_a"].split("@")[0]
    code, text = run_cli(
        ["inspect", str(log2), "--thread", thread, "--count", "3"]
    )
    assert code == 0
    assert thread in text
