"""Integration test: the paper's developer triage workflow (Section 1).

1. Record test scenarios; analyse; get a prioritized report with
   potentially-harmful races first, and absorb the verdicts into the
   fleet store.
2. The developer triages a flagged race as benign; it is persisted as a
   program-scoped suppression rule in the store.
3. A later analysis of a new execution suppresses it, keeping developer
   attention on the remaining potentially-harmful races.
"""

import pytest

from repro.analysis import analyze_execution
from repro.fleet import FleetStore, MemoryBackend, SuppressionRule
from repro.race import Classification, aggregate_instances, results_to_json
from repro.race.model import static_key_to_text
from repro.race.report import render_triage
from repro.workloads.benign_approximate import stats_counter
from repro.workloads.harmful_lost_update import lost_update
from repro.workloads.composite import combine_workloads
from repro.workloads.suite import Execution


@pytest.fixture(scope="module")
def service():
    return combine_workloads(
        "triage_service",
        "a service with one intended race and one real bug",
        stats_counter(6),
        lost_update(6),
    )


def analyse(service, execution_id, seed):
    analysis = analyze_execution(Execution(execution_id, service, seed))
    return analysis, aggregate_instances(analysis.classified)


def suppressed_keys(store, program, results):
    rules = store.suppression_rules()
    return {
        key
        for key in results
        if any(
            rule.matches(static_key_to_text(key), "", program=program.name)
            for rule in rules
        )
    }


def mark_benign(store, program, key, reason=""):
    return store.suppress(
        SuppressionRule(
            scope="race",
            race=static_key_to_text(key),
            program=program.name,
            reason=reason,
            created_by="dev",
        )
    )


def test_full_triage_cycle(service, tmp_path):
    program = service.program()
    analysis, results = analyse(service, "night1", seed=10)

    # --- night 1: everything flagged is reported, harmful first --------
    store = FleetStore(MemoryBackend())
    document = results_to_json(
        results,
        program,
        log=analysis.log,
        suppressed=suppressed_keys(store, program, results),
    )
    triage = render_triage(document)
    assert "potentially harmful (triage these)" in triage
    assert "suggested benign reason:" in triage
    assert "Triage priority" in triage
    store.absorb_report(document, "night1")

    flagged = {
        key: result
        for key, result in results.items()
        if result.classification is Classification.POTENTIALLY_HARMFUL
    }
    assert flagged

    # --- the developer marks the stats races benign ---------------------
    stats_address = program.data_address("stats_st6")
    for key, result in flagged.items():
        addresses = {c.instance.address for c in result.instances}
        if stats_address in addresses:
            mark_benign(store, program, key, reason="approximate statistics")
    assert len(store.suppression_rules()) >= 1
    disk = FleetStore.open(tmp_path / "fleet")
    disk.import_document(store.export_document())
    disk.close()

    # --- night 2: a fresh execution; suppressions persist ---------------
    store2 = FleetStore.open(tmp_path / "fleet")
    analysis2, results2 = analyse(service, "night2", seed=37)
    suppressed2 = suppressed_keys(store2, program, results2)
    document2 = results_to_json(
        results2, program, log=analysis2.log, suppressed=suppressed2
    )
    store2.absorb_report(document2, "night2")
    assert store2.counts()["absorbed_jobs"] == 2
    races2 = {race["race"]: race for race in document2["races"]}
    suppressed = [race for race in races2.values() if race["suppressed"]]
    active_harmful = [
        race
        for race in races2.values()
        if race["classification"] == str(Classification.POTENTIALLY_HARMFUL)
        and not race["suppressed"]
    ]
    assert suppressed, "previously triaged races must be suppressed"
    assert active_harmful, "the real bug must still be reported"
    assert "%d suppressed" % len(suppressed) in render_triage(document2)
    balance_address = program.data_address("balance_lu6")
    balance_races = [
        races2[static_key_to_text(key)]
        for key, result in results2.items()
        if balance_address in {c.instance.address for c in result.instances}
    ]
    assert balance_races
    assert all(not race["suppressed"] for race in balance_races)


def test_retriage_unmark(service):
    program = service.program()
    _, results = analyse(service, "x", seed=10)
    key = next(iter(results))
    store = FleetStore(MemoryBackend())
    rule_id = mark_benign(store, program, key)
    assert suppressed_keys(store, program, results) == {key}
    assert store.unsuppress(rule_id)
    assert not suppressed_keys(store, program, results)
