#!/usr/bin/env python
"""The paper's development-environment usage model, end to end.

Night 1: record the product's test scenarios, analyse them offline,
absorb the verdicts into a fleet store, and hand the developer a triage
list with the potentially harmful races first.  The developer inspects
the approximate-statistics race, declares it intended, and marks it
benign — a suppression rule for this program, persisted to disk.

Night 2: a new round of recordings against the store on disk.
Previously triaged races are suppressed; only the remaining potentially
harmful races (the real bug) demand attention.

Run:  python examples/triage_workflow.py
"""

import tempfile

from repro import aggregate_instances
from repro.analysis import analyze_execution
from repro.fleet import FleetStore, MemoryBackend, SuppressionRule
from repro.race import results_to_json
from repro.race.model import static_key_to_text
from repro.race.outcomes import Classification
from repro.race.report import render_triage
from repro.workloads import Execution, stats_counter, lost_update
from repro.workloads.composite import combine_workloads


def analyse_night(service, night, seed, store):
    """One nightly analysis round: record, classify, absorb, report."""
    execution_id = "%s#s%d" % (night, seed)
    analysis = analyze_execution(Execution(execution_id, service, seed))
    results = aggregate_instances(analysis.classified)
    program = service.program()
    rules = store.suppression_rules()
    suppressed = {
        key
        for key in results
        if any(
            rule.matches(static_key_to_text(key), "", program=program.name)
            for rule in rules
        )
    }
    document = results_to_json(
        results, program, log=analysis.log, suppressed=suppressed
    )
    print(render_triage(document))
    store.absorb_report(document, execution_id)
    return results


def nightly_triage(store_dir: str) -> None:
    service = combine_workloads(
        "nightly_service",
        "a service with an intended statistics race and a real lost-update bug",
        stats_counter(0, iters=5),
        lost_update(0, iters=5),
    )
    program = service.program()
    stats_address = program.data_address("stats_st0")
    store = FleetStore(MemoryBackend())

    print("=" * 72)
    print("NIGHT 1 — first analysis of the service")
    print("=" * 72)
    results = analyse_night(service, "night1", seed=10, store=store)

    # The developer triages: the stats races are intended (approximate
    # computation), so they are marked benign for this program.
    marked = 0
    for key, result in results.items():
        if result.classification is not Classification.POTENTIALLY_HARMFUL:
            continue
        addresses = {entry.instance.address for entry in result.instances}
        if stats_address in addresses:
            store.suppress(
                SuppressionRule(
                    scope="race",
                    race=static_key_to_text(key),
                    program=program.name,
                    reason="approximate statistics — intended by the developers",
                    created_by="alice",
                )
            )
            marked += 1
    # Persist the night's store: merge it into a store directory on disk.
    disk = FleetStore.open(store_dir)
    disk.import_document(store.export_document())
    disk.close()
    print("\ndeveloper marked %d race(s) benign; saved to %s\n" % (marked, store_dir))

    print("=" * 72)
    print("NIGHT 2 — new recordings, previous triage applied")
    print("=" * 72)
    store2 = FleetStore.open(store_dir)
    analyse_night(service, "night2", seed=37, store=store2)
    counts = store2.counts()
    print(
        "\nfleet store: %d unique race(s) over %d night(s), %d suppression rule(s)"
        % (counts["unique_races"], counts["absorbed_jobs"], counts["suppression_rules"])
    )

    print("\nThe remaining potentially-harmful races all touch the balance —")
    print("the genuine lost-update bug that must be fixed.")


def main() -> None:
    with tempfile.TemporaryDirectory() as store_dir:
        nightly_triage(store_dir)


if __name__ == "__main__":
    main()
