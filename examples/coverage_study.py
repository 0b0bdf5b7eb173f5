#!/usr/bin/env python
"""Coverage and prioritization: running the analysis like a test-lab lead.

Two practical questions the paper's deployment raises:

1. *How many recordings are enough?*  A dynamic analysis only sees the
   races its recordings exercise (§2.1).  We sweep seeds over two
   workloads and plot the race-discovery curve — one saturates instantly,
   the schedule-sensitive one needs several recordings.

2. *What should a developer look at first?*  Within the potentially
   harmful bucket we rank races by evidence strength (state-change
   fraction, crash-like replay failures, breadth of sightings).

Run:  python examples/coverage_study.py
"""

from repro.analysis import analyze_execution
from repro.analysis.sweep import seed_coverage
from repro.fleet import rank_records, render_ranking, report_records
from repro.race import aggregate_instances, results_to_json
from repro.workloads import Execution, stats_counter, toctou_handle
from repro.workloads.composite import combine_workloads
from repro.workloads.harmful_lost_update import lost_update
from repro.workloads.harmful_refcount import refcount_free


#: Each bug family of the combined service, by its block-name tag.
FAMILIES = (("_lu21", "lost-update"), ("_st21", "statistics"), ("_rc21", "refcount"))


def ranking_summary(ranked) -> str:
    """One sentence read off ``ranked``: each bug family at the position
    of its best-ranked race, highest first."""
    best = {}
    for position, record in enumerate(ranked, start=1):
        for tag, family in FAMILIES:
            if tag in record.race:
                best.setdefault(family, position)
    order = sorted(best, key=best.get)
    return "Best rank per bug family: %s." % ", then ".join(
        "%s races (#%d)" % (family, best[family]) for family in order
    )


def main() -> None:
    print("=" * 72)
    print("PART 1 — how many recordings until the races are found?")
    print("=" * 72)
    for workload in (stats_counter(20, iters=4), toctou_handle(20)):
        sweep = seed_coverage(workload, seeds=range(10))
        print()
        print(sweep.render())

    print()
    print("=" * 72)
    print("PART 2 — what to triage first?")
    print("=" * 72)
    service = combine_workloads(
        "coverage_study_svc",
        "a service with several bugs of differing severity",
        stats_counter(21, iters=4),
        lost_update(21, iters=4),
        refcount_free(21),
    )
    results = {}
    for seed in (1, 23):
        analysis = analyze_execution(Execution("svc#%d" % seed, service, seed))
        aggregate_instances(analysis.classified, into=results)
    # Rank the harmful races of the merged report, scored as the fleet
    # store would score them.
    records = report_records(results_to_json(results, service.program()))
    ranked = rank_records(
        record
        for record in records
        if record.classification == "potentially-harmful"
    )
    print()
    print(render_ranking(ranked))
    print()
    print(ranking_summary(ranked))


if __name__ == "__main__":
    main()
