#!/usr/bin/env python
"""Quickstart: find and classify the data races in a small program.

The program below is the paper's everyday situation in miniature: the
"real work" counter is correctly locked, but a statistics counter next to
it is deliberately not.  We record one execution (the iDNA step), replay
it, detect the happens-before races, and let the replay-both-orders
classifier sort them into potentially benign and potentially harmful.

Run:  python examples/quickstart.py
"""

from repro import (
    OrderedReplay,
    RaceClassifier,
    RandomScheduler,
    aggregate_instances,
    assemble,
    find_races,
    record_run,
    render_triage,
    results_to_json,
)

SOURCE = """
.data
jobs:  .word 0
mutex: .word 0
stats: .word 0
.thread worker1 worker2
    li r1, 5                ; five units of work each
loop:
    lock [mutex]
    load r2, [jobs]         ; the real work: correctly locked
    addi r2, r2, 1
    store r2, [jobs]
    unlock [mutex]
    load r4, [stats]        ; the statistics: no lock (racy!)
    addi r4, r4, 1
    store r4, [stats]
    subi r1, r1, 1
    bnez r1, loop
    sys_print r2
    halt
"""


def main() -> None:
    program = assemble(SOURCE, name="quickstart")

    # 1. Record one execution under a seeded preemptive scheduler.
    result, log = record_run(
        program, scheduler=RandomScheduler(seed=7, switch_probability=0.4), seed=7
    )
    print("original run:", result.output)
    print(
        "  jobs=%d (locked: always exact)   stats=%d (racy: may drop ticks)"
        % (
            result.memory[program.data_address("jobs")],
            result.memory[program.data_address("stats")],
        )
    )
    print("  log: %d instructions, %d records" % (log.total_instructions, log.total_records))

    # 2. Replay from the log and detect happens-before races.
    ordered = OrderedReplay(log, program)
    instances = find_races(ordered)
    print("\nhappens-before analysis: %d race instance(s)" % len(instances))

    # 3. Replay each instance both ways and classify.
    classifier = RaceClassifier(ordered, execution_id="quickstart#s7")
    classified = classifier.classify_all(instances)
    results = aggregate_instances(classified)

    # 4. Report, harmful first: the text rendering of the JSON document
    #    `repro classify --json` writes.
    print()
    print(render_triage(results_to_json(results, program, log=log)))


if __name__ == "__main__":
    main()
