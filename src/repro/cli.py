"""Command-line interface: the tool a developer would actually run.

Mirrors the paper's usage model as subcommands::

    python -m repro record  prog.asm -o run.replay.bin --seed 7
    python -m repro replay  run.replay.bin
    python -m repro detect  run.replay.bin --perf
    python -m repro classify run.replay.bin --store races/
    python -m repro analyze run.replay.bin --export-verdicts v.json
    python -m repro mark-benign run.replay.bin --race 'blk:3|blk:5' --store races/
    python -m repro suite                       # the paper-suite tables
    python -m repro experiment table1           # one experiment by id
    python -m repro serve --port 8422           # long-lived analysis service
    python -m repro submit run.replay.bin       # ship a log to the service

``record`` runs an assembly program under a seeded scheduler and writes a
self-contained replay log — the versioned binary container by default, or
the legacy JSON document when the destination ends in ``.json``; every
log-reading subcommand auto-detects the format.  ``classify`` is the full
offline analysis: happens-before detection plus the replay-both-orders
classification, with a prioritized triage report on stdout.  The race
database is the fleet store: ``classify``, ``mark-benign`` and ``fleet``
take its directory as ``--store``, ``serve`` as ``--fleet-dir``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.experiments import (
    EXPERIMENTS,
    run_ablation_continue,
    run_ablation_detectors,
    run_ablation_instances,
    run_figure3,
    run_figure4,
    run_figure5,
    run_sec51,
    run_suite,
    run_table1,
    run_table2,
)
from .analysis.pipeline import analyze_suite
from .isa.assembler import assemble
from .race.classifier import ClassifierConfig, RaceClassifier
from .race.happens_before import find_races
from .record.compression import compression_stats
from .record.metrics import log_metrics
from .record.recorder import record_run
from .record.serialization import load_log, save_log
from .replay.ordered_replay import OrderedReplay
from .vm.scheduler import RandomScheduler, RoundRobinScheduler


def _positive_int(text: str) -> int:
    """argparse type for ``--limit``: an integer >= 1, rejected loudly."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected an integer >= 1, got %r" % text
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected an integer >= 1, got %r" % text
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Replay-based data race classification (PLDI 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a program under recording")
    record.add_argument("program", type=Path, help="assembly source file")
    record.add_argument("-o", "--output", type=Path, help="replay log destination")
    record.add_argument("--seed", type=int, default=0, help="scheduler/RNG seed")
    record.add_argument(
        "--scheduler",
        choices=("random", "round-robin"),
        default="random",
        help="scheduling policy for the recorded run",
    )
    record.add_argument(
        "--switch-probability",
        type=float,
        default=0.3,
        help="preemption probability for the random scheduler",
    )
    record.add_argument(
        "--perf",
        action="store_true",
        help="print the record-stage breakdown (steps, events, elisions)",
    )
    record.add_argument(
        "--segment-bytes",
        type=int,
        default=None,
        metavar="N",
        help="stream the recording into a segmented container (v5), sealing "
        "a segment every ~N payload bytes (captured rows leave memory as "
        "segments seal; detect and analyze then stream it segment by "
        "segment)",
    )

    replay = sub.add_parser("replay", help="replay a log and verify it")
    replay.add_argument("log", type=Path, help="replay log file")
    replay.add_argument(
        "--perf",
        action="store_true",
        help="print the replay-stage breakdown (threads, handoffs, laziness)",
    )

    detect = sub.add_parser("detect", help="happens-before race detection")
    detect.add_argument("log", type=Path, help="replay log file")
    detect.add_argument(
        "--perf",
        action="store_true",
        help="print the detect-stage breakdown (index/sweep time, pair pruning)",
    )

    classify = sub.add_parser(
        "classify", help="detect + classify races, print the triage report"
    )
    classify.add_argument("log", type=Path, help="replay log file")
    classify.add_argument(
        "--store",
        type=Path,
        help="fleet store directory (the fleet --store / serve --fleet-dir "
        "path): apply its suppression rules and absorb this run's verdicts",
    )
    classify.add_argument(
        "--continue-through-control-flow",
        action="store_true",
        help="enable the paper's §4.2.1 replay-continuation extension",
    )
    classify.add_argument(
        "--json",
        type=Path,
        dest="json_output",
        help="also write machine-readable results to this file",
    )

    analyze = sub.add_parser(
        "analyze",
        help="engine-based analysis of a recorded log (batched classification, "
        "verdict memoization, incremental re-analysis)",
    )
    analyze.add_argument("log", type=Path, help="replay log file")
    analyze.add_argument(
        "--incremental-from",
        type=Path,
        dest="incremental_from",
        help="splice verdicts from a prior run: a verdict index JSON "
        "(from --export-verdicts) or a prior replay log to analyse first",
    )
    analyze.add_argument(
        "--export-verdicts",
        type=Path,
        dest="export_verdicts",
        help="write this run's portable verdict index to a JSON file",
    )
    analyze.add_argument(
        "--json",
        type=Path,
        dest="json_output",
        help="write the canonical report to this file instead of stdout",
    )
    analyze.add_argument(
        "--perf",
        action="store_true",
        help="print per-stage timings, batching and splice counters "
        "(to stderr when the report goes to stdout)",
    )
    analyze.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache directory for the persisted per-program verdict index",
    )

    validate = sub.add_parser("validate", help="check a replay log's invariants")
    validate.add_argument("log", type=Path, help="replay log file")
    validate.add_argument(
        "--strict", action="store_true", help="exit non-zero on any issue"
    )

    inspect = sub.add_parser(
        "inspect", help="time-travel: show a thread's state around a step"
    )
    inspect.add_argument("log", type=Path, help="replay log file")
    inspect.add_argument("--thread", required=True, help="thread name")
    inspect.add_argument("--step", type=int, default=0, help="first step to show")
    inspect.add_argument("--count", type=int, default=10, help="steps to show")

    mark = sub.add_parser(
        "mark-benign", help="record a developer's benign verdict for a race"
    )
    mark.add_argument("log", type=Path, help="replay log file (for the program name)")
    mark.add_argument(
        "--race", required=True, help="static race key, e.g. 'blk:3|blk:5'"
    )
    mark.add_argument("--reason", default="", help="why the race is benign")
    mark.add_argument("--by", default="", help="who triaged it")
    mark.add_argument(
        "--store",
        type=Path,
        required=True,
        help="fleet store directory to write the suppression rule into",
    )

    suite = sub.add_parser(
        "suite", help="analyse the paper suite and print Table 1/2"
    )
    suite.add_argument(
        "--memoize",
        action="store_true",
        help="reuse verdicts of structurally identical race instances",
    )
    suite.add_argument(
        "--perf",
        action="store_true",
        help="print per-stage timings and engine statistics",
    )
    suite.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="content-addressed record cache directory (skips re-recording)",
    )
    suite.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and always re-record",
    )

    report = sub.add_parser(
        "report", help="write the full reproduction results document"
    )
    report.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("RESULTS.md"),
        help="markdown destination (default RESULTS.md)",
    )
    report.add_argument(
        "--skip-overheads",
        action="store_true",
        help="omit the timing-sensitive Section 5.1 measurements",
    )

    compare = sub.add_parser(
        "compare", help="diff two exported result files (CI drift gate)"
    )
    compare.add_argument("baseline", type=Path, help="baseline results JSON")
    compare.add_argument("current", type=Path, help="current results JSON")
    compare.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when new potentially-harmful races appear",
    )

    experiment = sub.add_parser("experiment", help="run one experiment by id")
    experiment.add_argument(
        "experiment_id", choices=sorted(EXPERIMENTS), help="experiment to run"
    )
    experiment.add_argument(
        "--memoize",
        action="store_true",
        help="reuse verdicts of structurally identical race instances",
    )
    experiment.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="content-addressed record cache directory (skips re-recording)",
    )

    serve = sub.add_parser(
        "serve", help="run the long-lived analysis service (HTTP API)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8422, help="bind port (0 = any)")
    serve.add_argument(
        "--pool-size",
        type=int,
        default=2,
        help="worker processes (0 = run jobs inline in the dispatch threads)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="queue shards (0 = one per worker); content-hash routed",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="bounded queue size; beyond this, submissions get 429",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=120.0,
        help="seconds one attempt may run before the worker is recycled",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="content-addressed record cache shared by all workers",
    )
    serve.add_argument(
        "--journal",
        type=Path,
        default=None,
        help="job journal (JSON lines); enables crash recovery on restart",
    )
    serve.add_argument(
        "--fleet-dir",
        type=Path,
        default=None,
        help="fleet triage store directory: completed jobs' verdicts are "
        "absorbed into it and served from GET /races; sharable between "
        "several serve instances (advisory file lock)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="query and maintain the fleet triage store (GET /races offline)",
    )
    fleet.add_argument(
        "--store",
        type=Path,
        default=None,
        help="fleet store directory (the serve --fleet-dir path)",
    )
    fleet.add_argument(
        "--server",
        default=None,
        help="query a running service instead of opening --store directly "
        "(e.g. http://127.0.0.1:8422)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_report = fleet_sub.add_parser(
        "report", help="the ranked triage report (harmful first)"
    )
    fleet_report.add_argument(
        "--include-suppressed",
        action="store_true",
        help="list suppressed races too (flagged) instead of hiding them",
    )
    fleet_report.add_argument(
        "--limit", type=_positive_int, default=None, help="top N races only"
    )
    fleet_suppress = fleet_sub.add_parser(
        "suppress", help="persist a suppression rule for a race"
    )
    fleet_suppress.add_argument(
        "race", help="static race key, e.g. 'worker:3|worker:5'"
    )
    fleet_suppress.add_argument(
        "--digest",
        default="",
        help="region-content digest: narrows the rule to one content "
        "variant (default: suppress the whole static race)",
    )
    fleet_suppress.add_argument("--reason", default="", help="why (provenance)")
    fleet_suppress.add_argument("--by", default="", help="who (provenance)")
    fleet_suppress.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire the rule after this many seconds (default: never)",
    )
    fleet_sub.add_parser(
        "compact", help="fold the journal into the snapshot (store only)"
    )
    fleet_export = fleet_sub.add_parser(
        "export", help="write the store as a mergeable JSON document"
    )
    fleet_export.add_argument(
        "output", nargs="?", type=Path, default=None, help="file (default stdout)"
    )
    fleet_import = fleet_sub.add_parser(
        "import", help="merge an export, or a pre-fleet race/suppression file"
    )
    fleet_import.add_argument("document", type=Path, help="JSON file to merge")
    fleet_absorb = fleet_sub.add_parser(
        "absorb", help="absorb a report JSON (classify --json / detect output)"
    )
    fleet_absorb.add_argument("report", type=Path, help="report document file")

    submit = sub.add_parser(
        "submit", help="submit a job to a running analysis service"
    )
    submit.add_argument(
        "--server",
        default="http://127.0.0.1:8422",
        help="service base URL (default http://127.0.0.1:8422)",
    )
    group = submit.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", help="suite workload name to record+analyse")
    group.add_argument(
        "log", nargs="?", type=Path, default=None, help="replay log file to upload"
    )
    submit.add_argument("--seed", type=int, default=0, help="workload seed")
    submit.add_argument(
        "--switch-probability",
        type=float,
        default=0.3,
        help="preemption probability for workload jobs",
    )
    submit.add_argument("--priority", type=int, default=0, help="queue priority")
    submit.add_argument(
        "--detect-only",
        action="store_true",
        help="stop after detection (no classification); the log picks the "
        "detect path: segmented logs stream, other captured logs skip replay",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without polling for the report",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for completion (with polling)",
    )
    submit.add_argument(
        "--json",
        type=Path,
        dest="json_output",
        help="write the canonical report to this file instead of stdout",
    )

    return parser


def _make_scheduler(args):
    if args.scheduler == "round-robin":
        return RoundRobinScheduler()
    return RandomScheduler(seed=args.seed, switch_probability=args.switch_probability)


def _cmd_record(args, out) -> int:
    from .analysis.perf import PerfStats

    source = args.program.read_text()
    program = assemble(source, name=args.program.stem)
    perf = PerfStats()
    destination = args.output or args.program.with_suffix(".replay.bin")
    if args.segment_bytes is not None:
        if destination.suffix.lower() == ".json":
            raise ValueError(
                "--segment-bytes writes the segmented binary container; "
                "pick a non-.json destination"
            )
        from .record import record_run_segmented

        with perf.stage("record"):
            result, log = record_run_segmented(
                program,
                destination,
                scheduler=_make_scheduler(args),
                seed=args.seed,
                segment_bytes=args.segment_bytes,
            )
    else:
        with perf.stage("record"):
            result, log = record_run(
                program,
                scheduler=_make_scheduler(args),
                seed=args.seed,
            )
        save_log(log, destination)
    stats = compression_stats(log)
    print(result.summary(), file=out)
    print(
        "recorded %d instructions (%.2f bits/instr raw, %.2f compressed) -> %s"
        % (
            log.total_instructions,
            stats.raw_bits_per_instruction,
            stats.compressed_bits_per_instruction,
            destination,
        ),
        file=out,
    )
    if args.perf:
        perf.record_steps = log.total_instructions
        if log.captured is not None:
            perf.record_events = log.captured.total_events
            perf.record_predicted_loads = log.captured.predicted_loads
        print("", file=out)
        print(perf.render(), file=out)
    return 0


def _cmd_replay(args, out) -> int:
    from .analysis.perf import PerfStats

    log = load_log(args.log)
    perf = PerfStats()
    with perf.stage("replay"):
        ordered = OrderedReplay(log, perf=perf)
        replayed = {
            name: ordered.thread_replays[name] for name in log.threads
        }
    metrics = log_metrics(log)
    print("replayed %s: %s" % (log.program_name, metrics.describe()), file=out)
    for name, replay in replayed.items():
        print("  thread %-16s %d steps replayed" % (name, replay.steps), file=out)
    output = ordered.output()
    if output:
        print("  output: %r" % output, file=out)
    if args.perf:
        print("", file=out)
        print(perf.render(), file=out)
    return 0


def _cmd_detect(args, out) -> int:
    from .analysis.perf import PerfStats
    from .analysis.pipeline import detect_only

    perf = PerfStats()
    analysis = detect_only(args.log, perf=perf)
    instances = analysis.instances
    source = analysis.source
    path = analysis.path
    unique = {instance.static_key for instance in instances}
    # Pair the log with its program before printing anything, so a log
    # the program cannot describe fails with one error line.
    program = source.program
    print(
        "%d race instance(s), %d unique static race(s)"
        % (len(instances), len(unique)),
        file=out,
    )
    for key in sorted(unique, key=lambda key: (str(key[0]), str(key[1]))):
        print(
            "  %s  <->  %s"
            % (
                program.describe_instruction(key[0]),
                program.describe_instruction(key[1]),
            ),
            file=out,
        )
    if args.perf:
        print("detect path: %s" % path, file=out)
        index_stats = source.access_index().stats()
        print(
            "access index: %d regions, %d accesses, %d addresses, %d writes"
            % (
                index_stats["regions"],
                index_stats["accesses"],
                index_stats["addresses"],
                index_stats["writes"],
            ),
            file=out,
        )
        print(perf.render(), file=out)
    return 0


def _cmd_classify(args, out) -> int:
    import hashlib
    import json
    import time

    from .fleet import FleetStore
    from .race.aggregate import aggregate_instances
    from .race.exporter import results_to_json
    from .race.model import static_key_to_text
    from .race.report import render_triage

    log = load_log(args.log)
    ordered = OrderedReplay(log)
    program = ordered.program
    instances = find_races(ordered)
    config = ClassifierConfig(
        allow_unrecorded_control_flow=args.continue_through_control_flow
    )
    classifier = RaceClassifier(ordered, config=config, execution_id=str(args.log))
    results = aggregate_instances(classifier.classify_all(instances))

    store = FleetStore.open(args.store) if args.store is not None else None
    rules = store.suppression_rules() if store is not None else []
    now = time.time()
    suppressed = {
        key
        for key in results
        if any(
            rule.matches(static_key_to_text(key), "", now, program.name)
            for rule in rules
        )
    }
    # No batch keys: every record this absorbs has the empty digest, one
    # per static race, so a race benign in one run and harmful in a later
    # one is one record and its flip is reported.
    document = results_to_json(results, program, log=log, suppressed=suppressed)
    print(render_triage(document), file=out)
    if store is not None:
        # The job is the log plus the classifier config, never the report:
        # a mark-benign changes its `suppressed` flags, not the execution.
        config_bytes = b"|continue=%d" % args.continue_through_control_flow
        job_key = hashlib.sha256(args.log.read_bytes() + config_bytes).hexdigest()
        outcome = store.absorb_report(
            document, "classify:" + job_key, observed_at=round(now, 3)
        )
        if outcome.reclassified:
            print("\nRE-CLASSIFIED since earlier sessions:", file=out)
        for record in map(store.record_document, outcome.reclassified):
            print(
                "  %(program)s %(race)s: potentially-benign -> potentially-harmful"
                % record,
                "(%d instances over %d execution(s))"
                % (record["instances"]["total"], len(record["executions"])),
                file=out,
            )
        print(
            "fleet store updated: %s (%d new, %d updated)"
            % (args.store, outcome.new_records, outcome.updated_records)
            if outcome.absorbed
            else "fleet store %s: log already absorbed" % args.store,
            file=out,
        )
    if args.json_output:
        args.json_output.write_text(json.dumps(document, indent=2))
        print("machine-readable results: %s" % args.json_output, file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    import json

    from .analysis.engine import ClassificationEngine, EngineConfig
    from .analysis.perf import PerfStats
    from .analysis.pipeline import execution_report, render_report

    engine = ClassificationEngine(EngineConfig(cache_dir=args.cache_dir))
    prior = None
    if args.incremental_from is not None:
        if args.incremental_from.suffix == ".json":
            prior = json.loads(
                args.incremental_from.read_text(encoding="utf-8")
            )
        else:
            # A replay log: analyse it with a throwaway engine and splice
            # from its verdict index — "re-analyse against that old run".
            prior = ClassificationEngine().analyze_log(
                load_log(args.incremental_from)
            )
    perf = PerfStats()
    # The log picks the path: a segmented container streams, any other
    # log takes the batch pass, with the same report bytes.
    analysis = engine.analyze_log(args.log.read_bytes(), perf=perf, prior=prior)
    report = render_report(execution_report(analysis))
    # Side-channel prints go to stderr when the report itself goes to
    # stdout: `repro analyze log > report.json` must stay byte-clean.
    notices = out if args.json_output else sys.stderr
    if args.json_output:
        args.json_output.write_bytes(report)
        print("report: %s" % args.json_output, file=out)
    else:
        out.write(report.decode("utf-8"))
    if args.export_verdicts:
        args.export_verdicts.write_text(
            json.dumps(analysis.verdict_index, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print("verdict index: %s" % args.export_verdicts, file=notices)
    if args.perf:
        print(perf.render(), file=notices)
    return 0


def _cmd_validate(args, out) -> int:
    from .record.validation import validate_log

    log = load_log(args.log)
    issues = validate_log(log)
    if not issues:
        print("%s: OK (%d threads, %d instructions)"
              % (args.log, len(log.threads), log.total_instructions), file=out)
        return 0
    for issue in issues:
        print("  - %s" % issue, file=out)
    print("%s: %d issue(s)" % (args.log, len(issues)), file=out)
    return 1 if args.strict else 0


def _cmd_inspect(args, out) -> int:
    from .replay.inspector import TimeTravelInspector

    log = load_log(args.log)
    ordered = OrderedReplay(log)
    if args.thread not in ordered.thread_replays:
        print(
            "no thread %r (have: %s)"
            % (args.thread, ", ".join(sorted(ordered.thread_replays))),
            file=out,
        )
        return 1
    inspector = TimeTravelInspector(ordered)
    for view in inspector.walk(args.thread, start=args.step, count=args.count):
        print(view.describe(), file=out)
    return 0


def _cmd_mark_benign(args, out) -> int:
    import time

    from .fleet import FleetStore, SuppressionRule
    from .race.model import static_key_from_text, static_key_to_text

    race = static_key_to_text(static_key_from_text(args.race))
    log = load_log(args.log)
    store = FleetStore.open(args.store)
    store.suppress(
        SuppressionRule(
            scope="race",
            race=race,
            program=log.program_name,
            reason=args.reason,
            created_by=args.by,
            created_at=round(time.time(), 3),
        )
    )
    print(
        "marked %s benign for program %s (%d suppression rule(s) in %s)"
        % (race, log.program_name, len(store.suppression_rules()), args.store),
        file=out,
    )
    return 0


def _cmd_report(args, out) -> int:
    from .analysis.report_writer import write_report

    write_report(args.output, include_overheads=not args.skip_overheads)
    print("wrote %s" % args.output, file=out)
    return 0


def _cmd_suite(args, out) -> int:
    from .analysis.perf import PerfStats
    from .analysis.statistics import corpus_statistics
    from .workloads.suite import paper_suite

    cache_dir = None if args.no_cache else args.cache_dir
    perf = PerfStats()
    suite = analyze_suite(
        paper_suite(),
        memoize=args.memoize,
        perf=perf,
        cache_dir=cache_dir,
    )
    print(corpus_statistics(suite).render(), file=out)
    print("", file=out)
    print(run_table1(suite).render(), file=out)
    print("", file=out)
    print(run_table2(suite).render(), file=out)
    if args.perf:
        print("", file=out)
        print(perf.render(), file=out)
    return 0


def _cmd_compare(args, out) -> int:
    from .analysis.compare import compare_files

    report = compare_files(args.baseline, args.current)
    print(report.render(), file=out)
    if args.gate and report.new_harmful:
        return 1
    return 0


def _cmd_experiment(args, out) -> int:
    experiment_id = args.experiment_id
    # Suite-based experiments share one engine-analysed suite so
    # --memoize applies; sec51/ablation_continue time their own runs.
    suite = None
    if experiment_id in (
        "table1",
        "table2",
        "figure3",
        "figure4",
        "figure5",
        "ablation_detectors",
        "ablation_instances",
    ):
        suite = run_suite(memoize=args.memoize, cache_dir=args.cache_dir)
    if experiment_id == "table1":
        print(run_table1(suite).render(), file=out)
    elif experiment_id == "table2":
        print(run_table2(suite).render(), file=out)
    elif experiment_id == "figure3":
        print(run_figure3(suite).render(), file=out)
    elif experiment_id == "figure4":
        print(run_figure4(suite).render(), file=out)
    elif experiment_id == "figure5":
        print(run_figure5(suite).render(), file=out)
    elif experiment_id == "sec51":
        print(run_sec51().render(), file=out)
    elif experiment_id == "ablation_detectors":
        print(run_ablation_detectors(suite).render(), file=out)
    elif experiment_id == "ablation_continue":
        print(run_ablation_continue().render(), file=out)
    elif experiment_id == "ablation_instances":
        print(run_ablation_instances(suite).render(), file=out)
    else:  # pragma: no cover - argparse choices gate this
        raise ValueError(experiment_id)
    return 0


def _cmd_serve(args, out) -> int:
    from .service import ServiceConfig
    from .service.http import serve_forever

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        pool_size=args.pool_size,
        shards=args.shards,
        queue_capacity=args.queue_capacity,
        job_timeout_s=args.job_timeout,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
        journal_path=str(args.journal) if args.journal else None,
        fleet_dir=str(args.fleet_dir) if args.fleet_dir else None,
    )
    return serve_forever(config, out=out)


def _cmd_fleet(args, out) -> int:
    if args.server and args.store:
        raise ValueError("--server and --store are mutually exclusive; pick one")
    if args.server:
        return _cmd_fleet_remote(args, out)
    if args.store is None:
        raise ValueError("fleet needs a store: pass --store DIR or --server URL")

    import hashlib
    import json
    import time

    from .fleet import FleetStore, SuppressionRule
    from .race.model import static_key_from_text

    store = FleetStore.open(args.store)
    command = args.fleet_command
    if command == "report":
        out.write(
            store.report_bytes(
                include_suppressed=args.include_suppressed,
                limit=args.limit,
                now=time.time(),
            ).decode("utf-8")
        )
    elif command == "suppress":
        static_key_from_text(args.race)  # validate the key shape up front
        now = time.time()
        rule = SuppressionRule(
            scope="exact" if args.digest else "race",
            race=args.race,
            digest=args.digest,
            reason=args.reason,
            created_by=args.by,
            created_at=round(now, 3),
            expires_at=round(now + args.ttl, 3) if args.ttl is not None else None,
        )
        rule_id = store.suppress(rule)
        print(
            "suppressed %s (%s scope) as rule %s"
            % (args.race, rule.scope, rule_id),
            file=out,
        )
    elif command == "compact":
        size = store.compact()
        print("compacted %s: snapshot %d bytes" % (args.store, size), file=out)
    elif command == "export":
        body = (
            json.dumps(store.export_document(), indent=2, sort_keys=True) + "\n"
        )
        if args.output is not None:
            args.output.write_text(body)
            print("exported fleet store to %s" % args.output, file=out)
        else:
            out.write(body)
    elif command == "import":
        from .fleet.legacy import import_file_document

        store.import_document(import_file_document(args.document.read_bytes()))
        counts = store.counts()
        print(
            "imported %s: now %d unique race(s) over %d absorbed job(s)"
            % (args.document, counts["unique_races"], counts["absorbed_jobs"]),
            file=out,
        )
    elif command == "absorb":
        data = args.report.read_bytes()
        outcome = store.absorb_report(
            json.loads(data.decode("utf-8")),
            hashlib.sha256(data).hexdigest(),
            observed_at=round(time.time(), 3),
        )
        if outcome.absorbed:
            print(
                "absorbed %s: %d new record(s), %d updated"
                % (args.report, outcome.new_records, outcome.updated_records),
                file=out,
            )
        else:
            print("already absorbed %s (duplicate)" % args.report, file=out)
    else:  # pragma: no cover - argparse required=True gates this
        raise ValueError(command)
    return 0


def _cmd_fleet_remote(args, out) -> int:
    """Fleet verbs that make sense against a running service."""
    from .service.client import ServiceClient

    client = ServiceClient(args.server)
    command = args.fleet_command
    if command == "report":
        out.write(
            client.races_bytes(
                include_suppressed=args.include_suppressed, limit=args.limit
            ).decode("utf-8")
        )
        return 0
    if command == "suppress":
        rule_id = client.suppress(
            args.race,
            digest=args.digest,
            reason=args.reason,
            by=args.by,
            ttl_s=args.ttl,
        )
        print("suppressed %s as rule %s" % (args.race, rule_id), file=out)
        return 0
    raise ValueError(
        "fleet %s operates on a local store; pass --store DIR instead of "
        "--server" % command
    )


def _cmd_submit(args, out) -> int:
    from .service.client import QueueFullError, ServiceClient

    client = ServiceClient(args.server)
    mode = "detect" if args.detect_only else "full"
    try:
        if args.workload:
            job = client.submit_workload(
                args.workload,
                seed=args.seed,
                switch_probability=args.switch_probability,
                priority=args.priority,
                mode=mode,
            )
        else:
            job = client.submit_log_file(
                args.log, priority=args.priority, mode=mode
            )
    except QueueFullError as error:
        print("error: service overloaded (429): %s" % error, file=sys.stderr)
        return 2
    print(
        "job %s %s%s"
        % (job.job_id, job.state, "" if job.created else " (already submitted)"),
        file=out,
    )
    if args.no_wait:
        return 0
    done = client.wait(job.job_id, timeout_s=args.timeout)
    report = client.report_bytes(job.job_id)
    if args.json_output:
        args.json_output.write_bytes(report)
        print(
            "report (%.3fs analysis): %s"
            % (done.elapsed_s or 0.0, args.json_output),
            file=out,
        )
    else:
        out.write(report.decode("utf-8"))
    return 0


_COMMANDS = {
    "record": _cmd_record,
    "replay": _cmd_replay,
    "detect": _cmd_detect,
    "classify": _cmd_classify,
    "analyze": _cmd_analyze,
    "validate": _cmd_validate,
    "inspect": _cmd_inspect,
    "mark-benign": _cmd_mark_benign,
    "suite": _cmd_suite,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "fleet": _cmd_fleet,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    Pipeline errors (bad source, corrupt or missing logs, VM faults,
    service failures) exit nonzero with a one-line message rather than a
    traceback, and ``KeyboardInterrupt`` exits with the conventional
    ``128 + SIGINT`` — both matter once ``repro serve`` runs under a
    supervisor that restarts on crash and signals on shutdown.
    """
    from .isa.errors import IsaError
    from .record.validation import InvalidLogError
    from .replay.errors import ReplayError
    from .vm.errors import VMError

    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (IsaError, VMError, ReplayError, InvalidLogError, OSError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
