"""repro — replay-based classification of benign and harmful data races.

A from-scratch reproduction of *"Automatically Classifying Benign and
Harmful Data Races Using Replay Analysis"* (Narayanasamy, Wang, Tigani,
Edwards, Calder — PLDI 2007), including every substrate the paper depends
on: a deterministic multi-threaded mini-VM, an iDNA-analog record/replay
framework, region-based happens-before race detection, the
replay-both-orders benign/harmful classifier, baselines (Eraser lockset,
precise vector clocks), a labelled workload corpus, and the experiment
harness regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import assemble, record_run, OrderedReplay
    from repro import find_races, RaceClassifier, aggregate_instances

    program = assemble(SOURCE, name="myapp")
    result, log = record_run(program, seed=7)       # run under recording
    ordered = OrderedReplay(log, program)           # replay from the log
    instances = find_races(ordered)                 # happens-before races
    classified = RaceClassifier(ordered).classify_all(instances)
    for race in aggregate_instances(classified).values():
        print(race.describe(program))               # benign or harmful?

See ``examples/`` for complete walkthroughs and ``benchmarks/`` for the
paper-table reproductions.
"""

__version__ = "1.0.0"

# The substrate: ISA + machine.
from .isa import (
    AssemblyError,
    Instruction,
    Program,
    StaticInstructionId,
    assemble,
    disassemble,
)
from .vm import (
    DeadlockError,
    ExplicitScheduler,
    Machine,
    MachineResult,
    MemoryFault,
    RandomScheduler,
    RoundRobinScheduler,
    TraceObserver,
    run_program,
)

# Record / replay (the iDNA analog).
from .record import (
    Recorder,
    ReplayLog,
    compression_stats,
    load_log,
    log_metrics,
    record_run,
    save_log,
)
from .replay import (
    OrderedReplay,
    ReplayFailure,
    ReplayFailureKind,
    SequencingRegion,
    ThreadReplayer,
    VirtualProcessor,
)

# The paper's contribution.
from .race import (
    BenignCategory,
    Classification,
    ClassifiedInstance,
    ClassifierConfig,
    HappensBeforeDetector,
    InstanceOutcome,
    RaceClassifier,
    RaceInstance,
    StaticRaceResult,
    aggregate_instances,
    categorize,
    find_races,
    lockset_warnings,
    results_to_json,
    vector_clock_races,
)
from .race.report import render_triage

# Workloads and experiments.
from .analysis import (
    analyze_execution,
    analyze_suite,
    build_table1,
    build_table2,
    measure_overheads,
)
from .workloads import Execution, Workload, paper_suite

__all__ = [
    "__version__",
    "AssemblyError",
    "Instruction",
    "Program",
    "StaticInstructionId",
    "assemble",
    "disassemble",
    "DeadlockError",
    "ExplicitScheduler",
    "Machine",
    "MachineResult",
    "MemoryFault",
    "RandomScheduler",
    "RoundRobinScheduler",
    "TraceObserver",
    "run_program",
    "Recorder",
    "ReplayLog",
    "compression_stats",
    "load_log",
    "log_metrics",
    "record_run",
    "save_log",
    "OrderedReplay",
    "ReplayFailure",
    "ReplayFailureKind",
    "SequencingRegion",
    "ThreadReplayer",
    "VirtualProcessor",
    "BenignCategory",
    "Classification",
    "ClassifiedInstance",
    "ClassifierConfig",
    "HappensBeforeDetector",
    "InstanceOutcome",
    "RaceClassifier",
    "RaceInstance",
    "StaticRaceResult",
    "aggregate_instances",
    "categorize",
    "find_races",
    "lockset_warnings",
    "render_triage",
    "results_to_json",
    "vector_clock_races",
    "analyze_execution",
    "analyze_suite",
    "build_table1",
    "build_table2",
    "measure_overheads",
    "Execution",
    "Workload",
    "paper_suite",
]
