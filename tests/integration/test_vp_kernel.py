"""The predecoded virtual processor against its string-dispatch oracle.

:class:`~repro.replay.VirtualProcessor` runs every region on the
predecoded dispatch records; ``tests/reference_vp.py`` re-derives each
instruction from its mnemonic, one step at a time.  Both are driven with
the same specs — built by the classifier, under each classifier
configuration — and must agree on every replay: the same
:class:`~repro.replay.VPOutcome` (registers, dirty memory, end pcs,
steps, executed ids, racing values), or a :class:`ReplayFailure` of the
same kind with the same detail (the detail reaches report bytes).
"""

import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.pipeline import analyze_execution
from repro.isa import assemble
from repro.race.classifier import ClassifierConfig, RaceClassifier
from repro.race.happens_before import find_races
from repro.record import record_run
from repro.replay import OrderedReplay, ReplayFailure, ReplayFailureKind
from repro.vm import RandomScheduler
from repro.workloads.suite import paper_suite

from reference_vp import ReferenceVirtualProcessor
from test_engine_equivalence import NAIVE, reseeded_executions

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
from strategies import programs, seeds  # noqa: E402

CONFIGS = {
    "default": ClassifierConfig(),
    "naive": NAIVE,
    "unrecorded_control_flow": ClassifierConfig(allow_unrecorded_control_flow=True),
    "unknown_addresses": ClassifierConfig(allow_unknown_addresses=True),
}


def replay(processor, first, follow_log):
    """One replay's outcome, or its failure as ``(kind, detail)``."""
    try:
        return processor.run(first=first, follow_log=follow_log)
    except ReplayFailure as failure:
        return (failure.kind, failure.detail)


def assert_kernel_matches_oracle(ordered, instances, config):
    """Replay every instance both ways round, from the log and live, on
    the kernel and on the oracle; return the failure kinds seen."""
    classifier = RaceClassifier(ordered, config=config)
    failures = Counter()
    for instance in instances:
        instance = classifier._canonicalize(instance)
        live_in, freed = ordered.pair_snapshot(instance.region_a, instance.region_b)
        kernel = classifier.batch_processor(instance, live_in, freed)
        oracle = ReferenceVirtualProcessor(
            ordered.program, live_in, freed, kernel.spec_a, kernel.spec_b, kernel.config
        )
        for first in (kernel.spec_a.thread_name, kernel.spec_b.thread_name):
            for follow_log in (True, False):
                got = replay(kernel, first, follow_log)
                assert got == replay(oracle, first, follow_log), (
                    instance.static_key,
                    first,
                    follow_log,
                )
                if isinstance(got, tuple):
                    failures[got[0]] += 1
    return failures


@pytest.fixture(scope="module")
def recordings():
    """(ordered replay, race instances) of round 0 and the reseeded runs."""
    analyses = [
        analyze_execution(execution)
        for execution in paper_suite() + reseeded_executions()
    ]
    return [(analysis.ordered, analysis.instances) for analysis in analyses]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_kernel_matches_oracle_on_suite(recordings, config_name):
    failures = Counter()
    for ordered, instances in recordings:
        failures.update(
            assert_kernel_matches_oracle(ordered, instances, CONFIGS[config_name])
        )
    # The suite drives the failure paths too, not only clean replays.
    assert {
        ReplayFailureKind.STEP_LIMIT,
        ReplayFailureKind.DIVERGENCE,
        ReplayFailureKind.MEMORY_FAULT,
    } <= set(failures)
    if config_name != "unrecorded_control_flow":
        assert ReplayFailureKind.UNRECORDED_CONTROL_FLOW in failures


#: Small programs aimed at the checks the suite reaches rarely or never.
EDGE_PROGRAMS = {
    # A live suffix past the spin-check threshold that revisits a
    # (pc, registers) state with a store in between: not a spin.
    "store_between_repeats": """
.data
x: .word 0
flag: .word 0
.thread w
    li r1, 5
    store r1, [x]
    halt
.thread r
    load r3, [x]
    li r9, 40
delay:
    subi r9, r9, 1
    bnez r9, delay
    li r2, 1
    li r1, 0
poll:
    load r1, [flag]
    bnez r1, out
    store r2, [flag]
    jmp poll
out:
    halt
""",
    # Regions that end at a sequencer point, for step limits landing on
    # the region end exactly.
    "sequencer_region_ends": """
.data
x: .word 0
.thread w
    li r1, 5
    store r1, [x]
    sys_yield
    halt
.thread r
    load r3, [x]
    addi r3, r3, 1
    sys_print r3
    halt
""",
    # A live store through a racy pointer that is null in one order.
    "store_through_racy_pointer": """
.data
p: .word 0
.thread w
    li r1, 0x5000
    store r1, [p]
    halt
.thread r
    li r9, 10
d:
    subi r9, r9, 1
    bnez r9, d
    load r1, [p]
    li r2, 7
    store r2, [r1]
    halt
""",
}


@pytest.mark.parametrize("program_name", sorted(EDGE_PROGRAMS))
def test_kernel_matches_oracle_on_edge_programs(program_name):
    configs = list(CONFIGS.values()) + [
        ClassifierConfig(step_limit=limit) for limit in range(12)
    ]
    failures = Counter()
    for seed in (1, 2, 3):
        ordered, instances = _record(EDGE_PROGRAMS[program_name], seed)
        assert instances
        for config in configs:
            failures.update(assert_kernel_matches_oracle(ordered, instances, config))
    assert failures


def _record(source, seed):
    program = assemble(source, name="prop")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    ordered = OrderedReplay(log, program)
    return ordered, find_races(ordered)


@given(source=programs(), seed=seeds)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kernel_matches_oracle_on_random_programs(source, seed):
    ordered, instances = _record(source, seed)
    for config in CONFIGS.values():
        assert_kernel_matches_oracle(ordered, instances, config)
