"""The sweep-line detector must not change a single race or verdict.

The production detector replaces the seed's quadratic region-pair loop
with a sweep line over the columnar access index.  That optimization is
sound only if the detected race set — ordering included — and every
downstream classification verdict are *byte-identical* to the naive
reference in ``tests/reference_detector.py``.  These tests enforce that
across the paper suite, re-seeded recordings the suite does not contain,
and randomized multi-region workloads with and without the per-location
pair cap.

The zero-replay from-log path is held to the same bar: feeding the
sweep detector a :class:`LogView` built straight from container bytes
must produce the identical instance list (and truncation counters, and
rendered detection report) as feeding it a full :class:`OrderedReplay`
— which in turn matches the naive reference.
"""

import pytest

from repro.analysis.pipeline import (
    analyze_execution,
    detect_only,
    detection_report,
    render_report,
)
from repro.isa import assemble
from repro.race.classifier import RaceClassifier
from repro.race.happens_before import HappensBeforeDetector
from repro.record import record_run
from repro.record.binary_format import encode_log
from repro.replay import LogView, OrderedReplay
from repro.vm import RandomScheduler
from repro.workloads.suite import paper_suite

from reference_detector import NaiveHappensBeforeDetector

#: Many small regions (one per loop iteration) and two independent racy
#: address groups — the shape that exercises both the temporal and the
#: per-address pruning of the sweep.
REGION_HEAVY = """
.data
x: .word 0
y: .word 0
.thread a b
    li r1, 12
al:
    load r2, [x]
    addi r2, r2, 1
    store r2, [x]
    sys_rand r3, 3
    subi r1, r1, 1
    bnez r1, al
    halt
.thread c d
    li r1, 12
cl:
    load r2, [y]
    addi r2, r2, 2
    store r2, [y]
    sys_rand r3, 3
    subi r1, r1, 1
    bnez r1, cl
    halt
"""


def log_for(seed):
    program = assemble(REGION_HEAVY, name="deteq%d" % seed)
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return program, log


def ordered_for(seed):
    program, log = log_for(seed)
    return OrderedReplay(log, program)


def verdicts(classified):
    return [
        (
            entry.instance.static_key,
            entry.execution_id,
            entry.outcome,
            entry.original_first,
            entry.pre_value,
            entry.failure_kind,
            entry.failure_detail,
        )
        for entry in classified
    ]


class TestInstanceEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_instance_lists(self, seed):
        """Full instance lists — ordering included — match the reference."""
        ordered = ordered_for(seed)
        sweep = HappensBeforeDetector(ordered, max_pairs_per_location=None)
        naive = NaiveHappensBeforeDetector(ordered, max_pairs_per_location=None)
        assert sweep.detect() == naive.detect()

    @pytest.mark.parametrize("cap", [1, 4, 256])
    def test_identical_under_pair_cap(self, cap):
        ordered = ordered_for(5)
        sweep = HappensBeforeDetector(ordered, max_pairs_per_location=cap)
        naive = NaiveHappensBeforeDetector(ordered, max_pairs_per_location=cap)
        assert sweep.detect() == naive.detect()
        assert sweep.truncated_locations == naive.truncated_locations

    def test_paper_suite_instances_identical(self):
        for execution in paper_suite():
            program = execution.workload.program()
            _, log = record_run(
                program,
                scheduler=RandomScheduler(
                    seed=execution.seed,
                    switch_probability=execution.switch_probability,
                ),
                seed=execution.seed,
            )
            ordered = OrderedReplay(log, program)
            sweep = HappensBeforeDetector(ordered)
            naive = NaiveHappensBeforeDetector(ordered)
            assert sweep.detect() == naive.detect(), execution.execution_id
            assert sweep.truncated_locations == naive.truncated_locations


class TestFromLogEquivalence:
    """The zero-replay LogView path against replay and the reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fromlog_matches_replay_and_reference(self, seed):
        program, log = log_for(seed)
        data = encode_log(log)
        ordered = OrderedReplay(log, program)
        fromlog = HappensBeforeDetector(
            LogView.from_bytes(data), max_pairs_per_location=None
        ).detect()
        replayed = HappensBeforeDetector(
            ordered, max_pairs_per_location=None
        ).detect()
        reference = NaiveHappensBeforeDetector(
            ordered, max_pairs_per_location=None
        ).detect()
        assert fromlog == replayed
        assert fromlog == reference

    @pytest.mark.parametrize("cap", [1, 4, 256])
    def test_fromlog_identical_under_pair_cap(self, cap):
        program, log = log_for(5)
        fromlog = HappensBeforeDetector(
            LogView.from_bytes(encode_log(log)), max_pairs_per_location=cap
        )
        replayed = HappensBeforeDetector(
            OrderedReplay(log, program), max_pairs_per_location=cap
        )
        assert fromlog.detect() == replayed.detect()
        assert fromlog.truncated_locations == replayed.truncated_locations

    def test_paper_suite_fromlog_identical(self):
        for execution in paper_suite():
            program = execution.workload.program()
            _, log = record_run(
                program,
                scheduler=RandomScheduler(
                    seed=execution.seed,
                    switch_probability=execution.switch_probability,
                ),
                seed=execution.seed,
            )
            fromlog = HappensBeforeDetector(LogView.from_bytes(encode_log(log)))
            replayed = HappensBeforeDetector(OrderedReplay(log, program))
            assert fromlog.detect() == replayed.detect(), execution.execution_id
            assert fromlog.truncated_locations == replayed.truncated_locations

    @pytest.mark.parametrize("seed", range(4))
    def test_detection_reports_byte_identical(self, seed):
        """detect_only's rendered report is the same bytes whichever
        path materializes the detector input."""
        _, log = log_for(seed)
        data = encode_log(log)
        via_view = detect_only(data, mode="from-log")
        via_replay = detect_only(data, mode="replay")
        assert via_view.path == "from-log"
        assert via_replay.path == "replay"
        assert render_report(detection_report(via_view)) == render_report(
            detection_report(via_replay)
        )


class TestEndToEndVerdictEquivalence:
    def test_suite_verdicts_identical(self):
        """The full pipeline — detect *and* classify — produces the same
        verdict tuples as classifying the quadratic reference's races over
        the same ordered replay."""
        for execution in paper_suite():
            default = analyze_execution(execution)
            reference = NaiveHappensBeforeDetector(
                default.ordered, max_pairs_per_location=256
            ).detect()
            classifier = RaceClassifier(
                default.ordered, execution_id=execution.execution_id
            )
            assert default.instances == reference, execution.execution_id
            assert verdicts(default.classified) == verdicts(
                classifier.classify_all(reference)
            ), execution.execution_id
