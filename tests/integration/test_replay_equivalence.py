"""The predecoded replayer must not change anything.

The predecoded thread replayer, the captured-columns handoff, and the
lazy region materialization are pure performance work: every observable
the analyses read from an :class:`OrderedReplay` — materialized thread
replays, region snapshots, program output, final memory, race instances
and verdicts — must be *identical* whether the replay ran through the
predecoded replayer (with or without captured columns) or the generic
string-dispatch oracle (``tests/reference_interp.py``).  These tests
enforce that over the full paper suite plus the clean controls.
"""

from types import SimpleNamespace

import pytest

from reference_interp import ReferenceOrderedReplay, stripped as _stripped
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import analyze_execution
from repro.race.classifier import RaceClassifier
from repro.race.happens_before import HappensBeforeDetector, find_races
from repro.record import record_run
from repro.replay.ordered_replay import OrderedReplay
from repro.vm import RandomScheduler
from repro.workloads.suite import clean_suite, paper_suite

from conftest import record_racy_loop


def _record(execution):
    return record_run(
        execution.workload.program(),
        scheduler=RandomScheduler(
            seed=execution.seed, switch_probability=execution.switch_probability
        ),
        seed=execution.seed,
        max_steps=200_000,
    )


def _race_keys(ordered):
    return sorted(
        (
            str(instance.static_key[0]),
            str(instance.static_key[1]),
            instance.address,
            instance.access_a.tid,
            instance.access_a.thread_step,
            instance.access_b.tid,
            instance.access_b.thread_step,
        )
        for instance in find_races(ordered)
    )


def _region_observables(ordered):
    """Everything the classifier reads per region, fully materialized."""
    observables = []
    for region in ordered.all_regions():
        if region.is_empty:
            continue
        image, freed = ordered.region_snapshot(region)
        observables.append(
            (
                region.tid,
                region.index,
                ordered.region_start_pc(region),
                ordered.live_in_registers(region),
                sorted(image.items()),
                sorted(freed.items()),
            )
        )
    return observables


def _analyze_on_oracle(execution, log):
    """``analyze_execution``'s detect and classify stages, run over the
    oracle's ordered replay of ``log`` (captured columns stripped)."""
    ordered = ReferenceOrderedReplay(_stripped(log), execution.workload.program())
    instances = HappensBeforeDetector(ordered, max_pairs_per_location=256).detect()
    classifier = RaceClassifier(ordered, execution_id=execution.execution_id)
    return SimpleNamespace(
        instances=instances, classified=classifier.classify_all(instances)
    )


def _index_columns(ordered):
    index = ordered.access_index()
    return (
        list(index.steps),
        list(index.addresses),
        list(index.values),
        bytes(index.write_flags),
        list(index.region_of),
        index.postings,
    )


class TestFastVsGenericReplay:
    def test_thread_replays_byte_identical(self):
        """Predecoded vs oracle replay of every thread of every suite
        execution: the materialized replays are equal, snapshots and all."""
        for execution in list(paper_suite()) + list(clean_suite()):
            _, log = _record(execution)
            program = execution.workload.program()
            fast = OrderedReplay(log, program)
            generic = ReferenceOrderedReplay(_stripped(log), program)
            for name in log.threads:
                fast_replay = fast.thread_replays[name].materialized()
                generic_replay = generic.thread_replays[name].materialized()
                assert fast_replay == generic_replay, (
                    execution.execution_id,
                    name,
                )

    def test_ordered_observables_identical(self):
        """Output, final memory, region snapshots and race sets agree
        between the predecoded replayer and the oracle on every suite
        execution."""
        for execution in list(paper_suite()) + list(clean_suite()):
            _, log = _record(execution)
            program = execution.workload.program()
            fast = OrderedReplay(log, program)
            generic = ReferenceOrderedReplay(_stripped(log), program)
            assert fast.output() == generic.output(), execution.execution_id
            assert fast.final_memory() == generic.final_memory()
            assert _region_observables(fast) == _region_observables(generic)
            assert _race_keys(fast) == _race_keys(generic), execution.execution_id

    def test_verdicts_identical(self):
        """Detection and classification over the oracle's ordered replay
        reproduce every instance and every verdict of the default path."""
        for execution in paper_suite()[:8]:
            default = analyze_execution(execution)
            generic = _analyze_on_oracle(execution, default.log)

            def instance_keys(analysis):
                return [
                    (
                        i.static_key,
                        i.address,
                        i.access_a.tid,
                        i.access_a.thread_step,
                        i.access_b.tid,
                        i.access_b.thread_step,
                    )
                    for i in analysis.instances
                ]

            assert instance_keys(generic) == instance_keys(default)
            assert [
                (e.outcome, e.original_first, e.pre_value, e.failure_kind)
                for e in generic.classified
            ] == [
                (e.outcome, e.original_first, e.pre_value, e.failure_kind)
                for e in default.classified
            ]


class TestCapturedHandoff:
    def test_captured_matches_replay_derived_fallback(self):
        """Fast replay fed by captured columns equals fast replay forced
        through its own access columns (captured stripped) — same index,
        same races, same walk results."""
        for execution in paper_suite():
            _, log = _record(execution)
            assert log.captured is not None
            program = execution.workload.program()

            with_capture_perf = PerfStats()
            with_capture = OrderedReplay(log, program, perf=with_capture_perf)
            without_capture = OrderedReplay(_stripped(log), program)

            assert with_capture_perf.replay_captured_handoffs == 1
            # The handoff never interprets a thread for the walk/index.
            assert with_capture_perf.replay_threads_fast == 0

            index_a = with_capture.access_index()
            index_b = without_capture.access_index()
            assert list(index_a.steps) == list(index_b.steps)
            assert list(index_a.addresses) == list(index_b.addresses)
            assert list(index_a.values) == list(index_b.values)
            assert bytes(index_a.write_flags) == bytes(index_b.write_flags)
            assert list(index_a.region_of) == list(index_b.region_of)
            assert index_a.postings == index_b.postings

            assert with_capture.output() == without_capture.output()
            assert with_capture.final_memory() == without_capture.final_memory()
            assert _race_keys(with_capture) == _race_keys(without_capture)

    def test_binary_round_trip_preserves_handoff(self):
        """A log decoded from the v3 binary container still feeds the
        walk from captured columns, with identical analysis results."""
        from repro.record.binary_format import decode_log, encode_log

        execution = paper_suite()[0]
        _, log = _record(execution)
        program = execution.workload.program()
        round_tripped = decode_log(encode_log(log))
        assert round_tripped.captured is not None

        perf = PerfStats()
        from_disk = OrderedReplay(round_tripped, program, perf=perf)
        fresh = OrderedReplay(log, program)
        assert perf.replay_captured_handoffs == 1
        assert from_disk.output() == fresh.output()
        assert from_disk.final_memory() == fresh.final_memory()
        assert _race_keys(from_disk) == _race_keys(fresh)


@pytest.mark.parametrize("iters", [100, 300])
def test_racy_loop_replay_stage_matches_the_oracle(iters):
    """The racy-loop scaling program: the full replay stage (ordered walk
    plus access index) agrees with the oracle on every observable — index
    columns, output, final memory, races and thread replays."""
    program, _, log = record_racy_loop(iters)
    assert log.captured is not None
    fast = OrderedReplay(log, program)
    oracle = ReferenceOrderedReplay(_stripped(log), program)
    assert _index_columns(fast) == _index_columns(oracle)
    assert fast.output() == oracle.output()
    assert fast.final_memory() == oracle.final_memory()
    assert _race_keys(fast) == _race_keys(oracle)
    for name in log.threads:
        assert (
            fast.thread_replays[name].materialized()
            == oracle.thread_replays[name].materialized()
        ), name
