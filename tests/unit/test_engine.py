"""Unit tests for the classification engine: cache, memoization, perf."""

import pytest

from repro.analysis.engine import (
    BatchingClassifier,
    ClassificationEngine,
    EngineConfig,
    TrackingView,
    VerdictCache,
)
from repro.analysis.perf import PerfStats
from repro.isa import assemble
from repro.race.classifier import ClassifierConfig, RaceClassifier
from repro.race.happens_before import find_races
from repro.race.outcomes import InstanceOutcome
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.replay.virtual_processor import ReplayFailureKind
from repro.vm import ExplicitScheduler, RandomScheduler


RACY_RMW = (
    ".data\nx: .word 10\n.thread a b\n    load r1, [x]\n"
    "    addi r1, r1, 1\n    store r1, [x]\n    halt\n"
)

#: Each thread's suffix spin-waits on a flag only the *other* thread's
#: suffix sets.  The recorded interleaving terminates, but the virtual
#: processor replays suffixes to region end one thread at a time — so in
#: the alternative order, whichever suffix runs first spins forever.
SPIN_WAIT = (
    ".data\nx: .word 0\nf1: .word 0\nf2: .word 0\n"
    ".thread w1\n"
    "    load r1, [x]\n"
    "w1wait:\n    load r2, [f1]\n    beqz r2, w1wait\n"
    "    li r3, 1\n    store r3, [f2]\n    halt\n"
    ".thread w2\n"
    "    li r4, 1\n    store r4, [x]\n    store r4, [f1]\n"
    "w2wait:\n    load r5, [f2]\n    beqz r5, w2wait\n    halt\n"
)

#: w2 runs to its publication, w1 runs to completion, w2 drains.
SPIN_SCHEDULE = [1] * 3 + [0] * 6 + [1] * 3

#: Thread b races on x, then dereferences null and dies with a fault.
FAULTING = (
    ".data\nx: .word 5\n"
    ".thread a\n    li r1, 1\n    store r1, [x]\n    halt\n"
    ".thread b\n    load r2, [x]\n    li r4, 0\n    load r3, [r4]\n    halt\n"
)


def pipeline(source, seed=3, schedule=None, name="eng"):
    program = assemble(source, name=name)
    # Schedulers are stateful: build a fresh one per recording.
    scheduler = (
        ExplicitScheduler(list(schedule))
        if schedule is not None
        else RandomScheduler(seed=seed, switch_probability=0.4)
    )
    _, log = record_run(program, scheduler=scheduler, seed=seed)
    ordered = OrderedReplay(log, program)
    return program, ordered, find_races(ordered)


def verdict_tuple(entry):
    return (
        entry.instance.static_key,
        entry.outcome,
        entry.original_first,
        entry.pre_value,
        entry.failure_kind,
        entry.failure_detail,
    )


class TestTrackingImage:
    """The tracking live-in image (:class:`TrackingView` over a dict)."""

    def test_records_hits(self):
        image = TrackingView({10: 1, 20: 2})
        assert image[10] == 1
        assert image.get(20) == 2
        assert 10 in image
        assert image.probes == {10: 1, 20: 2}

    def test_records_misses_as_none(self):
        image = TrackingView({10: 1})
        assert image.get(99) is None
        assert 98 not in image
        with pytest.raises(KeyError):
            image[97]
        assert image.probes == {99: None, 98: None, 97: None}

    def test_unprobed_addresses_not_recorded(self):
        image = TrackingView({10: 1, 20: 2})
        image.get(10)
        assert 20 not in image.probes


class TestVerdictCache:
    TEMPLATE = (InstanceOutcome.NO_STATE_CHANGE, True, 7, None, "")

    def test_miss_then_hit(self):
        cache = VerdictCache()
        assert cache.lookup(("k",), {10: 1}, {}) is None
        cache.store(("k",), {10: 1}, {}, self.TEMPLATE)
        assert cache.lookup(("k",), {10: 1}, {}) == self.TEMPLATE
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_probe_value_mismatch_misses(self):
        cache = VerdictCache()
        cache.store(("k",), {10: 1}, {}, self.TEMPLATE)
        assert cache.lookup(("k",), {10: 2}, {}) is None

    def test_recorded_miss_must_still_be_absent(self):
        cache = VerdictCache()
        # The verdict was computed with address 10 *absent* from live-in.
        cache.store(("k",), {10: None}, {}, self.TEMPLATE)
        assert cache.lookup(("k",), {10: 1}, {}) is None
        assert cache.lookup(("k",), {}, {}) == self.TEMPLATE

    def test_freed_ranges_are_part_of_the_match(self):
        cache = VerdictCache()
        cache.store(("k",), {}, {100: 4}, self.TEMPLATE)
        assert cache.lookup(("k",), {}, {}) is None
        assert cache.lookup(("k",), {}, {100: 4}) == self.TEMPLATE

    def test_unprobed_addresses_do_not_block_hits(self):
        cache = VerdictCache()
        cache.store(("k",), {10: 1}, {}, self.TEMPLATE)
        assert cache.lookup(("k",), {10: 1, 999: 42}, {}) == self.TEMPLATE

    def test_intern_is_stable_and_injective(self):
        cache = VerdictCache()
        a = cache.intern(("content", 1))
        b = cache.intern(("content", 2))
        assert a != b
        assert cache.intern(("content", 1)) == a


class TestMemoizingClassifier:
    """The engine's memoizing classifier (:class:`BatchingClassifier`)."""

    def test_identical_recordings_hit_the_cache(self):
        cache = VerdictCache()
        reference = []
        for run in range(2):
            _, ordered, instances = pipeline(RACY_RMW, seed=5)
            classifier = BatchingClassifier(
                ordered, cache=cache, execution_id="run%d" % run
            )
            classified = classifier.classify_all(instances)
            assert all(c.execution_id == "run%d" % run for c in classified)
            reference.append([verdict_tuple(c) for c in classified])
        assert reference[0] == reference[1]
        # Second pass is structurally identical: every verdict is served
        # from the cache and no virtual processor runs.
        assert cache.hits == len(reference[1])
        assert cache.misses == len(reference[0])

    def test_verdicts_match_plain_classifier(self):
        _, ordered, instances = pipeline(RACY_RMW, seed=5)
        plain = RaceClassifier(ordered, execution_id="x").classify_all(instances)
        _, ordered2, instances2 = pipeline(RACY_RMW, seed=5)
        memo = BatchingClassifier(ordered2, execution_id="x").classify_all(instances2)
        assert [verdict_tuple(c) for c in plain] == [verdict_tuple(c) for c in memo]

    def test_store_replay_outcomes_bypasses_cache(self):
        _, ordered, instances = pipeline(RACY_RMW, seed=5)
        config = ClassifierConfig(store_replay_outcomes=True)
        classifier = BatchingClassifier(ordered, config=config)
        classified = classifier.classify_all(instances)
        assert classifier.cache.hits == 0 and classifier.cache.misses == 0
        assert any(c.original_replay is not None for c in classified)


class TestReplayShortcuts:
    def test_original_order_synthesized_from_recording(self):
        _, ordered, instances = pipeline(RACY_RMW, seed=5)
        classifier = RaceClassifier(ordered)
        classified = classifier.classify_all(instances)
        assert classified
        assert classifier.originals_synthesized == len(classified)
        # Only the alternative order needed the virtual processor.
        assert classifier.vp_runs == len(classified)

    def test_fault_ended_thread_falls_back_to_real_replay(self):
        schedule = [0] * 3 + [1] * 4
        _, ordered, instances = pipeline(FAULTING, schedule=schedule)
        assert instances
        fast = RaceClassifier(ordered)
        classified = fast.classify_all(instances)
        # Thread b died on a fault: its recording is not a safe original,
        # so nothing is synthesized and the VP replays for real.
        assert fast.originals_synthesized == 0

        _, ordered2, instances2 = pipeline(FAULTING, schedule=schedule)
        naive = RaceClassifier(
            ordered2,
            config=ClassifierConfig(
                reuse_recorded_original=False,
                fast_forward_prefix=False,
                detect_spin_cycles=False,
            ),
        )
        assert [verdict_tuple(c) for c in naive.classify_all(instances2)] == [
            verdict_tuple(c) for c in classified
        ]

    def test_spin_cycle_detected_early_with_exact_failure(self):
        _, ordered, instances = pipeline(SPIN_WAIT, schedule=SPIN_SCHEDULE)
        assert instances
        # A step limit this large could never be exhausted by brute force
        # within the test budget; the cycle detector must cut the replay
        # off early yet report the exact failure the exhaustive run would.
        config = ClassifierConfig(step_limit=1_000_000_000)
        classified = RaceClassifier(ordered, config=config).classify_all(instances)
        failures = [
            c for c in classified if c.outcome is InstanceOutcome.REPLAY_FAILURE
        ]
        assert failures
        for entry in failures:
            assert entry.failure_kind is ReplayFailureKind.STEP_LIMIT
            assert "exceeded 1000000000 steps" in entry.failure_detail

    def test_spin_verdict_matches_exhaustive_replay(self):
        _, ordered, instances = pipeline(SPIN_WAIT, schedule=SPIN_SCHEDULE)
        fast = RaceClassifier(ordered).classify_all(instances)
        _, ordered2, instances2 = pipeline(SPIN_WAIT, schedule=SPIN_SCHEDULE)
        naive_config = ClassifierConfig(
            reuse_recorded_original=False,
            fast_forward_prefix=False,
            detect_spin_cycles=False,
        )
        naive = RaceClassifier(ordered2, config=naive_config).classify_all(instances2)
        assert [verdict_tuple(c) for c in fast] == [verdict_tuple(c) for c in naive]


class TestPerfStats:
    def test_stage_times_accumulate(self):
        stats = PerfStats()
        with stats.stage("classify"):
            pass
        with stats.stage("classify"):
            pass
        assert stats.stage_seconds["classify"] >= 0.0
        assert len(stats.stage_seconds) == 1

    def test_merge_folds_counters_and_workers(self):
        a = PerfStats(jobs=4)
        a.cache_hits, a.cache_misses, a.vp_runs = 3, 7, 11
        a.pool_workers.add(100)
        a.stage_seconds["classify"] = 1.0
        b = PerfStats()
        b.cache_hits, b.cache_misses, b.vp_runs = 1, 2, 3
        b.pool_workers.update({100, 200})
        b.stage_seconds["classify"] = 0.5
        a.merge(b)
        assert (a.cache_hits, a.cache_misses, a.vp_runs) == (4, 9, 14)
        assert a.pool_workers == {100, 200}
        assert a.stage_seconds["classify"] == pytest.approx(1.5)
        assert a.pool_utilization == pytest.approx(0.5)

    def test_hit_rate(self):
        stats = PerfStats()
        assert stats.cache_hit_rate == 0.0
        stats.cache_hits, stats.cache_misses = 1, 3
        assert stats.cache_hit_rate == pytest.approx(0.25)

    def test_render_and_json_round_trip(self):
        stats = PerfStats(jobs=2)
        stats.cache_hits, stats.cache_misses = 2, 8
        stats.pool_tasks = 4
        stats.pool_workers.update({10, 20})
        text = stats.render()
        assert "jobs=2" in text and "20.0% hit rate" in text and "pool:" in text
        payload = stats.to_json()
        assert payload["cache_hit_rate"] == 0.2
        assert payload["pool_workers"] == 2

    def test_from_json_loads_payloads_with_retired_counters(self):
        # Stats written before the generic replayer was retired carry two
        # counters that no longer exist; they load and are dropped.
        payload = PerfStats(jobs=2).to_json()
        payload["replay_threads_fast"] = 3
        payload["replay_threads_generic"] = 0
        payload["replay_snapshots_eager"] = 0
        stats = PerfStats.from_json(payload)
        assert stats.replay_threads_fast == 3
        assert not hasattr(stats, "replay_threads_generic")
        assert not hasattr(stats, "replay_snapshots_eager")
        assert "replay_threads_generic" not in stats.to_json()
        assert "replay_snapshots_eager" not in stats.to_json()


class TestEngineConfig:
    def test_engine_without_memoization_uses_plain_classifier(self):
        _, ordered, _ = pipeline(RACY_RMW)
        engine = ClassificationEngine(EngineConfig(memoize=False))
        classifier = engine._classifier_factory(ordered, None, "x")
        assert type(classifier) is RaceClassifier

    def test_engine_classifiers_share_the_cache(self):
        _, ordered, _ = pipeline(RACY_RMW)
        engine = ClassificationEngine(EngineConfig())
        first = engine._classifier_factory(ordered, None, "a")
        second = engine._classifier_factory(ordered, None, "b")
        assert first.cache is engine.cache and second.cache is engine.cache


def lost_update_execution(seed):
    from repro.workloads.harmful_lost_update import lost_update
    from repro.workloads.suite import Execution

    return Execution("snapshot:lu#s%d" % seed, lost_update(90), seed)


class TestVerdictIndexSnapshot:
    """An analysis's verdict index is the engine cache for its program as
    it stood when the analysis finished, however late it is read."""

    def test_late_read_sees_the_index_at_finish(self):
        engine = ClassificationEngine(EngineConfig())
        first = engine.analyze_execution(lost_update_execution(901))
        program = first.log.program_name
        at_finish = engine.cache.export_portable(program=program)
        for seed in range(902, 907):
            engine.analyze_execution(lost_update_execution(seed))
        assert engine.cache.export_portable(program=program) != at_finish
        assert first.verdict_index == at_finish


class TestPersistedVerdictIndex:
    def test_a_run_that_adds_nothing_does_not_rewrite_the_index(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.cache import SuiteCache

        config = EngineConfig(cache_dir=str(tmp_path))
        ClassificationEngine(config).analyze_execution(lost_update_execution(901))
        (index_path,) = tmp_path.glob("*.verdicts.json")
        stored = index_path.read_bytes()

        written = []
        write_atomic = SuiteCache._write_atomic

        def recording(cache, path, data):
            written.append(path.name)
            return write_atomic(cache, path, data)

        monkeypatch.setattr(SuiteCache, "_write_atomic", recording)
        stats = PerfStats()
        ClassificationEngine(config).analyze_execution(
            lost_update_execution(901), perf=stats
        )
        assert stats.incremental_spliced > 0 and stats.cache_misses == 0
        assert not [name for name in written if name.endswith(".verdicts.json")]
        assert index_path.read_bytes() == stored

        # New verdicts are still persisted, as the union with the old.
        ClassificationEngine(config).analyze_execution(lost_update_execution(902))
        assert index_path.name in written
        assert len(index_path.read_bytes()) > len(stored)
