"""Unit tests: batch planning, lazy pair live-in, the portable index.

The batched classifier must be a pure execution-plan change: the same
verdicts as the plain classifier, byte for byte.  These tests pin the
pieces that make that true — the planner's grouping, the lazy live-in view's
address-for-address agreement with ``pair_snapshot``, the probe tracking,
the probe-divergence fallback, and the portable verdict index's
defensive absorb / collision guard.
"""

import copy

import pytest

from repro.analysis import batching
from repro.analysis.batching import (
    VERDICT_INDEX_VERSION,
    content_digest,
    content_shape,
    instance_batch_key,
    plan_batches,
    region_content,
)
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
from repro.race.model import RaceInstance
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler


def _batchy_source(iters=8):
    """Two threads racing on ``x`` in a content-stable loop.

    The loop keeps its trip count in memory and re-normalizes every
    register it touched before each sequencer call, so all racing
    regions of a thread record identical content — the planner groups
    them into real (size > 1) batches, across any schedule.  Two stores
    per region give several instances per overlapping region pair.
    """

    def thread(t, value):
        return (
            "\n.thread {t}\n"
            "{t}h:\n"
            "    load r1, [cnt_{t}]\n"
            "    subi r1, r1, 1\n"
            "    store r1, [cnt_{t}]\n"
            "    beqz r1, {t}done\n"
            "    li r1, 0\n"
            "    sys_rand r9, 1\n"
            "    li r2, {value}\n"
            "    store r2, [x]\n"
            "    store r2, [x]\n"
            "    li r2, 0\n"
            "    sys_rand r9, 1\n"
            "    jmp {t}h\n"
            "{t}done:\n"
            "    halt\n"
        ).format(t=t, value=value)

    header = ".data\nx: .word 0\ncnt_a: .word %d\ncnt_b: .word %d\n" % (
        iters + 1,
        iters + 1,
    )
    return header + thread("a", 5) + thread("b", 7)


def batchy_log(seed=7, iters=8):
    program = assemble(_batchy_source(iters), name="batchy")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.3),
        seed=seed,
    )
    return log


def batchy_pipeline(seed=7, iters=8):
    log = batchy_log(seed=seed, iters=iters)
    program = assemble(_batchy_source(iters), name="batchy")
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


def analysis_verdicts(analysis):
    return [verdict_tuple(entry) for entry in analysis.classified]


def fresh_classifier(cls, ordered):
    return cls(ordered, config=ClassifierConfig(), execution_id="t")


class TestPlanBatches:
    def test_groups_content_identical_instances(self):
        _, ordered, instances = batchy_pipeline()
        assert len(instances) > 1
        classifier = fresh_classifier(BatchingClassifier, ordered)
        plan = plan_batches(classifier, instances)
        assert plan.total_instances == len(instances)
        assert sum(batch.size for batch in plan.batches) == len(instances)
        # The loop records content-identical regions, so real batches form.
        assert plan.max_size > 1
        assert plan.batch_count < len(instances)

    def test_positions_are_a_permutation_in_input_order(self):
        _, ordered, instances = batchy_pipeline()
        classifier = fresh_classifier(BatchingClassifier, ordered)
        plan = plan_batches(classifier, instances)
        positions = [
            position for batch in plan.batches for position, _ in batch.members
        ]
        assert sorted(positions) == list(range(len(instances)))
        for batch in plan.batches:
            member_positions = [position for position, _ in batch.members]
            assert member_positions == sorted(member_positions)

    def test_members_share_the_structural_key(self):
        _, ordered, instances = batchy_pipeline()
        classifier = fresh_classifier(BatchingClassifier, ordered)
        plan = plan_batches(classifier, instances)
        for batch in plan.batches:
            for _, member in batch.members:
                assert classifier._structural_key(member) == batch.key

    def test_size_histogram_accounts_for_every_batch(self):
        _, ordered, instances = batchy_pipeline()
        classifier = fresh_classifier(BatchingClassifier, ordered)
        plan = plan_batches(classifier, instances)
        histogram = plan.size_histogram()
        assert sum(histogram.values()) == plan.batch_count
        assert sum(size * count for size, count in histogram.items()) == (
            plan.total_instances
        )


class TestBatchedVerdictEquivalence:
    def test_batched_matches_memoized_and_naive(self):
        # The batching classifier is the memoized path; the plain
        # classifier is its oracle.
        _, ordered, instances = batchy_pipeline()
        naive = fresh_classifier(RaceClassifier, ordered).classify_all(instances)
        batched = fresh_classifier(BatchingClassifier, ordered).classify_all(
            instances
        )
        reference = [verdict_tuple(entry) for entry in naive]
        assert [verdict_tuple(entry) for entry in batched] == reference

    def test_fanout_counts_cache_served_members(self):
        _, ordered, instances = batchy_pipeline()
        classifier = fresh_classifier(BatchingClassifier, ordered)
        classifier.classify_all(instances)
        assert classifier.batches_planned > 0
        assert classifier.batch_fanout > 0
        replayed = classifier.cache.misses
        assert replayed + classifier.cache.hits == len(instances)
        # Fanned-out members never touched the virtual processor.
        assert replayed < len(instances)

    def test_probe_divergence_falls_back_without_changing_verdicts(self):
        # The racing variable's live-in value differs across pairs (0
        # before any store, then 5 or 7), so some members of a batch
        # diverge on the pre-value probe and must replay individually.
        _, ordered, instances = batchy_pipeline()
        plain = fresh_classifier(RaceClassifier, ordered).classify_all(instances)
        classifier = fresh_classifier(BatchingClassifier, ordered)
        batched = classifier.classify_all(instances)
        assert classifier.batch_fallbacks > 0
        assert [verdict_tuple(e) for e in batched] == [
            verdict_tuple(e) for e in plain
        ]


class TestLazyPairLiveIn:
    def test_view_agrees_with_pair_snapshot_everywhere(self):
        _, ordered, instances = batchy_pipeline()
        missing = object()
        for instance in instances:
            snapshot, freed_s = ordered.pair_snapshot(
                instance.region_a, instance.region_b
            )
            view, freed_v = ordered.pair_live_in(
                instance.region_a, instance.region_b
            )
            assert freed_v == freed_s
            for address, value in snapshot.items():
                assert address in view
                assert view[address] == value
                assert view.get(address, missing) == value
            absent = max(snapshot, default=0) + 1024
            assert absent not in view
            assert view.get(absent, missing) is missing
            with pytest.raises(KeyError):
                view[absent]

    def test_view_is_cached_per_pair(self):
        _, ordered, instances = batchy_pipeline()
        instance = instances[0]
        first = ordered.pair_live_in(instance.region_a, instance.region_b)
        again = ordered.pair_live_in(instance.region_a, instance.region_b)
        swapped = ordered.pair_live_in(instance.region_b, instance.region_a)
        assert again[0] is first[0]
        assert swapped[0] is first[0]

    def test_tracking_view_records_probes_like_tracking_image(self):
        # Tracking the lazy pair view records exactly the probes that
        # tracking the materialized pair image does, misses included.
        _, ordered, instances = batchy_pipeline()
        instance = instances[0]
        snapshot, _ = ordered.pair_snapshot(instance.region_a, instance.region_b)
        lazy, _ = ordered.pair_live_in(instance.region_a, instance.region_b)
        present = sorted(snapshot)[:2]
        absent = max(snapshot, default=0) + 1024
        image = TrackingView(snapshot)
        view = TrackingView(lazy)
        for tracker in (image, view):
            assert tracker[present[0]] == snapshot[present[0]]
            assert tracker.get(present[1]) == snapshot[present[1]]
            assert tracker.get(absent) is None
            assert absent + 1 not in tracker
            with pytest.raises(KeyError):
                tracker[absent + 2]
        assert view.probes == image.probes
        assert view.probes == {
            present[0]: snapshot[present[0]],
            present[1]: snapshot[present[1]],
            absent: None,
            absent + 1: None,
            absent + 2: None,
        }


class TestPortableIndex:
    def test_absorb_rejects_garbage_wholesale(self):
        cache = VerdictCache()
        assert cache.absorb_portable("not a document") == 0
        assert cache.absorb_portable(None) == 0
        assert cache.absorb_portable({"verdict_index_version": 99}) == 0
        assert (
            cache.absorb_portable(
                {"verdict_index_version": VERDICT_INDEX_VERSION, "entries": "x"}
            )
            == 0
        )
        assert cache.absorbed == 0

    def test_absorb_skips_malformed_entries_individually(self):
        cache = VerdictCache()
        index = {
            "verdict_index_version": VERDICT_INDEX_VERSION,
            "entries": [
                42,
                {},
                {"key": [1, 2, 3]},
                {
                    # Wrong shape arity: rejected by the entry parser.
                    "key": ["p", 0, "d1", 1, "d2", True],
                    "shapes": [[1, 2], [3]],
                    "probes": [],
                    "freed": [],
                    "template": ["state_change", True, 0, None, None],
                },
            ],
        }
        assert cache.absorb_portable(index) == 0

    def test_absorb_is_idempotent(self):
        engine = ClassificationEngine(EngineConfig())
        index = engine.analyze_log(batchy_log()).verdict_index
        assert index["entries"]
        cache = VerdictCache()
        first = cache.absorb_portable(index)
        assert first == len(index["entries"])
        assert cache.absorb_portable(index) == 0
        assert cache.absorbed == first

    def test_roundtrip_replays_nothing(self):
        log = batchy_log()
        cold = ClassificationEngine(EngineConfig()).analyze_log(log)
        stats = PerfStats()
        warm_engine = ClassificationEngine(EngineConfig())
        warm = warm_engine.analyze_log(log, perf=stats, prior=cold)
        assert analysis_verdicts(warm) == analysis_verdicts(cold)
        assert stats.cache_misses == 0
        assert stats.incremental_spliced > 0
        assert stats.incremental_absorbed == len(cold.verdict_index["entries"])

    def test_export_after_absorb_is_lossless(self):
        index = ClassificationEngine(EngineConfig()).analyze_log(
            batchy_log()
        ).verdict_index
        cache = VerdictCache()
        cache.absorb_portable(index)
        re_exported = cache.export_portable()
        third = VerdictCache()
        assert third.absorb_portable(re_exported) == len(index["entries"])


class TestCollisionGuard:
    def test_shape_mismatch_blocks_splicing_but_not_correctness(self):
        log = batchy_log()
        cold = ClassificationEngine(EngineConfig()).analyze_log(log)
        corrupted = copy.deepcopy(cold.verdict_index)
        for entry in corrupted["entries"]:
            entry["shapes"] = [[0, 0, 0], [0, 0, 0]]
        stats = PerfStats()
        warm = ClassificationEngine(EngineConfig()).analyze_log(
            log, perf=stats, prior=corrupted
        )
        # Every key matches by digest, but the shape guard rejects all
        # of them: nothing splices, everything honestly replays.
        assert stats.incremental_spliced == 0
        assert stats.cache_misses > 0
        assert analysis_verdicts(warm) == analysis_verdicts(cold)

    def test_total_digest_collapse_keeps_verdicts_correct(self, monkeypatch):
        # Force every region content to one digest: all portable keys
        # collide.  The shape guard and probe agreement must still keep
        # warm-incremental verdicts identical to a cold analysis.
        monkeypatch.setattr(batching, "content_digest", lambda content: "f" * 64)
        cold = ClassificationEngine(EngineConfig()).analyze_log(batchy_log())
        digests = {
            entry["key"][2] for entry in cold.verdict_index["entries"]
        } | {entry["key"][4] for entry in cold.verdict_index["entries"]}
        assert digests == {"f" * 64}
        other_log = batchy_log(seed=8)
        reference = ClassificationEngine(EngineConfig()).analyze_log(
            other_log
        )
        warm = ClassificationEngine(EngineConfig()).analyze_log(
            other_log, prior=cold
        )
        assert analysis_verdicts(warm) == analysis_verdicts(reference)


class TestInstanceBatchKey:
    def test_canonical_under_side_swap(self):
        _, ordered, instances = batchy_pipeline()
        instance = instances[0]
        swapped = RaceInstance(
            access_a=instance.access_b,
            access_b=instance.access_a,
            region_a=instance.region_b,
            region_b=instance.region_a,
        )
        assert instance_batch_key(ordered, instance) == instance_batch_key(
            ordered, swapped
        )

    def test_key_shape(self):
        _, ordered, instances = batchy_pipeline()
        key = instance_batch_key(ordered, instances[0])
        assert set(key) == {"race", "region_content"}
        assert "|" in key["race"]
        assert len(key["region_content"]) == 2
        for digest in key["region_content"]:
            assert len(digest) == 16
            int(digest, 16)  # truncated sha256 hex

    def test_content_digest_tracks_content(self):
        _, ordered, instances = batchy_pipeline()
        instance = instances[0]
        content = region_content(
            ordered, instance.access_a.thread_name, instance.region_a
        )
        assert content_digest(content) == content_digest(tuple(content))
        assert content_shape(content) == (
            content[2],
            len(content[4]),
            len(content[5]),
        )
