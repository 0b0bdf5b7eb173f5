"""The engine's optimized paths must not change a single verdict.

Every shortcut the classification engine stacks on top of the plain
pipeline — recorded-original synthesis, prefix fast-forward, spin-cycle
cutoff, verdict memoization, process-pool fan-out — is sound only if a
suite analysed through it is *byte-identical* to the naive serial
analysis.  These tests enforce that across the full paper suite and a set
of re-seeded recordings the suite does not contain.
"""

import pytest

from repro.analysis.engine import ClassificationEngine, EngineConfig
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import analyze_suite, execution_report, render_report
from repro.isa import assemble
from repro.race.classifier import ClassifierConfig
from repro.record import record_run
from repro.vm import RandomScheduler
from repro.workloads.harmful_lost_update import lost_update
from repro.workloads.harmful_refcount import refcount_free
from repro.workloads.benign_sync import flag_publish
from repro.workloads.suite import Execution, paper_suite

#: The classifier exactly as the seed revision ran it: every replay
#: shortcut off, no memoization, no pool.
NAIVE = ClassifierConfig(
    reuse_recorded_original=False,
    fast_forward_prefix=False,
    detect_spin_cycles=False,
)


#: A racing loop whose regions record identical content on every trip:
#: the trip count lives in memory and every touched register is reset
#: before each sequencer call, so a re-seeded recording changes the
#: interleaving but mostly repeats region contents the prior run saw.
RACY_LOOP_THREAD = """
.thread {t}
{t}h:
    load r1, [cnt_{t}]
    subi r1, r1, 1
    store r1, [cnt_{t}]
    beqz r1, {t}done
    li r1, 0
    sys_rand r9, 1
    li r2, {value}
    store r2, [x]
    store r2, [x]
    store r2, [x]
    li r4, 3
{t}k:
    addi r5, r5, 3
    subi r4, r4, 1
    bnez r4, {t}k
    li r2, 0
    li r4, 0
    li r5, 0
    sys_rand r9, 1
    jmp {t}h
{t}done:
    halt
"""


def racy_loop_log(iters, seed):
    source = (
        ".data\nx: .word 0\ncnt_a: .word {n}\ncnt_b: .word {n}\n".format(n=iters + 1)
        + RACY_LOOP_THREAD.format(t="a", value=5)
        + RACY_LOOP_THREAD.format(t="b", value=7)
    )
    _, log = record_run(
        assemble(source, name="racy_loop"),
        scheduler=RandomScheduler(seed=seed, switch_probability=0.3),
        seed=seed,
    )
    return log


def reseeded_executions():
    """Recordings at seeds the paper suite does not use."""
    return [
        Execution("equiv:%s#s%d" % (workload.name, seed), workload, seed)
        for workload, seed in [
            (lost_update(90), 901),
            (lost_update(90), 902),
            (refcount_free(91), 911),
            (flag_publish(92), 921),
        ]
    ]


def verdicts(suite):
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
        for analysis in suite.executions
        for entry in analysis.classified
    ]


def aggregates(suite):
    return {
        key: result.classification for key, result in suite.results.items()
    }


@pytest.fixture(scope="module")
def reference():
    return analyze_suite(paper_suite(), classifier_config=NAIVE)


class TestPaperSuiteEquivalence:
    def test_fast_serial_path_is_byte_identical(self, reference):
        perf = PerfStats()
        fast = analyze_suite(paper_suite(), perf=perf)
        assert verdicts(fast) == verdicts(reference)
        assert aggregates(fast) == aggregates(reference)
        # The default classifies with the plain oracle: no verdict cache,
        # no batches (memoize=True does use both; see below).
        assert perf.instances > 0
        assert perf.cache_hits + perf.cache_misses == 0
        assert perf.classify_batches == 0

    def test_memoized_path_is_byte_identical(self, reference):
        perf = PerfStats()
        memoized = analyze_suite(paper_suite(), memoize=True, perf=perf)
        assert verdicts(memoized) == verdicts(reference)
        assert aggregates(memoized) == aggregates(reference)
        assert perf.cache_hits + perf.cache_misses == perf.instances


class TestBatchingEquivalence:
    """The batched planner and incremental splicing change no verdict."""

    def test_batched_path_is_byte_identical(self, reference):
        perf = PerfStats()
        batched = analyze_suite(paper_suite(), memoize=True, perf=perf)
        assert verdicts(batched) == verdicts(reference)
        assert aggregates(batched) == aggregates(reference)
        assert perf.classify_batches > 0
        assert sum(
            size * count for size, count in perf.batch_sizes.items()
        ) == perf.instances

    def test_incremental_prior_replays_nothing(self):
        execution = Execution("incr:lost_update#s931", lost_update(90), 931)
        cold_stats = PerfStats()
        cold = ClassificationEngine(EngineConfig()).analyze_execution(
            execution, perf=cold_stats
        )
        warm_stats = PerfStats()
        warm = ClassificationEngine(EngineConfig()).analyze_execution(
            execution, perf=warm_stats, prior=cold
        )

        def entry_tuples(analysis):
            return [
                (
                    entry.instance.static_key,
                    entry.outcome,
                    entry.original_first,
                    entry.pre_value,
                    entry.failure_kind,
                    entry.failure_detail,
                )
                for entry in analysis.classified
            ]

        assert entry_tuples(warm) == entry_tuples(cold)
        assert cold_stats.cache_misses > 0
        assert warm_stats.cache_misses == 0
        assert warm_stats.incremental_spliced > 0
        assert warm.verdict_index == cold.verdict_index

    def test_reseeded_warm_run_replays_under_a_tenth(self):
        # The service's near-miss resubmission: a different seed of the
        # same program, spliced from the first run's verdict index.
        cold = ClassificationEngine(EngineConfig()).analyze_log(
            racy_loop_log(24, seed=21)
        )
        log = racy_loop_log(24, seed=22)
        stats = PerfStats()
        warm = ClassificationEngine(EngineConfig()).analyze_log(
            log, perf=stats, prior=cold
        )
        plain_stats = PerfStats()
        plain = ClassificationEngine(EngineConfig(memoize=False)).analyze_log(
            log, perf=plain_stats
        )
        assert render_report(execution_report(warm)) == render_report(
            execution_report(plain)
        )
        assert stats.incremental_spliced > 0
        assert stats.cache_misses < 0.10 * len(warm.instances)
        assert stats.vp_runs < 0.10 * plain_stats.vp_runs


class TestReseededEquivalence:
    def test_engine_matches_naive_on_unseen_seeds(self):
        executions = reseeded_executions()
        reference = analyze_suite(executions, classifier_config=NAIVE)
        engine = analyze_suite(executions, memoize=True)
        assert verdicts(reference)  # the workloads do race
        assert verdicts(engine) == verdicts(reference)

    def test_duplicate_recordings_hit_the_cache_without_drift(self):
        # The same recording twice: the second pass must be served from
        # the verdict cache and still reproduce every verdict verbatim.
        twice = [
            Execution("dup%d:lost_update#s905" % n, lost_update(90), 905)
            for n in range(2)
        ]
        perf = PerfStats()
        suite = analyze_suite(twice, memoize=True, perf=perf)
        reference = analyze_suite(twice, classifier_config=NAIVE)
        assert verdicts(suite) == verdicts(reference)
        assert perf.cache_hits > 0
