"""The predecoded recorder and the suite cache must not change anything.

The predecoded interpreter, the columnar recorder, and the
content-addressed record cache are pure performance work: a recording
made through any combination of them must be *identical* — same
``ReplayLog``, same machine result, same race instances, same verdicts —
to one made by the generic string-dispatch oracle
(``tests/reference_interp.py``).  These tests enforce that over the full
paper suite.
"""

import pytest

import reference_interp
from repro.analysis.cache import SuiteCache, execution_cache_key
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import analyze_execution, analyze_suite
from repro.record import record_run
from repro.vm import RandomScheduler
from repro.workloads.suite import clean_suite, paper_suite

from conftest import record_racy_loop


def _record(execution, oracle=False):
    return (reference_interp.record_run if oracle else record_run)(
        execution.workload.program(),
        scheduler=RandomScheduler(
            seed=execution.seed, switch_probability=execution.switch_probability
        ),
        seed=execution.seed,
        max_steps=200_000,
    )


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
        key: (result.classification, result.instance_count)
        for key, result in suite.results.items()
    }


def test_fast_path_recordings_byte_identical():
    """Predecoded interpreter vs the oracle: same log, same machine
    result, on every execution of the paper suite plus the clean
    controls."""
    for execution in list(paper_suite()) + list(clean_suite()):
        fast_result, fast_log = _record(execution)
        slow_result, slow_log = _record(execution, oracle=True)
        assert fast_log == slow_log, execution.execution_id
        assert fast_result.output == slow_result.output
        assert fast_result.memory == slow_result.memory
        assert fast_result.global_steps == slow_result.global_steps
        assert fast_result.threads == slow_result.threads
        assert fast_result.sequencer_count == slow_result.sequencer_count


@pytest.mark.parametrize("iters", [100, 300])
def test_racy_loop_recordings_match_the_oracle(iters, tmp_path):
    """The racy-loop scaling program: the predecoded interpreter and the
    oracle record the same log and the same machine result, and the
    suite cache serves that log back unchanged."""
    _, result, log = record_racy_loop(iters)
    _, oracle_result, oracle_log = record_racy_loop(
        iters, run=reference_interp.record_run
    )
    assert log == oracle_log
    assert result == oracle_result
    cache = SuiteCache(tmp_path)
    cache.store("racy-loop", result, log)
    cached = cache.load("racy-loop")
    assert cached is not None
    assert cached[1] == log
    assert cached[0] == result


def test_verdicts_identical_on_generic_recordings(tmp_path):
    """Verdicts from the default path (predecoded interpreter + columnar
    access index) equal verdicts computed over oracle recordings served
    through the cache (which strips the captured columns, forcing the
    replay-derived access index)."""
    subset = paper_suite()[:8]
    cache = SuiteCache(tmp_path / "slow-recordings")
    for execution in subset:
        slow_result, slow_log = _record(execution, oracle=True)
        cache.store(execution_cache_key(execution, 200_000, True), slow_result, slow_log)

    for execution in subset:
        default = analyze_execution(execution)
        via_slow = analyze_execution(execution, cache=cache)
        assert via_slow.log == default.log
        assert via_slow.log.captured is None  # decoded from disk: replay-derived index
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

        assert instance_keys(via_slow) == instance_keys(default)
        assert [
            (e.outcome, e.original_first, e.pre_value, e.failure_kind)
            for e in via_slow.classified
        ] == [
            (e.outcome, e.original_first, e.pre_value, e.failure_kind)
            for e in default.classified
        ]


def test_suite_cache_second_run_hits_and_matches(tmp_path):
    """Running a suite twice against one cache dir: the second run serves
    every recording from disk and produces identical results."""
    subset = paper_suite()[:8]
    cache_dir = tmp_path / "record-cache"

    baseline = analyze_suite(subset)

    first_stats = PerfStats()
    first = analyze_suite(subset, perf=first_stats, cache_dir=cache_dir)
    assert first_stats.record_cache_misses == len(subset)
    assert first_stats.record_cache_hits == 0

    second_stats = PerfStats()
    second = analyze_suite(subset, perf=second_stats, cache_dir=cache_dir)
    assert second_stats.record_cache_hits == len(subset)
    assert second_stats.record_cache_misses == 0

    assert verdicts(first) == verdicts(baseline)
    assert verdicts(second) == verdicts(baseline)
    assert aggregates(first) == aggregates(baseline)
    assert aggregates(second) == aggregates(baseline)
    for cached, fresh in zip(second.executions, baseline.executions):
        assert cached.log == fresh.log
        assert cached.machine_result == fresh.machine_result


def test_cache_key_sensitivity():
    """The content address must change whenever anything that affects the
    recording changes, and must be stable for an unchanged execution."""
    executions = paper_suite()
    a, b = executions[0], executions[1]
    key = execution_cache_key(a, 200_000, True)
    assert key == execution_cache_key(a, 200_000, True)
    assert key != execution_cache_key(b, 200_000, True)
    assert key != execution_cache_key(a, 100_000, True)
    assert key != execution_cache_key(a, 200_000, False)
    reseeded = type(a)(
        execution_id=a.execution_id,
        workload=a.workload,
        seed=a.seed + 1,
        switch_probability=a.switch_probability,
    )
    assert key != execution_cache_key(reseeded, 200_000, True)


def test_corrupt_cache_entry_degrades_to_miss(tmp_path):
    """A truncated or garbage cache file must silently fall back to
    recording, never crash or serve bad data."""
    execution = paper_suite()[0]
    cache = SuiteCache(tmp_path)
    key = execution_cache_key(execution, 200_000, True)
    result, log = _record(execution)
    cache.store(key, result, log)

    for path in tmp_path.iterdir():
        path.write_bytes(b"garbage" + path.read_bytes()[:10])
    assert cache.load(key) is None

    fresh = analyze_execution(execution, cache=cache)
    baseline = analyze_execution(execution)
    assert fresh.log == baseline.log
