"""Property-based tests: batched + incremental classification equivalence.

For random recorded programs, the batched engine and a warm incremental
re-analysis spliced from its verdict index must both render the exact
report bytes of the plain (unmemoized) per-instance classifier.  This is the
whole-pipeline version of the unit equivalence tests: any drift in
canonicalization, batch planning, lazy live-in resolution, probe
tracking or index splicing shows up as a byte diff here.
"""

from hypothesis import HealthCheck, given, settings

from repro.analysis.engine import ClassificationEngine, EngineConfig
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import execution_report, render_report
from repro.isa import assemble
from repro.record import record_run
from repro.vm import RandomScheduler

from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _recorded_log(source, seed):
    program = assemble(source, name="prop_batching")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    return log


def _report(analysis):
    return render_report(execution_report(analysis))


def _engine():
    return ClassificationEngine(EngineConfig(memoize=True))


class TestBatchedEngineEquivalence:
    @given(source=programs(), seed=seeds)
    @_SETTINGS
    def test_batched_and_incremental_match_per_instance(self, source, seed):
        log = _recorded_log(source, seed)
        naive = ClassificationEngine(
            EngineConfig(memoize=False)
        ).analyze_log(log)
        reference = _report(naive)

        batched = _engine().analyze_log(log)
        assert _report(batched) == reference

        # A warm engine spliced from the batched run's verdict index
        # must reproduce the same bytes without a single replay.
        warm_stats = PerfStats()
        warm = _engine().analyze_log(
            log, perf=warm_stats, prior=batched
        )
        assert _report(warm) == reference
        if naive.classified:
            assert warm_stats.cache_misses == 0
            assert warm_stats.incremental_spliced > 0
