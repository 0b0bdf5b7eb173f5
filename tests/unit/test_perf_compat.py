"""Compatibility goldens for the perf counters' public surfaces.

``--perf`` text, ``PerfStats.to_json()`` and the ``/metrics`` key tree
are read by people and by dashboards, so a refactor of how the counters
are declared, merged or serialised must leave all three unchanged.  The
literals below were captured from the hand-written implementation; the
fixture sets every counter to a distinct non-zero value so that a
dropped, renamed or mis-merged field shows up here.
"""

from __future__ import annotations

from dataclasses import fields

from repro.analysis.perf import PerfStats
from repro.service import AnalysisService, ServiceConfig


def every_counter():
    stats = PerfStats(jobs=4)
    stats.stage_seconds.update(
        {"record": 0.1234567, "classify": 1.5, "detect": 0.25, "replay": 0.000125}
    )
    stats.executions, stats.instances, stats.vp_runs = 4, 7, 16
    stats.cache_hits, stats.cache_misses = 10, 13
    stats.originals_synthesized, stats.prefixes_fast_forwarded = 19, 22
    stats.classify_batches, stats.batch_fanout, stats.batch_fallbacks = 25, 28, 31
    stats.batch_sizes.update({1: 5, 4: 2, 16: 1})
    stats.incremental_spliced, stats.incremental_absorbed = 34, 37
    stats.pool_tasks = 40
    stats.pool_workers.update({4242, 101, 777})
    stats.detect_regions = 43
    stats.detect_pairs_examined, stats.detect_pairs_pruned = 46, 49
    stats.record_steps, stats.record_events, stats.record_predicted_loads = 52, 55, 58
    stats.record_cache_hits, stats.record_cache_misses = 61, 64
    stats.replay_threads_fast, stats.replay_accesses_materialized = 67, 70
    stats.replay_snapshots_lazy, stats.replay_captured_handoffs = 73, 76
    stats.detect_log_native = 79
    stats.stream_jobs, stats.stream_segments, stats.stream_windows = 82, 85, 88
    stats.stream_first_verdict_s = 4.1234567
    stats.parallel_segments, stats.parallel_workers = 91, 94
    stats.parallel_boundary_stitches = 97
    stats.parallel_merge_s, stats.parallel_worker_sweep_s = 0.5, 2.25
    stats.fleet_absorbs, stats.fleet_absorb_duplicates = 100, 103
    stats.fleet_records_new, stats.fleet_records_updated = 106, 109
    return stats


GOLDEN_JSON = {
    "batch_fallbacks": 31,
    "batch_fanout": 28,
    "batch_size_histogram": {"1": 5, "16": 1, "4": 2},
    "cache_hit_rate": 0.4348,
    "cache_hits": 10,
    "cache_misses": 13,
    "classify_batches": 25,
    "detect_log_native": 79,
    "detect_pairs_examined": 46,
    "detect_pairs_pruned": 49,
    "detect_prune_rate": 0.5158,
    "detect_regions": 43,
    "executions": 4,
    "fleet_absorb_duplicates": 103,
    "fleet_absorbs": 100,
    "fleet_records_new": 106,
    "fleet_records_updated": 109,
    "incremental_absorbed": 37,
    "incremental_spliced": 34,
    "instances": 7,
    "jobs": 4,
    "originals_synthesized": 19,
    "parallel_boundary_stitches": 97,
    "parallel_merge_s": 0.5,
    "parallel_segments": 91,
    "parallel_worker_sweep_s": 2.25,
    "parallel_workers": 94,
    "pool_tasks": 40,
    "pool_worker_ids": [101, 777, 4242],
    "pool_workers": 3,
    "prefixes_fast_forwarded": 22,
    "record_cache_hit_rate": 0.488,
    "record_cache_hits": 61,
    "record_cache_misses": 64,
    "record_events": 55,
    "record_predicted_loads": 58,
    "record_steps": 52,
    "replay_accesses_materialized": 70,
    "replay_captured_handoffs": 76,
    "replay_snapshots_lazy": 73,
    "replay_threads_fast": 67,
    "stage_seconds": {
        "classify": 1.5,
        "detect": 0.25,
        "record": 0.123457,
        "replay": 0.000125,
    },
    "stream_first_verdict_s": 4.123457,
    "stream_jobs": 82,
    "stream_segments": 85,
    "stream_windows": 88,
    "vp_runs": 16,
}

GOLDEN_RENDER = """\
analysis performance (jobs=4)
  classify        1.500 s
  detect          0.250 s
  record          0.123 s
  replay          0.000 s
  4 executions, 7 instances, 16 VP runs
  verdict cache: 10 hits / 13 misses (43.5% hit rate)
  replay reuse: 19 originals synthesized, 22 prefixes fast-forwarded
  batching: 25 batches (largest 16), 28 fanned out, 31 fallbacks
  incremental: 34 verdicts spliced from 37 absorbed entries
  record: 52 steps, 55 access events, 58 predicted loads elided
  record cache: 61 hits / 64 misses (48.8% hit rate)
  replay: 67 threads, 76 captured handoffs
  replay lazy: 70 accesses materialized, 73 snapshots lazy
  detect: 79 zero-replay (log-native) passes
  stream: 82 jobs, 85 segments, 88 windows
  stream first verdict: 0.050 s avg
  parallel detect: 91 segments over 94 workers, 97 boundary stitches
  parallel detect time: 2.250 s worker sweeps, 0.500 s merge
  fleet: 100 absorbed (103 duplicates skipped), 106 records new / 109 updated
  detect sweep: 43 regions, 46 pairs examined, 49 pruned (51.6%)
  pool: 40 tasks over 3 workers (75% of 4 requested)"""


def test_fixture_sets_every_counter():
    stats = every_counter()
    assert [f.name for f in fields(stats) if not getattr(stats, f.name)] == []


def test_to_json_matches_golden():
    assert every_counter().to_json() == GOLDEN_JSON


def test_render_matches_golden():
    assert every_counter().render() == GOLDEN_RENDER


def test_render_of_defaults_prints_only_the_unconditional_lines():
    assert PerfStats().render() == (
        "analysis performance (jobs=1)\n"
        "  0 executions, 0 instances, 0 VP runs\n"
        "  verdict cache: 0 hits / 0 misses (0.0% hit rate)\n"
        "  replay reuse: 0 originals synthesized, 0 prefixes fast-forwarded"
    )


def test_render_triggers_on_any_listed_counter():
    # Each conditional line fires on a counter other than its first one,
    # and the lines it prints show zeros for the rest.
    stats = PerfStats(jobs=2)
    stats.classify_batches = 3
    stats.incremental_absorbed = 5
    stats.record_cache_hits = 26
    stats.replay_captured_handoffs = 7
    stats.stream_segments = 9
    stats.parallel_workers = 2
    stats.fleet_absorb_duplicates = 1
    assert stats.render() == (
        "analysis performance (jobs=2)\n"
        "  0 executions, 0 instances, 0 VP runs\n"
        "  verdict cache: 0 hits / 0 misses (0.0% hit rate)\n"
        "  replay reuse: 0 originals synthesized, 0 prefixes fast-forwarded\n"
        "  batching: 3 batches (largest 0), 0 fanned out, 0 fallbacks\n"
        "  incremental: 0 verdicts spliced from 5 absorbed entries\n"
        "  record: 0 steps, 0 access events, 0 predicted loads elided\n"
        "  record cache: 26 hits / 0 misses (100.0% hit rate)\n"
        "  replay: 0 threads, 7 captured handoffs\n"
        "  replay lazy: 0 accesses materialized, 0 snapshots lazy\n"
        "  stream: 0 jobs, 9 segments, 0 windows\n"
        "  parallel detect: 0 segments over 2 workers, 0 boundary stitches\n"
        "  parallel detect time: 0.000 s worker sweeps, 0.000 s merge\n"
        "  fleet: 0 absorbed (1 duplicates skipped), 0 records new / 0 updated"
    )


def test_render_skips_first_verdict_without_a_first_verdict_time():
    stats = PerfStats()
    stats.stream_jobs = 2
    stats.record_steps = 10
    stats.detect_regions = 4
    stats.pool_tasks = 3
    assert stats.render() == (
        "analysis performance (jobs=1)\n"
        "  0 executions, 0 instances, 0 VP runs\n"
        "  verdict cache: 0 hits / 0 misses (0.0% hit rate)\n"
        "  replay reuse: 0 originals synthesized, 0 prefixes fast-forwarded\n"
        "  record: 10 steps, 0 access events, 0 predicted loads elided\n"
        "  stream: 2 jobs, 0 segments, 0 windows\n"
        "  detect sweep: 4 regions, 0 pairs examined, 0 pruned (0.0%)\n"
        "  pool: 3 tasks over 0 workers (0% of 1 requested)"
    )


def test_metrics_key_tree(tmp_path):
    service = AnalysisService(
        ServiceConfig(pool_size=0, port=0, fleet_dir=str(tmp_path / "fleet"))
    ).start(workers=False)
    try:
        metrics = service.metrics()
    finally:
        service.shutdown(drain=False)
    assert sorted(metrics) == [
        "classify_batching",
        "fleet",
        "jobs",
        "latency_histograms_s",
        "perf",
        "pool",
        "queue",
        "record_cache_hit_rate",
        "recovered_jobs",
        "stream",
        "throughput_jobs_per_s",
        "uptime_s",
        "verdict_cache_hit_rate",
    ]
    assert sorted(metrics["perf"]) == sorted(GOLDEN_JSON)
    assert sorted(metrics["classify_batching"]) == [
        "batch_size_histogram",
        "batches",
        "fallbacks",
        "fanout",
        "incremental_absorbed",
        "incremental_spliced",
    ]
    assert sorted(metrics["stream"]) == [
        "first_verdict_ms_total",
        "jobs",
        "segments",
        "stream_first_verdict_ms",
        "windows",
    ]
    assert sorted(metrics["fleet"]) == [
        "absorb_duplicates",
        "absorbs",
        "enabled",
        "records_new",
        "records_updated",
        "store",
    ]
