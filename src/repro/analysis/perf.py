"""Performance instrumentation for the analysis pipeline.

:class:`PerfStats` is a small, picklable accumulator the pipeline and the
classification engine thread through their stages: per-stage wall time,
classifier work counters (virtual-processor runs, synthesized originals,
fast-forwarded prefixes), verdict-cache hits/misses, and process-pool
utilization.  Workers fill one instance each and the engine merges them,
so the counters stay correct across a ``ProcessPoolExecutor`` fan-out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Set


@dataclass
class PerfStats:
    """Wall-time and work counters for one analysis run."""

    #: Worker processes requested (1 = serial in-process analysis).
    jobs: int = 1
    #: Wall seconds per pipeline stage (record/replay/detect/classify/...).
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Executions analysed.
    executions: int = 0
    #: Race instances classified (cache hits included).
    instances: int = 0
    #: Verdicts served from the memo cache.
    cache_hits: int = 0
    #: Verdicts that had to be computed.
    cache_misses: int = 0
    #: Virtual-processor region replays actually interpreted.
    vp_runs: int = 0
    #: Original-order replays synthesized from the recording.
    originals_synthesized: int = 0
    #: Alternative replays whose logged prefix was fast-forwarded.
    prefixes_fast_forwarded: int = 0
    #: Batches the batching classifier planned (groups of instances
    #: sharing a full structural key).
    classify_batches: int = 0
    #: Verdicts fanned out from a batch leader's replay to later members.
    batch_fanout: int = 0
    #: Batch members that replayed individually on live-in probe
    #: divergence (the correctness fallback).
    batch_fallbacks: int = 0
    #: Batch size -> number of batches of that size.
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    #: Verdicts spliced from an absorbed prior analysis (incremental).
    incremental_spliced: int = 0
    #: Portable verdict-index entries absorbed for splicing.
    incremental_absorbed: int = 0
    #: Tasks dispatched to the process pool (0 when serial).
    pool_tasks: int = 0
    #: Distinct worker processes that returned results.
    pool_workers: Set[int] = field(default_factory=set)
    #: Regions with plain accesses visited by the detect sweep.
    detect_regions: int = 0
    #: Overlapping, address-sharing region pairs the sweep examined.
    detect_pairs_examined: int = 0
    #: Region pairs the quadratic reference loop would have visited but
    #: the sweep line never touched.
    detect_pairs_pruned: int = 0
    #: Instructions retired by recording machines.
    record_steps: int = 0
    #: Access events (loads + stores) the recorder captured columnarly.
    record_events: int = 0
    #: Loads the recorder's prediction cache elided from the log.
    record_predicted_loads: int = 0
    #: Executions whose recording was served from the suite cache.
    record_cache_hits: int = 0
    #: Executions that had to be recorded (cache enabled but cold/stale).
    record_cache_misses: int = 0
    #: Threads replayed through the predecoded thread replayer.
    replay_threads_fast: int = 0
    #: ReplayedAccess objects materialized from columnar rows on demand.
    replay_accesses_materialized: int = 0
    #: Register snapshots reconstructed lazily (on first query).
    replay_snapshots_lazy: int = 0
    #: Ordered replays whose walk + index ran entirely off captured columns.
    replay_captured_handoffs: int = 0
    #: Detect passes served by the zero-replay log view (no thread replay,
    #: no ordered walk — regions and index straight from the log).
    detect_log_native: int = 0
    #: Streaming analyses run (detect --stream / analyze --stream /
    #: service stream jobs).
    stream_jobs: int = 0
    #: v4 segments fed through the streaming cursor.
    stream_segments: int = 0
    #: Sealed windows eager classification fired on.
    stream_windows: int = 0
    #: Wall seconds from stream start to the first classified verdict,
    #: summed over streaming analyses (divide by ``stream_jobs`` for the
    #: average; the service's ``/metrics`` surfaces it in ms).
    stream_first_verdict_s: float = 0.0
    #: v4 segments fanned out across the parallel detect pool.
    parallel_segments: int = 0
    #: Partition workers the fan-out dispatched (1 = inline, no pool).
    parallel_workers: int = 0
    #: Cross-boundary regions preloaded into a later worker's active set
    #: (each is a region still open at a partition cut).
    parallel_boundary_stitches: int = 0
    #: Wall seconds spent stitching and canonically ordering the merged
    #: race set in the parent.
    parallel_merge_s: float = 0.0
    #: Summed per-worker wall seconds (decode + sweep); across a real
    #: pool this exceeds the fan-out stage's wall time.
    parallel_worker_sweep_s: float = 0.0
    #: Job reports absorbed into the fleet triage store.
    fleet_absorbs: int = 0
    #: Absorb attempts skipped as duplicates (same job content key).
    fleet_absorb_duplicates: int = 0
    #: Fleet records created by absorbs.
    fleet_records_new: int = 0
    #: Existing fleet records that gained a contribution.
    fleet_records_updated: int = 0

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a pipeline stage; nested/repeated stages accumulate."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + elapsed

    def merge(self, other: "PerfStats") -> None:
        """Fold another accumulator (e.g. one worker's) into this one.

        Stage times add up: across pool workers they are CPU-seconds of
        work, not wall time — wall time belongs to the dispatching stage.
        """
        for name, seconds in other.stage_seconds.items():
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
        self.executions += other.executions
        self.instances += other.instances
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.vp_runs += other.vp_runs
        self.originals_synthesized += other.originals_synthesized
        self.prefixes_fast_forwarded += other.prefixes_fast_forwarded
        self.classify_batches += other.classify_batches
        self.batch_fanout += other.batch_fanout
        self.batch_fallbacks += other.batch_fallbacks
        for size, count in other.batch_sizes.items():
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + count
        self.incremental_spliced += other.incremental_spliced
        self.incremental_absorbed += other.incremental_absorbed
        self.pool_tasks += other.pool_tasks
        self.pool_workers |= other.pool_workers
        self.detect_regions += other.detect_regions
        self.detect_pairs_examined += other.detect_pairs_examined
        self.detect_pairs_pruned += other.detect_pairs_pruned
        self.record_steps += other.record_steps
        self.record_events += other.record_events
        self.record_predicted_loads += other.record_predicted_loads
        self.record_cache_hits += other.record_cache_hits
        self.record_cache_misses += other.record_cache_misses
        self.replay_threads_fast += other.replay_threads_fast
        self.replay_accesses_materialized += other.replay_accesses_materialized
        self.replay_snapshots_lazy += other.replay_snapshots_lazy
        self.replay_captured_handoffs += other.replay_captured_handoffs
        self.detect_log_native += other.detect_log_native
        self.stream_jobs += other.stream_jobs
        self.stream_segments += other.stream_segments
        self.stream_windows += other.stream_windows
        self.stream_first_verdict_s += other.stream_first_verdict_s
        self.parallel_segments += other.parallel_segments
        self.parallel_workers += other.parallel_workers
        self.parallel_boundary_stitches += other.parallel_boundary_stitches
        self.parallel_merge_s += other.parallel_merge_s
        self.parallel_worker_sweep_s += other.parallel_worker_sweep_s
        self.fleet_absorbs += other.fleet_absorbs
        self.fleet_absorb_duplicates += other.fleet_absorb_duplicates
        self.fleet_records_new += other.fleet_records_new
        self.fleet_records_updated += other.fleet_records_updated

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "PerfStats":
        """Rebuild an accumulator from :meth:`to_json` output.

        The inverse of :meth:`to_json` for every raw counter (derived
        rates are recomputed, not read back), so stats can cross process
        or HTTP boundaries as plain JSON and still :meth:`merge`
        losslessly — the analysis service's workers return their stats
        this way.  Unknown keys are ignored for forward compatibility;
        ``pool_workers`` is rebuilt from ``pool_worker_ids`` (the
        ``pool_workers`` key itself is the derived count).
        """
        stats = cls()
        derived = {
            "cache_hit_rate",
            "detect_prune_rate",
            "record_cache_hit_rate",
            "pool_workers",
            "pool_worker_ids",
            "stage_seconds",
            "batch_size_histogram",
        }
        for name, value in payload.items():
            if name in derived or not hasattr(stats, name):
                continue
            setattr(stats, name, value)
        stats.stage_seconds = {
            str(name): float(seconds)
            for name, seconds in dict(payload.get("stage_seconds") or {}).items()
        }
        stats.pool_workers = set(payload.get("pool_worker_ids") or ())
        # JSON object keys are strings; batch sizes are ints.
        stats.batch_sizes = {
            int(size): int(count)
            for size, count in dict(
                payload.get("batch_size_histogram") or {}
            ).items()
        }
        return stats

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of classified instances served from the verdict cache."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def pool_utilization(self) -> float:
        """Distinct workers used over workers requested."""
        return len(self.pool_workers) / self.jobs if self.jobs else 0.0

    @property
    def detect_prune_rate(self) -> float:
        """Fraction of the quadratic pair space the sweep never examined."""
        total = self.detect_pairs_examined + self.detect_pairs_pruned
        return self.detect_pairs_pruned / total if total else 0.0

    @property
    def record_cache_hit_rate(self) -> float:
        """Fraction of recordings served from the suite cache."""
        looked_up = self.record_cache_hits + self.record_cache_misses
        return self.record_cache_hits / looked_up if looked_up else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "pool_worker_ids": sorted(self.pool_workers),
            "stage_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.stage_seconds.items())
            },
            "executions": self.executions,
            "instances": self.instances,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "vp_runs": self.vp_runs,
            "originals_synthesized": self.originals_synthesized,
            "prefixes_fast_forwarded": self.prefixes_fast_forwarded,
            "classify_batches": self.classify_batches,
            "batch_fanout": self.batch_fanout,
            "batch_fallbacks": self.batch_fallbacks,
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_sizes.items())
            },
            "incremental_spliced": self.incremental_spliced,
            "incremental_absorbed": self.incremental_absorbed,
            "pool_tasks": self.pool_tasks,
            "pool_workers": len(self.pool_workers),
            "detect_regions": self.detect_regions,
            "detect_pairs_examined": self.detect_pairs_examined,
            "detect_pairs_pruned": self.detect_pairs_pruned,
            "detect_prune_rate": round(self.detect_prune_rate, 4),
            "record_steps": self.record_steps,
            "record_events": self.record_events,
            "record_predicted_loads": self.record_predicted_loads,
            "record_cache_hits": self.record_cache_hits,
            "record_cache_misses": self.record_cache_misses,
            "record_cache_hit_rate": round(self.record_cache_hit_rate, 4),
            "replay_threads_fast": self.replay_threads_fast,
            "replay_accesses_materialized": self.replay_accesses_materialized,
            "replay_snapshots_lazy": self.replay_snapshots_lazy,
            "replay_captured_handoffs": self.replay_captured_handoffs,
            "detect_log_native": self.detect_log_native,
            "stream_jobs": self.stream_jobs,
            "stream_segments": self.stream_segments,
            "stream_windows": self.stream_windows,
            "stream_first_verdict_s": round(self.stream_first_verdict_s, 6),
            "parallel_segments": self.parallel_segments,
            "parallel_workers": self.parallel_workers,
            "parallel_boundary_stitches": self.parallel_boundary_stitches,
            "parallel_merge_s": round(self.parallel_merge_s, 6),
            "parallel_worker_sweep_s": round(self.parallel_worker_sweep_s, 6),
            "fleet_absorbs": self.fleet_absorbs,
            "fleet_absorb_duplicates": self.fleet_absorb_duplicates,
            "fleet_records_new": self.fleet_records_new,
            "fleet_records_updated": self.fleet_records_updated,
        }

    def render(self) -> str:
        lines = ["analysis performance (jobs=%d)" % self.jobs]
        for name, seconds in sorted(self.stage_seconds.items()):
            lines.append("  %-12s %8.3f s" % (name, seconds))
        lines.append(
            "  %d executions, %d instances, %d VP runs" % (self.executions, self.instances, self.vp_runs)
        )
        lines.append(
            "  verdict cache: %d hits / %d misses (%.1f%% hit rate)"
            % (self.cache_hits, self.cache_misses, 100.0 * self.cache_hit_rate)
        )
        lines.append(
            "  replay reuse: %d originals synthesized, %d prefixes fast-forwarded"
            % (self.originals_synthesized, self.prefixes_fast_forwarded)
        )
        if self.classify_batches:
            largest = max(self.batch_sizes) if self.batch_sizes else 0
            lines.append(
                "  batching: %d batches (largest %d), %d fanned out, %d fallbacks"
                % (
                    self.classify_batches,
                    largest,
                    self.batch_fanout,
                    self.batch_fallbacks,
                )
            )
        if self.incremental_spliced or self.incremental_absorbed:
            lines.append(
                "  incremental: %d verdicts spliced from %d absorbed entries"
                % (self.incremental_spliced, self.incremental_absorbed)
            )
        if self.record_steps or self.record_cache_hits:
            lines.append(
                "  record: %d steps, %d access events, %d predicted loads elided"
                % (self.record_steps, self.record_events, self.record_predicted_loads)
            )
        if self.record_cache_hits or self.record_cache_misses:
            lines.append(
                "  record cache: %d hits / %d misses (%.1f%% hit rate)"
                % (
                    self.record_cache_hits,
                    self.record_cache_misses,
                    100.0 * self.record_cache_hit_rate,
                )
            )
        if self.replay_threads_fast or self.replay_captured_handoffs:
            lines.append(
                "  replay: %d threads, %d captured handoffs"
                % (self.replay_threads_fast, self.replay_captured_handoffs)
            )
            lines.append(
                "  replay lazy: %d accesses materialized, %d snapshots lazy"
                % (self.replay_accesses_materialized, self.replay_snapshots_lazy)
            )
        if self.detect_log_native:
            lines.append(
                "  detect: %d zero-replay (log-native) passes" % self.detect_log_native
            )
        if self.stream_segments or self.stream_jobs:
            lines.append(
                "  stream: %d jobs, %d segments, %d windows"
                % (self.stream_jobs, self.stream_segments, self.stream_windows)
            )
            if self.stream_jobs and self.stream_first_verdict_s:
                lines.append(
                    "  stream first verdict: %.3f s avg"
                    % (self.stream_first_verdict_s / self.stream_jobs)
                )
        if self.parallel_segments or self.parallel_workers:
            lines.append(
                "  parallel detect: %d segments over %d workers, %d boundary stitches"
                % (
                    self.parallel_segments,
                    self.parallel_workers,
                    self.parallel_boundary_stitches,
                )
            )
            lines.append(
                "  parallel detect time: %.3f s worker sweeps, %.3f s merge"
                % (self.parallel_worker_sweep_s, self.parallel_merge_s)
            )
        if self.fleet_absorbs or self.fleet_absorb_duplicates:
            lines.append(
                "  fleet: %d absorbed (%d duplicates skipped), %d records new / %d updated"
                % (
                    self.fleet_absorbs,
                    self.fleet_absorb_duplicates,
                    self.fleet_records_new,
                    self.fleet_records_updated,
                )
            )
        if self.detect_regions:
            lines.append(
                "  detect sweep: %d regions, %d pairs examined, %d pruned (%.1f%%)"
                % (
                    self.detect_regions,
                    self.detect_pairs_examined,
                    self.detect_pairs_pruned,
                    100.0 * self.detect_prune_rate,
                )
            )
        if self.pool_tasks:
            lines.append(
                "  pool: %d tasks over %d workers (%.0f%% of %d requested)"
                % (
                    self.pool_tasks,
                    len(self.pool_workers),
                    100.0 * self.pool_utilization,
                    self.jobs,
                )
            )
        return "\n".join(lines)
