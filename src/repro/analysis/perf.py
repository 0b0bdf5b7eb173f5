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
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Set


@dataclass
class PerfStats:
    """Wall-time and work counters for one analysis run.

    Each counter is declared once, here.  :meth:`merge` adds numbers,
    adds dicts key by key and unions sets; ``metadata`` ``keep`` skips a
    field, and ``json`` renames its key in :meth:`to_json`.  A counter
    ``--perf`` should show also needs a row in ``_RENDER``.
    """

    #: Worker processes requested (1 = serial); merge keeps the receiver's.
    jobs: int = field(default=1, metadata={"keep": True})
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
    #: Batches planned: groups of instances sharing a full structural key.
    classify_batches: int = 0
    #: Verdicts fanned out from a batch leader's replay to later members.
    batch_fanout: int = 0
    #: Batch members replayed alone after a live-in probe diverged.
    batch_fallbacks: int = 0
    #: Batch size -> number of batches of that size.
    batch_sizes: Dict[int, int] = field(
        default_factory=dict, metadata={"json": "batch_size_histogram"}
    )
    #: Verdicts spliced from an absorbed prior analysis (incremental).
    incremental_spliced: int = 0
    #: Portable verdict-index entries absorbed for splicing.
    incremental_absorbed: int = 0
    #: Tasks dispatched to the process pool (0 when serial).
    pool_tasks: int = 0
    #: Distinct worker processes that returned results (JSON: the sorted
    #: ``pool_worker_ids`` and their count as ``pool_workers``).
    pool_workers: Set[int] = field(
        default_factory=set, metadata={"json": "pool_worker_ids"}
    )
    #: Regions with plain accesses visited by the detect sweep.
    detect_regions: int = 0
    #: Overlapping, address-sharing region pairs the sweep examined.
    detect_pairs_examined: int = 0
    #: Region pairs a quadratic loop would visit that the sweep never touched.
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
    #: Detect passes whose regions and index came straight from the log.
    detect_log_native: int = 0
    #: Streaming analyses run (``repro analyze`` of a v4/v5 container and
    #: service stream jobs).
    stream_jobs: int = 0
    #: Segments fed through the streaming cursor.
    stream_segments: int = 0
    #: Sealed windows eager classification fired on.
    stream_windows: int = 0
    #: Wall seconds from stream start to the first classified verdict,
    #: summed over streaming analyses (``/metrics`` shows the average in ms).
    stream_first_verdict_s: float = 0.0
    #: Segments fanned out across the parallel detect pool.
    parallel_segments: int = 0
    #: Partition workers the fan-out dispatched (1 = inline, no pool).
    parallel_workers: int = 0
    #: Regions open at a partition cut, preloaded into the next worker.
    parallel_boundary_stitches: int = 0
    #: Wall seconds the parent spent stitching and ordering merged races.
    parallel_merge_s: float = 0.0
    #: Summed per-worker wall seconds (decode + sweep), not fan-out wall time.
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
        """Fold another accumulator (e.g. one worker's) into this one.  Stage
        times add up: across pool workers they are CPU-seconds of work, not
        wall time — wall time belongs to the dispatching stage."""
        for name, _, container, _, _ in _MERGED:
            mine, theirs = getattr(self, name), getattr(other, name)
            if container is dict:
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            elif container is set:
                mine |= theirs
            else:
                setattr(self, name, mine + theirs)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "PerfStats":
        """The inverse of :meth:`to_json`, so stats can cross process or
        HTTP boundaries as plain JSON and still :meth:`merge` losslessly
        (the service's workers return theirs this way).  Only the
        counters' JSON keys are read; any other key is ignored."""
        stats = cls()
        for name, key, container, key_type, value_type in _FIELDS:
            value = payload.get(key)
            if value is None:
                continue
            if container is dict:
                value = {key_type(k): value_type(v) for k, v in dict(value).items()}
            elif container is set:
                value = {value_type(v) for v in value}
            else:
                value = value_type(value)
            setattr(stats, name, value)
        return stats

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of classified instances served from the verdict cache."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def pool_utilization(self) -> float:
        """Distinct workers used over workers requested."""
        return self.pool_worker_count / self.jobs if self.jobs else 0.0

    @property
    def pool_worker_count(self) -> int:
        return len(self.pool_workers)

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

    @property
    def largest_batch(self) -> int:
        return max(self.batch_sizes, default=0)

    @property
    def stream_first_verdict_avg_s(self) -> float:
        """Average seconds to the first verdict over streaming analyses."""
        jobs = self.stream_jobs
        return self.stream_first_verdict_s / jobs if jobs else 0.0

    def to_json(self) -> Dict[str, object]:
        """Every counter under its JSON key, plus ``_JSON_RATES`` to 4
        places.  Floats keep 6 places, dict keys become sorted strings, and
        a set is written sorted, with its size under the field's name."""
        payload: Dict[str, object] = {}
        for name, key, container, _, _ in _FIELDS:
            value = getattr(self, name)
            if container is dict:
                value = {str(k): _rounded(v) for k, v in sorted(value.items())}
            elif container is set:
                payload[name] = len(value)
                value = sorted(value)
            else:
                value = _rounded(value)
            payload[key] = value
        for name in _JSON_RATES:
            payload[name] = round(getattr(self, name), 4)
        return payload

    def render(self) -> str:
        """The ``--perf`` text: stage times, then the ``_RENDER`` rows."""
        lines = ["%-12s %8.3f s" % item for item in sorted(self.stage_seconds.items())]
        for trigger, template in _RENDER:
            if not trigger or any(getattr(self, name) for name in trigger.split()):
                lines.extend(template.format(s=self).splitlines())
        return "\n  ".join(["analysis performance (jobs=%d)" % self.jobs] + lines)


def _shape(spec):
    """``(name, JSON key, container, key type, value type)`` of a counter;
    a scalar's container is ``None`` and its types are its annotation."""
    hint = _HINTS[spec.name]
    args = typing.get_args(hint) or (hint,)
    key = spec.metadata.get("json", spec.name)
    return spec.name, key, typing.get_origin(hint), args[0], args[-1]


def _rounded(value):
    return round(value, 6) if isinstance(value, float) else value


_HINTS = typing.get_type_hints(PerfStats)
_FIELDS = tuple(_shape(spec) for spec in fields(PerfStats))
_MERGED = tuple(_shape(s) for s in fields(PerfStats) if not s.metadata.get("keep"))

#: Derived rates that :meth:`PerfStats.to_json` also reports.
_JSON_RATES = ("cache_hit_rate", "detect_prune_rate", "record_cache_hit_rate")

#: The ``--perf`` rows after the stage times, in print order.  A row
#: prints when any attribute its trigger names is non-zero (an empty
#: trigger always prints).  Its template is formatted with the stats as
#: ``s``; each line it yields is one indented ``--perf`` line.
_RENDER = (
    ("", "{s.executions} executions, {s.instances} instances, {s.vp_runs} VP runs\n"
     "verdict cache: {s.cache_hits} hits / {s.cache_misses} misses"
     " ({s.cache_hit_rate:.1%} hit rate)\nreplay reuse: {s.originals_synthesized}"
     " originals synthesized, {s.prefixes_fast_forwarded} prefixes fast-forwarded"),
    ("classify_batches", "batching: {s.classify_batches} batches (largest"
     " {s.largest_batch}), {s.batch_fanout} fanned out, {s.batch_fallbacks} fallbacks"),
    ("incremental_spliced incremental_absorbed", "incremental:"
     " {s.incremental_spliced} verdicts spliced from {s.incremental_absorbed}"
     " absorbed entries"),
    ("record_steps record_cache_hits", "record: {s.record_steps} steps,"
     " {s.record_events} access events, {s.record_predicted_loads} predicted loads"
     " elided"),
    ("record_cache_hits record_cache_misses", "record cache: {s.record_cache_hits}"
     " hits / {s.record_cache_misses} misses ({s.record_cache_hit_rate:.1%} hit rate)"),
    ("replay_threads_fast replay_captured_handoffs", "replay:"
     " {s.replay_threads_fast} threads, {s.replay_captured_handoffs} captured"
     " handoffs\nreplay lazy: {s.replay_accesses_materialized} accesses"
     " materialized, {s.replay_snapshots_lazy} snapshots lazy"),
    ("detect_log_native", "detect: {s.detect_log_native} zero-replay (log-native)"
     " passes"),
    ("stream_segments stream_jobs", "stream: {s.stream_jobs} jobs,"
     " {s.stream_segments} segments, {s.stream_windows} windows"),
    ("stream_first_verdict_avg_s", "stream first verdict:"
     " {s.stream_first_verdict_avg_s:.3f} s avg"),
    ("parallel_segments parallel_workers", "parallel detect:"
     " {s.parallel_segments} segments over {s.parallel_workers} workers,"
     " {s.parallel_boundary_stitches} boundary stitches\nparallel detect time:"
     " {s.parallel_worker_sweep_s:.3f} s worker sweeps, {s.parallel_merge_s:.3f} s"
     " merge"),
    ("fleet_absorbs fleet_absorb_duplicates", "fleet: {s.fleet_absorbs} absorbed"
     " ({s.fleet_absorb_duplicates} duplicates skipped), {s.fleet_records_new}"
     " records new / {s.fleet_records_updated} updated"),
    ("detect_regions", "detect sweep: {s.detect_regions} regions,"
     " {s.detect_pairs_examined} pairs examined, {s.detect_pairs_pruned} pruned"
     " ({s.detect_prune_rate:.1%})"),
    ("pool_tasks", "pool: {s.pool_tasks} tasks over {s.pool_worker_count} workers"
     " ({s.pool_utilization:.0%} of {s.jobs} requested)"),
)
