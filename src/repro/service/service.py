"""The analysis service facade: store + queue + pool behind one object.

:class:`AnalysisService` is what the HTTP layer (and tests) talk to.  It
owns the journaled :class:`~repro.service.jobs.JobStore`, the bounded
sharded :class:`~repro.service.queue.BoundedJobQueue` and the
:class:`~repro.service.workers.ShardedWorkerPool`, and implements the
admission protocol:

1. compute the job's content key (the SuiteCache content hash for
   workload jobs);
2. if a live job with that key exists — queued, running, or done —
   return it (idempotent submission, no queue slot consumed);
3. otherwise journal the job (state queued) and only then publish its
   queue entry, so a shard that pops the id always finds a runnable
   job; if the bounded queue rejects, the journaled admission is
   rolled back and the client sees pure backpressure (429).

On :meth:`start`, jobs recovered from the journal (queued at crash time,
or running — re-queued by the store) are re-enqueued before workers
begin, so a restarted server picks up exactly where it died without
duplicating finished work.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.perf import PerfStats
from ..fleet import FleetStore, SuppressionRule
from ..race.model import static_key_from_text
from ..record.serialization import load_log_bytes, load_log_sections_bytes
from ..workloads.suite import all_workloads
from .config import ServiceConfig
from .jobs import Job, JobSpec, JobState, JobStore, content_key_for
from .queue import BoundedJobQueue, QueueClosed, QueueFull
from .workers import ShardedWorkerPool


class UnknownWorkloadError(ValueError):
    """The submitted workload name is not in the suite registry."""


class BadLogError(ValueError):
    """The uploaded bytes do not decode as a replay log."""


class AnalysisService:
    """One deployment of the replay-analysis service."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        runner: Optional[Callable[[dict], dict]] = None,
    ):
        self.config = config or ServiceConfig()
        if self.config.journal_path:
            self.store = JobStore.open(self.config.journal_path)
        else:
            self.store = JobStore()
        self.queue = BoundedJobQueue(
            self.config.queue_capacity, self.config.effective_shards()
        )
        self.fleet: Optional[FleetStore] = (
            FleetStore.open(self.config.fleet_dir)
            if self.config.fleet_dir
            else None
        )
        self._fleet_lock = threading.Lock()
        self._fleet_perf = PerfStats()
        self.pool = ShardedWorkerPool(
            self.config,
            self.store,
            self.queue,
            runner=runner,
            on_done=self._absorb_job if self.fleet is not None else None,
        )
        self.workloads = all_workloads()
        self.started_at = time.monotonic()
        self.recovered_jobs = 0
        self._started = False

    # -- lifecycle ------------------------------------------------------

    def start(self, workers: bool = True) -> "AnalysisService":
        """Re-enqueue journal-recovered jobs, then start the pool.

        ``workers=False`` brings the service up without dispatch threads
        — submissions queue but nothing runs (tests use this to pin jobs
        in the queue; a later ``start()`` call can attach workers).
        """
        if not self._started:
            for job in self.store.pending():
                self.queue.put(
                    job.job_id,
                    self.shard_for(job.content_key),
                    priority=job.priority,
                    force=True,
                )
                if job.recovered:
                    self.recovered_jobs += 1
            # Fleet heal: re-absorb every finished job's verdicts.  A
            # crash between a job's DONE journal write and its fleet
            # absorb would otherwise lose the aggregates; absorption is
            # idempotent on the content key, so the common case — all
            # already absorbed — is a no-op.
            if self.fleet is not None:
                for job in self.store.finished():
                    self._absorb_job(job)
            self._started = True
        if workers:
            self.pool.start()
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        self.pool.shutdown(drain=drain, timeout=timeout)
        self.store.close()
        if self.fleet is not None:
            self.fleet.close()

    # -- submission ------------------------------------------------------

    def shard_for(self, content_key: str) -> int:
        return int(content_key[:8], 16) % self.config.effective_shards()

    def _admit(self, spec: JobSpec, content_key: str, priority: int) -> Tuple[Job, bool]:
        # Journal first, enqueue second: the queue entry is published
        # only once the job exists in the store (state QUEUED), so a
        # shard thread that pops the id always resolves it to runnable
        # work.  The store lock is held across the non-blocking put so
        # concurrent duplicate submissions stay idempotent; a queue
        # rejection rolls the journaled admission back before the
        # client sees the 429.
        with self.store._lock:
            existing = self.store.by_content_key(content_key)
            prior_state = prior_error = None
            if existing is not None:
                if existing.state not in (JobState.FAILED, JobState.CANCELLED):
                    return existing, False
                prior_state, prior_error = existing.state, existing.error
            job, created = self.store.submit(spec, content_key, priority=priority)
            try:
                self.queue.put(
                    job.job_id, self.shard_for(content_key), priority=priority
                )
            except (QueueFull, QueueClosed):
                self.store.rollback_submit(job.job_id, prior_state, prior_error)
                raise
            return job, created

    @staticmethod
    def _check_mode(mode: str) -> str:
        if mode not in ("full", "detect"):
            raise ValueError(
                "unknown job mode %r (expected 'full' or 'detect')" % mode
            )
        return mode

    def submit_workload(
        self,
        name: str,
        seed: int = 0,
        switch_probability: float = 0.3,
        priority: int = 0,
        mode: str = "full",
    ) -> Tuple[Job, bool]:
        """Submit a record-and-analyse job for a named suite workload.

        ``mode="detect"`` stops the pipeline after detection (no
        classification); the detect stage runs zero-replay from the
        fresh recording's captured columns.
        """
        workload = self.workloads.get(name)
        if workload is None:
            raise UnknownWorkloadError(
                "unknown workload %r (have: %s)"
                % (name, ", ".join(sorted(self.workloads)))
            )
        spec = JobSpec.for_workload(
            name,
            seed=seed,
            switch_probability=switch_probability,
            mode=self._check_mode(mode),
        )
        key = content_key_for(
            spec,
            workload,
            self.config.max_steps,
            self.config.capture_global_order,
            self.config.max_pairs_per_location,
        )
        return self._admit(spec, key, priority)

    def submit_log(
        self, data: bytes, priority: int = 0, mode: str = "full"
    ) -> Tuple[Job, bool]:
        """Submit an uploaded replay log (binary container or JSON).

        The upload picks the path in either mode.  ``mode="full"`` (the
        default) runs the whole funnel as ``repro analyze`` does: a v4
        or v5 container with captured columns streams, with eager
        per-window classification; any other log takes the batch pass.
        ``mode="detect"`` runs detection only
        (:func:`repro.analysis.pipeline.detect_only`): a v4 or v5
        container streams, another log with captured columns takes the
        zero-replay from-log path, anything else replays.

        Admission validates binary containers through the sectioned
        reader (header + sequencer + captured framing) rather than a
        full decode — large uploads are admitted without materializing
        every load/syscall array; deep corruption there surfaces as a
        job failure rather than a submission error.  JSON containers
        still validate by full decode.  Only a :class:`ValueError` — what
        every decoder raises for bytes that are not a log — becomes a
        :class:`BadLogError`; anything else is a server fault.
        """
        mode = self._check_mode(mode)
        try:
            if load_log_sections_bytes(data) is None:
                load_log_bytes(data)
        except ValueError as error:  # LogFormatError, JSON and UTF-8 errors
            raise BadLogError("undecodable replay log: %s" % error)
        spec = JobSpec.for_log(data, mode=mode)
        key = content_key_for(
            spec,
            None,
            self.config.max_steps,
            self.config.capture_global_order,
            self.config.max_pairs_per_location,
        )
        return self._admit(spec, key, priority)

    # -- queries ---------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        return self.store.get(job_id)

    def report_bytes(self, job_id: str) -> Optional[bytes]:
        """The canonical rendering of a finished job's report."""
        from ..analysis.pipeline import render_report

        job = self.store.get(job_id)
        if job is None or job.report is None:
            return None
        return render_report(job.report)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued job; running/finished jobs are left alone.

        Returns the job (whatever its state), or None if unknown.  The
        queue entry is lazily discarded: the shard loop skips any popped
        job whose state is no longer ``queued``.
        """
        with self.store._lock:
            job = self.store.get(job_id)
            if job is None:
                return None
            if job.state is JobState.QUEUED:
                self.store.mark_cancelled(job_id)
            return job

    # -- fleet triage store ----------------------------------------------

    def _absorb_job(self, job: Job) -> None:
        """Fold one finished job's report into the fleet store.

        Runs on the shard thread right before the DONE transition (and
        again at startup for heal).  Idempotent on the job's content
        key, so double absorption — two instances sharing the store,
        or a heal re-walking already-absorbed jobs — converges.  Any
        failure is swallowed: triage bookkeeping never fails a job.
        """
        if self.fleet is None or job.report is None:
            return
        try:
            with self._fleet_lock:
                self.fleet.absorb_report(
                    job.report,
                    job.content_key,
                    observed_at=round(time.time(), 3),
                    perf=self._fleet_perf,
                )
        except Exception:  # noqa: BLE001 - best-effort bookkeeping
            pass

    def _require_fleet(self) -> FleetStore:
        if self.fleet is None:
            raise ValueError(
                "fleet store not configured (start serve with --fleet-dir)"
            )
        return self.fleet

    def fleet_report(
        self, include_suppressed: bool = False, limit: Optional[int] = None
    ) -> Dict:
        return self._require_fleet().report_document(
            include_suppressed=include_suppressed, limit=limit, now=time.time()
        )

    def fleet_report_bytes(
        self, include_suppressed: bool = False, limit: Optional[int] = None
    ) -> bytes:
        return self._require_fleet().report_bytes(
            include_suppressed=include_suppressed, limit=limit, now=time.time()
        )

    def fleet_record(self, record_id: str) -> Optional[Dict]:
        return self._require_fleet().record_document(record_id, now=time.time())

    def fleet_suppressions(self) -> List[Dict]:
        return [
            dict(rule.to_json(), rule_id=rule.rule_id)
            for rule in self._require_fleet().suppression_rules()
        ]

    def suppress_race(
        self,
        race: str,
        digest: str = "",
        reason: str = "",
        created_by: str = "",
        ttl_s: Optional[float] = None,
    ) -> str:
        """Persist a suppression rule; returns its id.

        ``digest`` narrows the rule to one region-content variant
        (scope ``exact``); empty suppresses the whole static race.
        """
        static_key_from_text(race)  # validate the key shape up front
        now = time.time()
        rule = SuppressionRule(
            scope="exact" if digest else "race",
            race=race,
            digest=digest,
            reason=reason,
            created_by=created_by,
            created_at=round(now, 3),
            expires_at=round(now + ttl_s, 3) if ttl_s is not None else None,
        )
        return self._require_fleet().suppress(rule)

    def unsuppress_race(self, rule_id: str) -> bool:
        return self._require_fleet().unsuppress(rule_id)

    def metrics(self) -> Dict:
        """The ``GET /metrics`` document (field reference in docs).

        Perf and counters are snapshotted under the pool's metrics lock
        (and queue stats under the queue lock) so a concurrent
        ``_merge_result`` cannot mutate them mid-serialization.
        """
        uptime = max(time.monotonic() - self.started_at, 1e-9)
        pool = self.pool.perf_snapshot()
        return {
            "uptime_s": round(uptime, 3),
            "queue": self.queue.stats(),
            "jobs": self.store.counts(),
            "recovered_jobs": self.recovered_jobs,
            "throughput_jobs_per_s": round(pool["completed"] / uptime, 4),
            "pool": self.pool.metrics_json(),
            "verdict_cache_hit_rate": round(pool["verdict_cache_hit_rate"], 4),
            "record_cache_hit_rate": round(pool["record_cache_hit_rate"], 4),
            "perf": pool["perf"],
            "classify_batching": self._batching_metrics(pool["perf"]),
            "stream": self._stream_metrics(pool["perf"]),
            "fleet": self._fleet_metrics(),
            "latency_histograms_s": self.pool.histograms.to_json(),
        }

    def _fleet_metrics(self) -> Dict:
        """Fleet-store counters for ``GET /metrics``.

        Store counts come from the shared store (so they reflect every
        instance's absorbs); absorb counters are this instance's own.
        """
        if self.fleet is None:
            return {"enabled": False}
        with self._fleet_lock:
            absorbs = self._fleet_perf.fleet_absorbs
            duplicates = self._fleet_perf.fleet_absorb_duplicates
            records_new = self._fleet_perf.fleet_records_new
            records_updated = self._fleet_perf.fleet_records_updated
        try:
            store = self.fleet.counts()
        except Exception:  # noqa: BLE001 - metrics must not fail
            store = {}
        return {
            "enabled": True,
            "store": store,
            "absorbs": absorbs,
            "absorb_duplicates": duplicates,
            "records_new": records_new,
            "records_updated": records_updated,
        }

    @staticmethod
    def _batching_metrics(perf: Dict) -> Dict:
        """Batched-classification counters, lifted out of the perf dump.

        Triage dashboards watch these without parsing the whole perf
        document: how many batches ran, how many verdicts fanned out for
        free, how many members fell back to a private replay, and how
        much incremental splicing saved on resubmissions.
        """
        return {
            "batches": perf.get("classify_batches", 0),
            "fanout": perf.get("batch_fanout", 0),
            "fallbacks": perf.get("batch_fallbacks", 0),
            "incremental_spliced": perf.get("incremental_spliced", 0),
            "incremental_absorbed": perf.get("incremental_absorbed", 0),
            "batch_size_histogram": perf.get("batch_size_histogram", {}) or {},
        }

    @staticmethod
    def _stream_metrics(perf: Dict) -> Dict:
        """Streaming-pipeline counters, lifted out of the perf dump.

        ``stream_first_verdict_ms`` is the headline number — average wall
        milliseconds from job start to the first classified verdict,
        across every full job that streamed (a v4/v5 upload) on this
        deployment.  Segment and window counts size the streaming work
        (how many sealed segments were swept, how many windows fired
        eager classification).
        """
        jobs = perf.get("stream_jobs", 0)
        total_ms = perf.get("stream_first_verdict_s", 0.0) * 1000.0
        return {
            "jobs": jobs,
            "segments": perf.get("stream_segments", 0),
            "windows": perf.get("stream_windows", 0),
            "stream_first_verdict_ms": (
                round(total_ms / jobs, 3) if jobs else 0.0
            ),
            "first_verdict_ms_total": round(total_ms, 3),
        }

    def health(self) -> Dict:
        return {
            "status": "ok",
            "uptime_s": round(max(time.monotonic() - self.started_at, 0.0), 3),
            "shards": self.config.effective_shards(),
            "mode": self.pool.mode,
        }
