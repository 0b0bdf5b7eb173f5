"""Sharded worker pool: long-lived analysis workers behind the job queue.

Each *shard* owns one dispatch thread and (in process mode) one
single-worker ``ProcessPoolExecutor`` whose process lives for the whole
service: the worker initializer builds a
:class:`repro.analysis.engine.ClassificationEngine` once, so its verdict
cache and the shared :class:`repro.analysis.cache.SuiteCache` stay warm
across every job the shard is handed.  Jobs are routed to shards by
content hash (see :mod:`.queue`), which is what makes the cache reuse
systematic rather than accidental.

The shard thread enforces the per-attempt timeout (``future.result``
with a deadline; a stuck worker process is recycled), applies the
retry-with-backoff policy by re-inserting delayed queue entries, and
merges each job's returned :class:`~repro.analysis.perf.PerfStats` JSON
— stats cross the process boundary as plain dicts via
``PerfStats.from_json`` — into the pool-wide accumulator and the
per-stage latency histograms that ``GET /metrics`` reports.

``pool_size == 0`` runs jobs inline on the shard threads (no processes):
the same code path minus the executor, used by tests and available for
debugging.  Shutdown is graceful by default: the queue closes, every
shard finishes what is queued (drain), then executors stop.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from ..analysis.perf import PerfStats
from .config import ServiceConfig
from .jobs import Job, JobState, JobStore
from .queue import BoundedJobQueue, QueueClosed, QueueFull

#: Fixed log-scale bucket upper bounds (seconds) for latency histograms.
HISTOGRAM_BOUNDS_S = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
    0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
)


class LatencyHistograms:
    """Per-stage latency histograms over fixed log-scale buckets.

    One histogram per pipeline stage (record/replay/detect/classify)
    plus ``total`` for whole-job wall time; the final bucket is
    unbounded.  Thread-safe; rendered into ``GET /metrics``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, List[int]] = {}
        self._totals: Dict[str, float] = {}

    def observe(self, stage: str, seconds: float) -> None:
        with self._lock:
            counts = self._counts.setdefault(
                stage, [0] * (len(HISTOGRAM_BOUNDS_S) + 1)
            )
            bucket = len(HISTOGRAM_BOUNDS_S)
            for index, bound in enumerate(HISTOGRAM_BOUNDS_S):
                if seconds <= bound:
                    bucket = index
                    break
            counts[bucket] += 1
            self._totals[stage] = self._totals.get(stage, 0.0) + seconds

    def to_json(self) -> Dict[str, dict]:
        with self._lock:
            return {
                stage: {
                    "bounds_s": list(HISTOGRAM_BOUNDS_S),
                    "counts": list(counts),
                    "observations": sum(counts),
                    "total_s": round(self._totals.get(stage, 0.0), 6),
                }
                for stage, counts in sorted(self._counts.items())
            }


# ----------------------------------------------------------------------
# Worker-process side.  One engine per process, alive for the process's
# lifetime; jobs arrive as plain dicts and results leave as plain dicts.
# ----------------------------------------------------------------------

#: Per-thread worker context.  In a pool worker process the initializer
#: and every task run on the same (main) thread, so this is effectively
#: process-global there; in inline mode each shard thread lazily builds
#: its own engine, so shards never share an unsynchronized engine.
_WORKER_TLS = threading.local()


def _worker_init(config_dict: dict) -> None:
    from ..analysis.engine import ClassificationEngine, EngineConfig

    config = ServiceConfig.from_dict(config_dict)
    engine = ClassificationEngine(
        EngineConfig(
            max_pairs_per_location=config.max_pairs_per_location,
            max_steps=config.max_steps,
            capture_global_order=config.capture_global_order,
            cache_dir=config.cache_dir,
            incremental=config.incremental,
        )
    )
    _WORKER_TLS.context = {"config": config, "engine": engine}


def run_job_payload(payload: dict) -> dict:
    """Execute one job in the current process and return its result.

    The single entry point both execution modes share: pool workers call
    it via :func:`_pooled_run` after :func:`_worker_init`; inline mode
    calls it directly (initializing a per-thread context on first use).
    Returns ``{"report", "perf", "elapsed_s"}``; analysis failures
    propagate as exceptions (picklable — they carry only the message).
    """
    context = getattr(_WORKER_TLS, "context", None)
    if context is None:
        _worker_init(payload.get("config", ServiceConfig().to_dict()))
        context = _WORKER_TLS.context
    config: ServiceConfig = context["config"]
    engine = context["engine"]

    from ..analysis.pipeline import execution_report
    from ..workloads.suite import all_workloads

    stats = PerfStats()
    started = time.monotonic()
    mode = payload.get("mode", "full")
    if mode == "detect":
        report = _run_detect_only(payload, context, stats)
        elapsed = time.monotonic() - started
        stats.pool_workers.add(os.getpid())
        return {"report": report, "perf": stats.to_json(), "elapsed_s": elapsed}
    # Any other mode runs the whole funnel: "full", and "stream" from a
    # journal written while that was still a job mode.
    if payload["kind"] == "workload":
        registry = context.setdefault("workloads", all_workloads())
        workload = registry.get(payload["workload"])
        if workload is None:
            raise ValueError("unknown workload: %r" % payload["workload"])
        from .jobs import JobSpec

        spec = JobSpec.for_workload(
            payload["workload"],
            seed=payload["seed"],
            switch_probability=payload["switch_probability"],
        )
        analysis = engine.analyze_execution(spec.execution(workload), perf=stats)
    else:
        # The upload picks the path, as in `repro analyze`: a v4/v5
        # container with captured columns streams, any other log takes
        # the batch pass.  engine.analyze_log (rather than the bare
        # pipeline) gives log jobs the incremental path: on a dedup
        # near-miss resubmission the worker splices verdicts from the
        # program's persisted verdict index and replays only
        # content-changed instances.
        analysis = engine.analyze_log(payload["log_data"], perf=stats)
    report = execution_report(analysis)
    elapsed = time.monotonic() - started
    stats.pool_workers.add(os.getpid())
    return {"report": report, "perf": stats.to_json(), "elapsed_s": elapsed}


def _run_detect_only(payload: dict, context: dict, stats: PerfStats) -> dict:
    """Detect-only jobs: stop after detection, zero-replay when possible.

    Log jobs feed the raw upload straight to
    :func:`~repro.analysis.pipeline.detect_only` — a v3 container with
    captured columns never replays a single instruction.  Workload jobs
    record the execution first (that part is irreducible), then detect
    from the fresh recording's captured columns.
    """
    from ..analysis.pipeline import detect_only, detection_report

    config: ServiceConfig = context["config"]
    if payload["kind"] == "workload":
        from ..record.recorder import record_run
        from ..vm.scheduler import RandomScheduler
        from ..workloads.suite import all_workloads

        registry = context.setdefault("workloads", all_workloads())
        workload = registry.get(payload["workload"])
        if workload is None:
            raise ValueError("unknown workload: %r" % payload["workload"])
        with stats.stage("record"):
            _, log = record_run(
                workload.program(),
                scheduler=RandomScheduler(
                    seed=payload["seed"],
                    switch_probability=payload["switch_probability"],
                ),
                seed=payload["seed"],
                max_steps=config.max_steps,
                capture_global_order=config.capture_global_order,
            )
        analysis = detect_only(
            log,
            execution_id="%s#s%d" % (payload["workload"], payload["seed"]),
            max_pairs_per_location=config.max_pairs_per_location,
            perf=stats,
        )
    else:
        # The upload picks the detect path, as in `repro detect`.
        analysis = detect_only(
            payload["log_data"],
            max_pairs_per_location=config.max_pairs_per_location,
            perf=stats,
        )
    return detection_report(analysis)


def _pooled_run(payload: dict) -> dict:
    return run_job_payload(payload)


# ----------------------------------------------------------------------
# Service-process side.
# ----------------------------------------------------------------------


class ShardedWorkerPool:
    """Shard threads + per-shard worker processes draining the queue."""

    def __init__(
        self,
        config: ServiceConfig,
        store: JobStore,
        queue: BoundedJobQueue,
        runner: Optional[Callable[[dict], dict]] = None,
        on_done: Optional[Callable[[Job], None]] = None,
    ):
        self.config = config
        self.store = store
        self.queue = queue
        #: Test hook: run payloads through this callable instead of the
        #: executor/inline machinery (exceptions = job failures).
        self._runner = runner
        #: Called with each finished job and its report right before its
        #: DONE transition (the service's fleet-absorb hook).  Failures
        #: are swallowed: absorption must never fail the job.
        self._on_done = on_done
        self.shards = config.effective_shards()
        self._executors: List[Optional[ProcessPoolExecutor]] = [None] * self.shards
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._metrics_lock = threading.Lock()
        self.perf = PerfStats(jobs=self.shards)
        self.histograms = LatencyHistograms()
        self.completed = 0
        self.failed = 0
        self.retries = 0
        self.timeouts = 0
        self._running_jobs = 0

    @property
    def mode(self) -> str:
        if self._runner is not None:
            return "injected"
        return "process" if self.config.pool_size > 0 else "inline"

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        for shard in range(self.shards):
            thread = threading.Thread(
                target=self._shard_loop,
                args=(shard,),
                name="repro-shard-%d" % shard,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool.

        ``drain=True`` (graceful): close the queue to new work, let every
        shard finish everything already queued (including delayed
        retries), then stop.  ``drain=False``: stop dispatching after
        the in-flight attempts finish; whatever stays queued remains
        journaled as queued and is recovered on restart.
        """
        if not drain:
            self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        for shard, executor in enumerate(self._executors):
            if executor is not None:
                executor.shutdown(wait=drain, cancel_futures=True)
                self._executors[shard] = None

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and nothing is running."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._metrics_lock:
                busy = self._running_jobs
            if self.queue.is_empty() and busy == 0:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.01)

    # -- the shard loop -------------------------------------------------

    def _shard_loop(self, shard: int) -> None:
        while not self._stop.is_set():
            try:
                job_id = self.queue.get(shard, timeout=0.2)
            except QueueClosed:
                break
            if job_id is None:
                continue
            job = self.store.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue  # cancelled (or duplicate queue entry) — skip
            self._run_one(shard, job)

    def _payload_for(self, job: Job) -> dict:
        spec = job.spec
        if spec.kind == "workload":
            return {
                "kind": "workload",
                "workload": spec.workload,
                "seed": spec.seed,
                "switch_probability": spec.switch_probability,
                "mode": spec.mode,
                "config": self.config.to_dict(),
            }
        return {
            "kind": "log",
            "log_data": spec.log_data,
            "mode": spec.mode,
            "config": self.config.to_dict(),
        }

    def _execute(self, shard: int, payload: dict) -> dict:
        if self._runner is not None:
            return self._runner(payload)
        if self.config.pool_size <= 0:
            return run_job_payload(payload)
        executor = self._executors[shard]
        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_worker_init,
                initargs=(self.config.to_dict(),),
            )
            self._executors[shard] = executor
        future = executor.submit(_pooled_run, payload)
        try:
            return future.result(timeout=self.config.job_timeout_s)
        except FutureTimeoutError:
            # The worker process is wedged on this job; recycle the
            # shard's executor so the next job gets a fresh process.
            self._recycle_executor(shard)
            raise TimeoutError(
                "job exceeded %.1fs timeout" % self.config.job_timeout_s
            )

    def _recycle_executor(self, shard: int) -> None:
        executor = self._executors[shard]
        self._executors[shard] = None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass

    def _run_one(self, shard: int, job: Job) -> None:
        self.store.mark_running(job.job_id)
        with self._metrics_lock:
            self._running_jobs += 1
        # The running count drops only after the terminal transition
        # (mark_done / mark_failed / requeue) is journaled, so drain()
        # returning True means every finished job's report is visible.
        try:
            try:
                result = self._execute(shard, self._payload_for(job))
            except Exception as error:  # noqa: BLE001 - any failure is the job's
                self._handle_failure(shard, job, error)
                return
            if self._on_done is not None:
                # Before the DONE transition, so that a client which sees
                # the job done also sees its absorb.  Absorption is
                # idempotent, so a crash in between absorbs nothing twice.
                try:
                    self._on_done(replace(job, report=result["report"]))
                except Exception:  # noqa: BLE001 - absorption never fails the job
                    pass
            self.store.mark_done(
                job.job_id,
                result["report"],
                perf=result.get("perf"),
                elapsed_s=result.get("elapsed_s"),
            )
            self._merge_result(result)
        finally:
            with self._metrics_lock:
                self._running_jobs -= 1

    def _handle_failure(self, shard: int, job: Job, error: Exception) -> None:
        message = "%s: %s" % (type(error).__name__, error)
        if isinstance(error, TimeoutError):
            with self._metrics_lock:
                self.timeouts += 1
        if self.config.retry.should_retry(job.attempts):
            delay = self.config.retry.backoff_s(job.attempts)
            self.store.mark_requeued(job.job_id, error=message)
            try:
                self.queue.put(
                    job.job_id,
                    shard,
                    priority=job.priority,
                    not_before=time.monotonic() + delay,
                )
            except (QueueFull, QueueClosed):
                self.store.mark_failed(
                    job.job_id, message + " (retry rejected: queue unavailable)"
                )
                with self._metrics_lock:
                    self.failed += 1
                return
            with self._metrics_lock:
                self.retries += 1
            return
        self.store.mark_failed(job.job_id, message)
        with self._metrics_lock:
            self.failed += 1

    # -- metrics --------------------------------------------------------

    def _merge_result(self, result: dict) -> None:
        perf_json = result.get("perf") or {}
        stats = PerfStats.from_json(perf_json)
        with self._metrics_lock:
            self.completed += 1
            self.perf.merge(stats)
        for stage, seconds in (perf_json.get("stage_seconds") or {}).items():
            self.histograms.observe(stage, float(seconds))
        if result.get("elapsed_s") is not None:
            self.histograms.observe("total", float(result["elapsed_s"]))

    def perf_snapshot(self) -> dict:
        """A consistent copy of pool-wide perf for ``/metrics``.

        Serialized under the metrics lock so a concurrent
        :meth:`_merge_result` cannot mutate the stats dicts while they
        are being iterated.
        """
        with self._metrics_lock:
            return {
                "completed": self.completed,
                "perf": self.perf.to_json(),
                "verdict_cache_hit_rate": self.perf.cache_hit_rate,
                "record_cache_hit_rate": self.perf.record_cache_hit_rate,
            }

    def metrics_json(self) -> dict:
        with self._metrics_lock:
            return {
                "mode": self.mode,
                "shards": self.shards,
                "pool_size": self.config.pool_size,
                "running": self._running_jobs,
                "completed": self.completed,
                "failed": self.failed,
                "retries": self.retries,
                "timeouts": self.timeouts,
            }
