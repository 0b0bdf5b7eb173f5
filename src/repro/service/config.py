"""Configuration of the analysis service.

One :class:`ServiceConfig` describes a whole deployment: the worker pool
(size, shard count, process vs in-thread execution), the admission queue
(capacity — the backpressure bound), per-job execution policy (timeout,
retry/backoff), persistence (job journal, record-cache directory) and the
HTTP endpoint.  The CLI's ``repro serve`` builds one from flags; tests
build small ones directly.

Everything here must pickle cheaply: the config (as a dict) is shipped to
every pool worker process at initialization, the same way
:class:`repro.analysis.engine.EngineConfig` travels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed or timed-out job is retried.

    ``max_attempts`` counts the first run: 1 means never retry.  The
    delay before attempt ``n+1`` is ``backoff_base_s * backoff_factor**
    (n-1)``, capped at ``backoff_cap_s`` — exponential backoff with a
    deterministic schedule (no jitter: the service is single-host, and
    determinism keeps tests exact).
    """

    max_attempts: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 5.0

    def backoff_s(self, attempt: int) -> float:
        """Delay before re-queueing after failed attempt ``attempt`` (1-based)."""
        delay = self.backoff_base_s * (self.backoff_factor ** max(attempt - 1, 0))
        return min(delay, self.backoff_cap_s)

    def should_retry(self, attempt: int) -> bool:
        """True when failed attempt ``attempt`` (1-based) may run again."""
        return attempt < self.max_attempts


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one analysis-service deployment is parameterized by."""

    host: str = "127.0.0.1"
    port: int = 8422

    #: Worker processes.  0 runs jobs inline on the shard threads —
    #: no process pool, useful for tests and debugging; >= 1 gives each
    #: shard its own long-lived worker process.
    pool_size: int = 2
    #: Queue/dispatch shards.  Jobs are routed to a shard by content
    #: hash, so identical and structurally similar work lands on the
    #: same worker and reuses its verdict cache.  Defaults to
    #: ``max(pool_size, 1)`` when 0.
    shards: int = 0

    #: Admission-queue capacity; submissions beyond it are rejected
    #: (HTTP 429), never buffered unboundedly.
    queue_capacity: int = 64
    #: Wall-clock budget of one job attempt, seconds.
    job_timeout_s: float = 120.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    #: Append-only JSON-lines job journal; None keeps jobs in memory only
    #: (no crash recovery).
    journal_path: Optional[str] = None
    #: Content-addressed record cache shared by all workers
    #: (:class:`repro.analysis.cache.SuiteCache`); None disables it.
    cache_dir: Optional[str] = None
    #: Fleet triage store directory (:class:`repro.fleet.FleetStore`);
    #: completed jobs' verdicts are absorbed into it and served from
    #: ``GET /races``.  May be shared by several service instances —
    #: the store's advisory file lock arbitrates.  None disables fleet
    #: absorption and the fleet endpoints.
    fleet_dir: Optional[str] = None

    #: Analysis knobs, mirroring :func:`repro.analysis.pipeline.analyze_execution`.
    max_pairs_per_location: Optional[int] = 256
    max_steps: int = 200_000
    capture_global_order: bool = True
    #: Splice verdicts from the persisted per-program verdict index on
    #: resubmissions (requires ``cache_dir``); dedup near-miss jobs then
    #: replay only content-changed instances.
    incremental: bool = True

    def effective_shards(self) -> int:
        return self.shards if self.shards > 0 else max(self.pool_size, 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        data = dict(data)
        retry = data.get("retry")
        if isinstance(retry, dict):
            data["retry"] = RetryPolicy(**retry)
        return cls(**data)
