"""Persistent job store: states, idempotent submission, crash recovery.

A *job* is one unit of analysis work: either a suite workload to record
and analyse (``workload`` jobs, named into the labelled corpus) or an
uploaded replay log to analyse (``log`` jobs).  Jobs move through::

    queued ──► running ──► done
       │          │  └───► failed     (after the retry policy gives up)
       └──────────┴──────► cancelled

Submission is **idempotent, keyed by content address**: a workload job's
key is exactly the :class:`repro.analysis.cache.SuiteCache` content hash
of the recording it would produce (:func:`execution_cache_key`), and a
log job's key hashes the uploaded bytes plus the analysis parameters.
Submitting work the service already has — queued, running, or finished —
returns the existing job instead of creating a duplicate, so a client
retrying over a flaky connection (or a restarted server re-submitting)
never causes the same analysis to run twice.

The store journals every transition to an append-only JSON-lines file.
:meth:`JobStore.open` replays the journal on startup: finished jobs come
back with their reports, queued jobs come back queued, and jobs that were
*running* when the process died are re-queued (their attempt counters
preserved) — crash recovery without a database.  A torn trailing line
(the crash happened mid-append) is ignored, mirroring the suite cache's
torn-file tolerance.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.cache import execution_cache_key
from ..workloads.base import Workload
from ..workloads.suite import Execution

#: Bump when the journal line schema changes (old journals are ignored).
JOURNAL_SCHEMA_VERSION = 1


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def __str__(self) -> str:
        return self.value

    @property
    def is_final(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """What one job analyses.

    ``kind`` is ``"workload"`` (record + analyse a named suite workload
    under a seed) or ``"log"`` (analyse uploaded replay-log bytes).
    ``mode`` selects the pipeline depth: ``"full"`` runs the whole
    detect-and-classify funnel (a v4/v5 upload with captured columns
    streams, so first verdicts land before the sweep finishes);
    ``"detect"`` stops after detection and — for logs with captured
    columns — runs the zero-replay log-native path, so triage jobs never
    pay for replay or classification.  A journal written while
    ``"stream"`` was still a mode replays its jobs as full ones.
    """

    kind: str
    workload: Optional[str] = None
    seed: int = 0
    switch_probability: float = 0.3
    log_data: Optional[bytes] = None
    mode: str = "full"

    @classmethod
    def for_workload(
        cls,
        name: str,
        seed: int = 0,
        switch_probability: float = 0.3,
        mode: str = "full",
    ) -> "JobSpec":
        return cls(
            kind="workload",
            workload=name,
            seed=seed,
            switch_probability=switch_probability,
            mode=mode,
        )

    @classmethod
    def for_log(cls, data: bytes, mode: str = "full") -> "JobSpec":
        return cls(kind="log", log_data=data, mode=mode)

    def execution(self, workload: Workload) -> Execution:
        """The suite :class:`Execution` a workload job records."""
        return Execution(
            execution_id="%s#s%d" % (workload.name, self.seed),
            workload=workload,
            seed=self.seed,
            switch_probability=self.switch_probability,
        )

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind}
        if self.kind == "workload":
            payload["workload"] = self.workload
            payload["seed"] = self.seed
            payload["switch_probability"] = self.switch_probability
        else:
            payload["log_b64"] = base64.b64encode(self.log_data or b"").decode("ascii")
        # Absent means "full" so journals written before modes existed
        # replay unchanged (and full jobs keep their old journal lines).
        if self.mode != "full":
            payload["mode"] = self.mode
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "JobSpec":
        mode = payload.get("mode", "full")
        if payload["kind"] == "workload":
            return cls.for_workload(
                payload["workload"],
                seed=int(payload.get("seed", 0)),
                switch_probability=float(payload.get("switch_probability", 0.3)),
                mode=mode,
            )
        return cls.for_log(base64.b64decode(payload["log_b64"]), mode=mode)


def content_key_for(
    spec: JobSpec,
    workload: Optional[Workload],
    max_steps: int,
    capture_global_order: bool,
    max_pairs_per_location: Optional[int],
) -> str:
    """The idempotency key of one job.

    Workload jobs reuse the suite cache's content address — the sha256
    of everything the recording depends on — extended with the detect
    parameter, so "same job" and "same cache entry" agree by
    construction.  Log jobs hash the uploaded bytes with the same
    analysis parameters.
    """
    if spec.kind == "workload":
        assert workload is not None
        base = execution_cache_key(
            spec.execution(workload), max_steps, capture_global_order
        )
    else:
        base = hashlib.sha256(spec.log_data or b"").hexdigest()
    material_fields = [JOURNAL_SCHEMA_VERSION, spec.kind, base, max_pairs_per_location]
    # Non-default modes extend the material; full-mode keys are unchanged
    # so pre-mode journals and caches still dedup against new submissions.
    if spec.mode != "full":
        material_fields.append(spec.mode)
    material = json.dumps(material_fields, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One job's full lifecycle state."""

    job_id: str
    spec: JobSpec
    content_key: str
    priority: int = 0
    state: JobState = JobState.QUEUED
    #: Finished (or started) run attempts; compared against the retry policy.
    attempts: int = 0
    error: Optional[str] = None
    #: The canonical report document (see ``pipeline.execution_report``).
    report: Optional[dict] = None
    #: Merged ``PerfStats.to_json()`` of the analysing worker.
    perf: Optional[dict] = None
    #: Wall seconds the successful attempt took.
    elapsed_s: Optional[float] = None
    #: Monotonic submission sequence (order of first submission).
    seq: int = 0
    #: True when journal recovery re-queued this job after a crash.
    recovered: bool = False

    def status_json(self) -> dict:
        """The public status document (``GET /jobs/<id>``)."""
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "mode": self.spec.mode,
            "workload": self.spec.workload,
            "seed": self.spec.seed if self.spec.kind == "workload" else None,
            "content_key": self.content_key,
            "priority": self.priority,
            "state": str(self.state),
            "attempts": self.attempts,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "recovered": self.recovered,
            "has_report": self.report is not None,
        }


class JobStore:
    """Thread-safe job table with an append-only JSON-lines journal."""

    def __init__(self, journal_path: Optional[Union[str, Path]] = None):
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._seq = 0
        self._journal_path = Path(journal_path) if journal_path else None
        self._journal_file = None
        if self._journal_path is not None:
            self._journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal_file = open(self._journal_path, "a", encoding="utf-8")

    # -- construction / recovery ---------------------------------------

    @classmethod
    def open(cls, journal_path: Union[str, Path]) -> "JobStore":
        """Load (or create) a journaled store, recovering prior state.

        Jobs that were ``running`` at crash time come back ``queued``
        with ``recovered=True`` — the caller re-enqueues everything
        :meth:`pending` returns.  Torn trailing lines are skipped.
        """
        path = Path(journal_path)
        events: List[dict] = []
        if path.exists():
            for line in path.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError:
                    # A torn line can only be the crash-interrupted tail.
                    break
        store = cls.__new__(cls)
        store._lock = threading.RLock()
        store._jobs = {}
        store._by_key = {}
        store._seq = 0
        store._journal_path = path
        store._journal_file = None
        store._replay_events(events)
        path.parent.mkdir(parents=True, exist_ok=True)
        store._journal_file = open(path, "a", encoding="utf-8")
        # Re-journal recovery transitions (running -> queued) so a second
        # crash before the re-run still recovers correctly.
        for job in store._jobs.values():
            if job.recovered:
                store._append(
                    {
                        "event": "state",
                        "job_id": job.job_id,
                        "state": str(JobState.QUEUED),
                        "attempts": job.attempts,
                        "recovered": True,
                    }
                )
        return store

    def _replay_events(self, events: List[dict]) -> None:
        for event in events:
            kind = event.get("event")
            if kind == "submit":
                if event.get("schema") != JOURNAL_SCHEMA_VERSION:
                    continue
                job = Job(
                    job_id=event["job_id"],
                    spec=JobSpec.from_json(event["spec"]),
                    content_key=event["content_key"],
                    priority=int(event.get("priority", 0)),
                    seq=self._seq,
                )
                self._seq += 1
                self._jobs[job.job_id] = job
                self._by_key[job.content_key] = job.job_id
            elif kind == "state":
                job = self._jobs.get(event.get("job_id"))
                if job is None:
                    continue
                job.state = JobState(event["state"])
                job.attempts = int(event.get("attempts", job.attempts))
                job.error = event.get("error")
            elif kind == "done":
                job = self._jobs.get(event.get("job_id"))
                if job is None:
                    continue
                job.state = JobState.DONE
                job.report = event.get("report")
                job.perf = event.get("perf")
                job.elapsed_s = event.get("elapsed_s")
                job.error = None
            elif kind == "discard":
                job = self._jobs.pop(event.get("job_id"), None)
                if job is not None:
                    self._by_key.pop(job.content_key, None)
        for job in self._jobs.values():
            # Anything non-final at crash time is recovered work: jobs
            # caught mid-run go back to the queue (attempts preserved),
            # queued jobs stay queued — both get re-enqueued on startup.
            if job.state in (JobState.RUNNING, JobState.QUEUED):
                job.state = JobState.QUEUED
                job.recovered = True

    # -- journalling ---------------------------------------------------

    def _append(self, event: dict) -> None:
        if self._journal_file is None:
            return
        self._journal_file.write(json.dumps(event, sort_keys=True) + "\n")
        self._journal_file.flush()

    def close(self) -> None:
        with self._lock:
            if self._journal_file is not None:
                self._journal_file.close()
                self._journal_file = None

    # -- submission and lookup -----------------------------------------

    def submit(
        self, spec: JobSpec, content_key: str, priority: int = 0
    ) -> Tuple[Job, bool]:
        """Add a job (idempotently); returns ``(job, created)``.

        An existing job in any non-``failed``/non-``cancelled`` state is
        returned as-is — same content, same job, no duplicate work.  A
        failed or cancelled job is revived: re-queued under the same id
        with a fresh attempt budget.
        """
        with self._lock:
            existing_id = self._by_key.get(content_key)
            if existing_id is not None:
                job = self._jobs[existing_id]
                if job.state in (JobState.FAILED, JobState.CANCELLED):
                    job.state = JobState.QUEUED
                    job.attempts = 0
                    job.error = None
                    self._append(
                        {
                            "event": "state",
                            "job_id": job.job_id,
                            "state": str(JobState.QUEUED),
                            "attempts": 0,
                        }
                    )
                    return job, True
                return job, False
            job = Job(
                job_id="j-%s" % content_key[:16],
                spec=spec,
                content_key=content_key,
                priority=priority,
                seq=self._seq,
            )
            self._seq += 1
            self._jobs[job.job_id] = job
            self._by_key[content_key] = job.job_id
            self._append(
                {
                    "event": "submit",
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "job_id": job.job_id,
                    "content_key": content_key,
                    "priority": priority,
                    "spec": spec.to_json(),
                }
            )
            return job, True

    def rollback_submit(
        self,
        job_id: str,
        prior_state: Optional[JobState] = None,
        prior_error: Optional[str] = None,
    ) -> None:
        """Undo a :meth:`submit` whose queue admission was rejected.

        A brand-new job (``prior_state=None``) is discarded outright —
        journaled, so a restart does not revive work the client was told
        was rejected.  A revived failed/cancelled job is put back in the
        prior state the caller captured before resubmitting.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            if prior_state is None:
                del self._jobs[job_id]
                self._by_key.pop(job.content_key, None)
                self._append({"event": "discard", "job_id": job_id})
            else:
                self._transition(job_id, prior_state, error=prior_error)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def by_content_key(self, content_key: str) -> Optional[Job]:
        with self._lock:
            job_id = self._by_key.get(content_key)
            return self._jobs.get(job_id) if job_id else None

    def pending(self) -> List[Job]:
        """Queued jobs in submission order (for startup re-enqueue)."""
        with self._lock:
            queued = [j for j in self._jobs.values() if j.state is JobState.QUEUED]
            return sorted(queued, key=lambda job: job.seq)

    def finished(self) -> List[Job]:
        """DONE jobs in submission order (for fleet heal-on-start)."""
        with self._lock:
            done = [j for j in self._jobs.values() if j.state is JobState.DONE]
            return sorted(done, key=lambda job: job.seq)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # -- state transitions ---------------------------------------------

    def _transition(
        self, job_id: str, state: JobState, error: Optional[str] = None
    ) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            job.state = state
            job.error = error
            self._append(
                {
                    "event": "state",
                    "job_id": job_id,
                    "state": str(state),
                    "attempts": job.attempts,
                    "error": error,
                }
            )
            return job

    def mark_running(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            job.attempts += 1
            return self._transition(job_id, JobState.RUNNING)

    def mark_requeued(self, job_id: str, error: Optional[str] = None) -> Job:
        """A failed attempt that the retry policy sends around again."""
        return self._transition(job_id, JobState.QUEUED, error=error)

    def mark_failed(self, job_id: str, error: str) -> Job:
        return self._transition(job_id, JobState.FAILED, error=error)

    def mark_cancelled(self, job_id: str) -> Job:
        return self._transition(job_id, JobState.CANCELLED)

    def mark_done(
        self,
        job_id: str,
        report: dict,
        perf: Optional[dict] = None,
        elapsed_s: Optional[float] = None,
    ) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            job.report = report
            job.perf = perf
            job.elapsed_s = elapsed_s
            job.error = None
            # State last: HTTP handlers read state/report without the
            # lock, and an observed DONE must imply a visible report.
            job.state = JobState.DONE
            self._append(
                {
                    "event": "done",
                    "job_id": job_id,
                    "report": report,
                    "perf": perf,
                    "elapsed_s": elapsed_s,
                }
            )
            return job
