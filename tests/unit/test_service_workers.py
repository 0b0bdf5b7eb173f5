"""Unit tests for the sharded worker pool (injected-runner mode)."""

from __future__ import annotations

import base64
import json
import threading
import time

import pytest

from repro.service.config import RetryPolicy, ServiceConfig
from repro.service.jobs import (
    JOURNAL_SCHEMA_VERSION,
    JobSpec,
    JobState,
    JobStore,
    content_key_for,
)
from repro.service.queue import BoundedJobQueue
from repro.service.workers import (
    HISTOGRAM_BOUNDS_S,
    LatencyHistograms,
    ShardedWorkerPool,
)


def _submit(store, queue, data=b"payload", priority=0, shard=0, mode="full"):
    spec = JobSpec.for_log(data, mode=mode)
    key = content_key_for(spec, None, 200_000, True, 256)
    job, _ = store.submit(spec, key, priority=priority)
    queue.put(job.job_id, shard, priority=priority)
    return job


def _pool(runner, retry=None, shards=1, on_done=None):
    config = ServiceConfig(
        pool_size=0,
        shards=shards,
        queue_capacity=16,
        retry=retry or RetryPolicy(max_attempts=2, backoff_base_s=0.01),
    )
    store = JobStore()
    queue = BoundedJobQueue(config.queue_capacity, shards)
    pool = ShardedWorkerPool(config, store, queue, runner=runner, on_done=on_done)
    return pool, store, queue


def _wait_final(store, job, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not job.state.is_final:
        assert time.monotonic() < deadline, "job never finished: %s" % job.state
        time.sleep(0.01)
    return job


class TestLatencyHistograms:
    def test_bucketing(self):
        histograms = LatencyHistograms()
        histograms.observe("replay", 0.0008)   # first bucket (<= 1ms)
        histograms.observe("replay", 0.3)      # the 0.5s bucket
        histograms.observe("replay", 1000.0)   # unbounded last bucket
        document = histograms.to_json()["replay"]
        assert document["observations"] == 3
        assert document["counts"][0] == 1
        assert document["counts"][HISTOGRAM_BOUNDS_S.index(0.5)] == 1
        assert document["counts"][-1] == 1
        assert document["total_s"] == pytest.approx(1000.3008)


class TestSuccessPath:
    def test_job_runs_and_merges_metrics(self):
        def runner(payload):
            assert payload["kind"] == "log"
            return {
                "report": {"races": []},
                "perf": {"stage_seconds": {"replay": 0.02}, "cache_hits": 3},
                "elapsed_s": 0.05,
            }

        pool, store, queue = _pool(runner)
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()

        assert job.state is JobState.DONE
        assert job.report == {"races": []}
        assert job.elapsed_s == 0.05
        assert pool.completed == 1 and pool.failed == 0
        assert pool.perf.cache_hits == 3
        histograms = pool.histograms.to_json()
        assert histograms["replay"]["observations"] == 1
        assert histograms["total"]["observations"] == 1
        assert pool.metrics_json()["mode"] == "injected"

    def test_drain_finishes_queued_work(self):
        def runner(payload):
            time.sleep(0.02)
            return {"report": {}, "perf": {}, "elapsed_s": 0.02}

        pool, store, queue = _pool(runner)
        jobs = [_submit(store, queue, b"job-%d" % index) for index in range(5)]
        pool.start()
        assert pool.drain(timeout=10.0)
        pool.shutdown()
        assert all(job.state is JobState.DONE for job in jobs)
        assert pool.completed == 5

    def test_drain_true_implies_reports_stored(self):
        # drain() may only report success once the last job's terminal
        # transition has landed — never "queue empty" with a job still
        # RUNNING and its report unset.
        def runner(payload):
            return {"report": {"ok": True}, "perf": {}, "elapsed_s": 0.0}

        for _ in range(20):
            pool, store, queue = _pool(runner)
            job = _submit(store, queue)
            pool.start()
            assert pool.drain(timeout=10.0)
            assert job.state.is_final, "drain returned with job %s" % job.state
            assert job.report == {"ok": True}
            pool.shutdown()


class TestFailurePath:
    def test_retry_then_success(self):
        attempts = []

        def runner(payload):
            attempts.append(time.monotonic())
            if len(attempts) == 1:
                raise RuntimeError("transient failure")
            return {"report": {"ok": True}, "perf": {}, "elapsed_s": 0.01}

        pool, store, queue = _pool(runner)
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()

        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert pool.retries == 1 and pool.failed == 0
        # The retry waited out its backoff delay.
        assert attempts[1] - attempts[0] >= 0.005

    def test_exhausted_retries_fail_with_error(self):
        def runner(payload):
            raise RuntimeError("permanent failure")

        pool, store, queue = _pool(runner)
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()

        assert job.state is JobState.FAILED
        assert job.attempts == 2
        assert "permanent failure" in job.error
        assert pool.failed == 1 and pool.retries == 1

    def test_no_retry_policy_fails_immediately(self):
        def runner(payload):
            raise ValueError("bad input")

        pool, store, queue = _pool(runner, retry=RetryPolicy(max_attempts=1))
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()
        assert job.state is JobState.FAILED
        assert job.attempts == 1
        assert pool.retries == 0

    def test_timeout_counts_separately(self):
        def runner(payload):
            raise TimeoutError("job exceeded 0.1s timeout")

        pool, store, queue = _pool(runner, retry=RetryPolicy(max_attempts=1))
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()
        assert pool.timeouts == 1
        assert job.state is JobState.FAILED


class TestDispatch:
    def test_cancelled_jobs_are_skipped(self):
        ran = []

        def runner(payload):
            ran.append(payload)
            return {"report": {}, "perf": {}, "elapsed_s": 0.0}

        pool, store, queue = _pool(runner)
        job = _submit(store, queue)
        store.mark_cancelled(job.job_id)
        pool.start()
        time.sleep(0.2)
        pool.shutdown()
        assert ran == []
        assert job.state is JobState.CANCELLED

    def test_sharded_dispatch_routes_by_shard(self):
        seen = []

        def runner(payload):
            seen.append(payload["log_data"])
            return {"report": {}, "perf": {}, "elapsed_s": 0.0}

        pool, store, queue = _pool(runner, shards=2)
        first = _submit(store, queue, b"shard-zero", shard=0)
        second = _submit(store, queue, b"shard-one", shard=1)
        pool.start()
        assert pool.drain(timeout=5.0)
        pool.shutdown()
        assert {first.state, second.state} == {JobState.DONE}
        assert sorted(seen) == [b"shard-one", b"shard-zero"]


class TestInlineContextIsolation:
    def test_worker_context_is_per_thread(self):
        # Inline mode with shards > 1 runs run_job_payload on multiple
        # shard threads concurrently; each thread must build and keep
        # its own engine rather than racing on one shared context.
        from repro.service import workers

        config = ServiceConfig(pool_size=0, shards=2).to_dict()
        main_context = getattr(workers._WORKER_TLS, "context", None)
        engines = [None, None]

        def build(index):
            workers._worker_init(config)
            engines[index] = workers._WORKER_TLS.context["engine"]

        threads = [
            threading.Thread(target=build, args=(index,)) for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        first, second = engines
        assert first is not None and second is not None
        assert first is not second
        # Other threads' initialization never leaks into this thread.
        assert getattr(workers._WORKER_TLS, "context", None) is main_context


def _segmented_bytes():
    """A small v5 segmented container (an upload that streams)."""
    from repro.isa import assemble
    from repro.record import record_run
    from repro.record.binary_format import encode_log_segmented
    from repro.vm import RandomScheduler

    source = """
.data
counter: .word 0
.thread a
    load r1, [counter]
    addi r1, r1, 1
    store r1, [counter]
    halt
.thread b
    load r1, [counter]
    addi r1, r1, 2
    store r1, [counter]
    halt
"""
    program = assemble(source, name="stream_unit")
    _, log = record_run(
        program, scheduler=RandomScheduler(seed=9, switch_probability=0.4), seed=9
    )
    return encode_log_segmented(log, segment_bytes=64)


class TestOldJournals:
    def test_a_stream_mode_job_recovers_as_a_full_job(self, tmp_path):
        """A journal written while "stream" was still a job mode: its
        queued job comes back on restart, runs as a full job (its v5
        upload streams) and ends with the full-mode report."""
        from repro.analysis.pipeline import render_report

        data = _segmented_bytes()
        old_spec = JobSpec.for_log(data, mode="stream")
        journal = tmp_path / "journal.jsonl"
        line = {
            "event": "submit",
            "schema": JOURNAL_SCHEMA_VERSION,
            "job_id": "stream-job",
            "content_key": content_key_for(old_spec, None, 200_000, True, 256),
            "priority": 0,
            "spec": {
                "kind": "log",
                "log_b64": base64.b64encode(data).decode("ascii"),
                "mode": "stream",
            },
        }
        journal.write_text(json.dumps(line, sort_keys=True) + "\n")
        store = JobStore.open(journal)
        [old] = store.pending()
        assert old.recovered and old.spec.mode == "stream"
        config = ServiceConfig(pool_size=0, queue_capacity=16)
        queue = BoundedJobQueue(config.queue_capacity, 1)
        queue.put(old.job_id, 0)
        full = _submit(store, queue, data)
        pool = ShardedWorkerPool(config, store, queue)
        pool.start()
        _wait_final(store, old, timeout=60.0)
        _wait_final(store, full, timeout=60.0)
        pool.shutdown()
        store.close()
        assert old.state is JobState.DONE and full.state is JobState.DONE
        assert old.perf["stream_jobs"] == 1
        assert render_report(old.report) == render_report(full.report)


class TestOnDoneHook:
    def test_on_done_sees_the_stored_report(self):
        absorbed = []

        def runner(payload):
            return {"report": {"ok": True}, "perf": {}, "elapsed_s": 0.0}

        pool, store, queue = _pool(runner, on_done=absorbed.append)
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()
        assert len(absorbed) == 1
        assert absorbed[0].job_id == job.job_id
        assert absorbed[0].report == {"ok": True}

    def test_on_done_runs_before_the_job_is_seen_done(self):
        # A client polling for DONE must then see what on_done absorbed.
        states = []

        def runner(payload):
            return {"report": {"ok": True}, "perf": {}, "elapsed_s": 0.0}

        def absorb(job):
            states.append(store.get(job.job_id).state)

        pool, store, queue = _pool(runner, on_done=absorb)
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()
        assert states == [JobState.RUNNING]

    def test_on_done_failure_never_fails_the_job(self):
        def runner(payload):
            return {"report": {}, "perf": {}, "elapsed_s": 0.0}

        def exploding(job):
            raise RuntimeError("absorb blew up")

        pool, store, queue = _pool(runner, on_done=exploding)
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()
        assert job.state is JobState.DONE
        assert pool.completed == 1 and pool.failed == 0

    def test_on_done_not_called_for_failed_jobs(self):
        absorbed = []

        def runner(payload):
            raise RuntimeError("boom")

        pool, store, queue = _pool(
            runner, retry=RetryPolicy(max_attempts=1), on_done=absorbed.append
        )
        job = _submit(store, queue)
        pool.start()
        _wait_final(store, job)
        pool.shutdown()
        assert job.state is JobState.FAILED
        assert absorbed == []


class TestMetricsSnapshot:
    def test_perf_snapshot_during_concurrent_merges(self):
        # /metrics serializes pool perf while workers merge results;
        # the snapshot must be taken under the metrics lock so dict
        # iteration never races a concurrent merge.
        def runner(payload):
            index = int(payload["log_data"].split(b"-")[1])
            return {
                "report": {},
                "perf": {"stage_seconds": {"stage-%d" % index: 0.001}},
                "elapsed_s": 0.001,
            }

        pool, store, queue = _pool(runner, shards=2)
        jobs = [
            _submit(store, queue, b"metrics-%d" % index, shard=index % 2)
            for index in range(16)
        ]
        errors = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                try:
                    snapshot = pool.perf_snapshot()
                    assert snapshot["completed"] >= 0
                    pool.metrics_json()
                except Exception as error:  # noqa: BLE001 - the assertion
                    errors.append(error)
                    return

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
        pool.start()
        assert pool.drain(timeout=10.0)
        stop.set()
        scraper.join(5.0)
        pool.shutdown()
        assert errors == []
        assert all(job.state is JobState.DONE for job in jobs)
        assert pool.perf_snapshot()["completed"] == 16


def _service_uploads(count):
    """``count`` log uploads cycling over six small suite programs, each
    recorded at a fresh seed so that every upload is a new job."""
    from repro.record import record_run
    from repro.record.binary_format import encode_log
    from repro.vm import RandomScheduler
    from repro.workloads.suite import paper_suite

    names = {
        "flag_publish_fp0",
        "stats_counter_st0",
        "refcount_free_rc0",
        "double_check_cold_dc0",
        "toctou_handle_tc0",
        "lost_update_lu0",
    }
    executions = [e for e in paper_suite() if e.workload.name in names]
    uploads = []
    for index in range(count):
        execution = executions[index % len(executions)]
        seed = 7000 + index
        _, log = record_run(
            execution.workload.program(),
            scheduler=RandomScheduler(
                seed=seed, switch_probability=execution.switch_probability
            ),
            seed=seed,
        )
        uploads.append({"kind": "log", "log_data": encode_log(log)})
    return uploads


class TestPerJobWorkIsFlat:
    def test_jobs_serialise_no_verdict_entries(self, monkeypatch):
        # Without a cache dir nobody reads a job's verdict index, so no
        # job may serialise one: exporting the engine cache after every
        # job makes each job cost more than the one before.
        from repro.analysis import engine as engine_module
        from repro.service import workers

        serialised = [0]
        to_json = engine_module._template_to_json

        def counting(template):
            serialised[0] += 1
            return to_json(template)

        monkeypatch.setattr(engine_module, "_template_to_json", counting)
        uploads = _service_uploads(60)
        per_job = []
        outcome = {}

        def run_all():
            # A fresh thread builds a fresh default worker context.
            for payload in uploads:
                before = serialised[0]
                workers.run_job_payload(payload)
                per_job.append(serialised[0] - before)
            outcome["cache"] = workers._WORKER_TLS.context["engine"].cache

        thread = threading.Thread(target=run_all)
        thread.start()
        thread.join(120.0)
        assert per_job == [0] * 60
        cache = outcome["cache"]
        assert len(cache) > 0 and cache.hits > 0  # the cache did its work
