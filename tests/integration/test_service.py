"""Integration tests: the analysis service end to end over HTTP.

Most tests share one inline-mode (no worker processes) service on an
ephemeral port — the full HTTP surface with fast, deterministic jobs.
One test boots the real process pool to cover the executor path, and the
restart test exercises journal recovery across two service instances
sharing a journal file.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.analysis.engine import ClassificationEngine, EngineConfig
from repro.analysis.pipeline import analyze_log, execution_report, render_report
from repro.record.binary_format import MAGIC, encode_log, encode_log_segmented
from repro.service import (
    AnalysisService,
    JobState,
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    make_server,
)
from repro.service.queue import QueueFull
from repro.workloads.suite import Execution, all_workloads

WORKLOAD = "lost_update_lu0"
SEED = 11


def _direct_report_bytes(workload_name=WORKLOAD, seed=SEED):
    """The in-process analyze_execution path, canonically rendered."""
    workload = all_workloads()[workload_name]
    execution = Execution(
        workload=workload,
        seed=seed,
        switch_probability=0.3,
        execution_id="%s#s%d" % (workload_name, seed),
    )
    engine = ClassificationEngine(EngineConfig())
    analysis = engine.analyze_execution(execution)
    return render_report(execution_report(analysis)), analysis


@pytest.fixture(scope="module")
def direct():
    report, analysis = _direct_report_bytes()
    return {"report": report, "log": analysis.log}


@pytest.fixture(scope="module")
def deployment():
    """(service, server, client) — inline mode, ephemeral port."""
    service = AnalysisService(
        ServiceConfig(pool_size=0, queue_capacity=32, port=0)
    ).start()
    server = make_server(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    client = ServiceClient(server.url)
    yield service, server, client
    server.shutdown()
    service.shutdown()


class TestReportParity:
    def test_workload_submission_is_byte_identical(self, deployment, direct):
        _, _, client = deployment
        job = client.submit_workload(WORKLOAD, seed=SEED)
        client.wait(job.job_id, timeout_s=60)
        assert client.report_bytes(job.job_id) == direct["report"]

    def test_uploaded_log_is_byte_identical(self, deployment, direct):
        _, _, client = deployment
        job = client.submit_log(encode_log(direct["log"]))
        client.wait(job.job_id, timeout_s=60)
        assert client.report_bytes(job.job_id) == direct["report"]

    def test_multipart_upload_is_byte_identical(
        self, deployment, direct, tmp_path
    ):
        _, _, client = deployment
        path = tmp_path / "run.replay.bin"
        path.write_bytes(encode_log(direct["log"]))
        job = client.submit_log_file(path)
        client.wait(job.job_id, timeout_s=60)
        assert client.report_bytes(job.job_id) == direct["report"]

    def test_report_parses_as_canonical_json(self, deployment, direct):
        _, _, client = deployment
        job = client.submit_workload(WORKLOAD, seed=SEED)
        client.wait(job.job_id, timeout_s=60)
        document = client.report(job.job_id)
        assert document == json.loads(direct["report"].decode("utf-8"))


class TestIdempotency:
    def test_resubmission_returns_same_job(self, deployment):
        _, _, client = deployment
        first = client.submit_workload(WORKLOAD, seed=SEED + 1)
        second = client.submit_workload(WORKLOAD, seed=SEED + 1)
        assert first.job_id == second.job_id
        assert not second.created
        # A different seed is different work.
        other = client.submit_workload(WORKLOAD, seed=SEED + 2)
        assert other.job_id != first.job_id
        client.wait(first.job_id, timeout_s=60)
        client.wait(other.job_id, timeout_s=60)

    def test_same_log_bytes_deduplicate(self, deployment, direct):
        _, _, client = deployment
        data = encode_log(direct["log"])
        first = client.submit_log(data)
        second = client.submit_log(data)
        assert first.job_id == second.job_id and not second.created


class TestDetectMode:
    """Detect-only jobs: the zero-replay service mode."""

    def _expected_detect_report(self, service, data):
        from repro.analysis.pipeline import (
            detect_only,
            detection_report,
            render_report as render,
        )

        analysis = detect_only(
            data, max_pairs_per_location=service.config.max_pairs_per_location
        )
        return render(detection_report(analysis))

    def test_log_detect_report_matches_direct_path(self, deployment, direct):
        service, _, client = deployment
        data = encode_log(direct["log"])
        job = client.submit_log(data, mode="detect")
        assert job.mode == "detect"
        client.wait(job.job_id, timeout_s=60)
        assert client.report_bytes(job.job_id) == self._expected_detect_report(
            service, data
        )

    def test_detect_and_full_are_distinct_jobs(self, deployment, direct):
        _, _, client = deployment
        data = encode_log(direct["log"])
        full = client.submit_log(data)
        detect = client.submit_log(data, mode="detect")
        assert full.job_id != detect.job_id
        # ...but detect resubmission still deduplicates.
        again = client.submit_log(data, mode="detect")
        assert again.job_id == detect.job_id and not again.created
        client.wait(full.job_id, timeout_s=60)
        client.wait(detect.job_id, timeout_s=60)

    def test_workload_detect_submission(self, deployment):
        _, _, client = deployment
        job = client.submit_workload(WORKLOAD, seed=SEED, mode="detect")
        status = client.wait(job.job_id, timeout_s=60)
        assert status.mode == "detect"
        document = client.report(job.job_id)
        # A detection report, not a classification report.
        assert document["detect_version"] == 1
        assert document["execution"] == "%s#s%d" % (WORKLOAD, SEED)
        assert "classified" not in document

    def test_multipart_detect_deduplicates_with_raw_upload(
        self, deployment, direct, tmp_path
    ):
        _, _, client = deployment
        data = encode_log(direct["log"])
        raw = client.submit_log(data, mode="detect")
        path = tmp_path / "run.replay.bin"
        path.write_bytes(data)
        multipart = client.submit_log_file(path, mode="detect")
        assert multipart.job_id == raw.job_id
        client.wait(raw.job_id, timeout_s=60)

    def test_unknown_mode_is_400(self, deployment, direct):
        _, _, client = deployment
        with pytest.raises(ServiceError) as caught:
            client.submit_log(encode_log(direct["log"]), mode="bogus")
        assert caught.value.status == 400


class TestErrors:
    def test_unknown_workload_is_400(self, deployment):
        _, _, client = deployment
        with pytest.raises(ServiceError) as caught:
            client.submit_workload("no_such_workload")
        assert caught.value.status == 400

    def test_bad_log_bytes_are_400(self, deployment):
        _, _, client = deployment
        with pytest.raises(ServiceError) as caught:
            client.submit_log(b"\x00\x01 definitely not a replay log")
        assert caught.value.status == 400

    def test_json_array_upload_is_400(self, deployment):
        _, _, client = deployment
        with pytest.raises(ServiceError) as caught:
            client.submit_log(b'[{"format_version": 1}]')
        assert caught.value.status == 400
        assert "not a replay-log document" in str(caught.value)

    def test_truncated_v5_container_is_400(self, deployment, direct):
        _, _, client = deployment
        data = encode_log_segmented(direct["log"])
        assert data[len(MAGIC)] == 5
        with pytest.raises(ServiceError) as caught:
            client.submit_log(data[: len(data) // 2])
        assert caught.value.status == 400

    def test_a_decoder_fault_is_500(self, deployment, direct, monkeypatch):
        """Only bytes that are not a log are the upload's fault: any
        other exception is the server's, and the client still gets an
        answer."""
        from repro.service import service as service_module

        def broken(data):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(service_module, "load_log_sections_bytes", broken)
        _, _, client = deployment
        with pytest.raises(ServiceError) as caught:
            client.submit_log(encode_log_segmented(direct["log"]))
        assert caught.value.status == 500
        assert "decoder bug" in str(caught.value)
        monkeypatch.undo()
        assert client.health()["status"] == "ok"

    def test_unknown_job_is_404(self, deployment):
        _, _, client = deployment
        with pytest.raises(ServiceError) as caught:
            client.job("j-doesnotexist0000")
        assert caught.value.status == 404

    def test_unknown_endpoint_is_404(self, deployment):
        _, _, client = deployment
        with pytest.raises(ServiceError) as caught:
            client._json(*client._request("GET", "/nope"))
        assert caught.value.status == 404


class TestObservability:
    def test_healthz(self, deployment):
        _, _, client = deployment
        health = client.health()
        assert health["status"] == "ok"
        assert health["mode"] == "inline"
        assert health["uptime_s"] >= 0

    def test_metrics_document(self, deployment):
        _, _, client = deployment
        job = client.submit_workload(WORKLOAD, seed=SEED)
        client.wait(job.job_id, timeout_s=60)
        metrics = client.metrics()
        queue = metrics["queue"]
        assert queue["capacity"] == 32 and queue["depth"] >= 0
        assert metrics["jobs"]["done"] >= 1
        assert metrics["throughput_jobs_per_s"] > 0
        assert 0.0 <= metrics["verdict_cache_hit_rate"] <= 1.0
        assert metrics["pool"]["completed"] >= 1
        histograms = metrics["latency_histograms_s"]
        assert "total" in histograms
        assert histograms["total"]["observations"] >= 1
        assert len(histograms["total"]["counts"]) == len(
            histograms["total"]["bounds_s"]
        ) + 1


class TestBackpressure:
    def test_full_queue_rejects_with_429(self):
        # workers=False pins every submission in the queue.
        service = AnalysisService(
            ServiceConfig(pool_size=0, queue_capacity=2, port=0)
        ).start(workers=False)
        server = make_server(service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        client = ServiceClient(server.url)
        try:
            client.submit_workload(WORKLOAD, seed=100)
            client.submit_workload(WORKLOAD, seed=101)
            # Every overflow submission is rejected at once, never queued
            # and never left waiting for a slot.
            started = time.perf_counter()
            for seed in (102, 103, 104):
                with pytest.raises(QueueFullError) as caught:
                    client.submit_workload(WORKLOAD, seed=seed)
                assert caught.value.status == 429
            assert time.perf_counter() - started < 5.0
            # Resubmitting existing work still deduplicates — no slot
            # needed, so no 429.
            again = client.submit_workload(WORKLOAD, seed=100)
            assert not again.created
            assert client.metrics()["queue"]["rejections"] == 3
            # The rejected submission left no journaled job behind:
            # only the two admitted jobs exist, both still queued.
            assert client.metrics()["jobs"]["queued"] == 2
            assert len(service.store) == 2
        finally:
            server.shutdown()
            service.shutdown(drain=False)

    def test_rejected_submission_is_not_recovered_on_restart(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        config = ServiceConfig(
            pool_size=0, queue_capacity=1, port=0, journal_path=str(journal)
        )
        service = AnalysisService(config).start(workers=False)
        admitted, created = service.submit_workload(WORKLOAD, seed=300)
        assert created
        with pytest.raises(QueueFull):
            service.submit_workload(WORKLOAD, seed=301)
        service.shutdown(drain=False)

        # Restart from the journal: only the admitted job comes back,
        # and the rejected one can be submitted again as new work.
        restarted = AnalysisService(config).start(workers=False)
        try:
            assert [job.job_id for job in restarted.store.pending()] == [
                admitted.job_id
            ]
            assert restarted.queue.depth() == 1
        finally:
            restarted.shutdown(drain=False)


class TestAdmissionDispatchRace:
    def test_concurrent_submissions_never_lose_jobs(self):
        """Submissions racing the shard loops all reach a final state.

        Regression test: the queue entry used to be published before
        the job was journaled, so an idle shard could pop the id, find
        no job in the store, and silently drop the entry — leaving the
        job 'queued' forever with no queue entry.
        """
        def runner(payload):
            return {"report": {"ok": True}, "perf": {}, "elapsed_s": 0.0}

        service = AnalysisService(
            ServiceConfig(pool_size=0, shards=4, queue_capacity=256, port=0),
            runner=runner,
        ).start()
        try:
            jobs, errors = [], []
            lock = threading.Lock()

            def submit(base):
                try:
                    for offset in range(16):
                        job, _ = service.submit_workload(
                            WORKLOAD, seed=base * 100 + offset
                        )
                        with lock:
                            jobs.append(job)
                except Exception as error:  # noqa: BLE001 - the assertion
                    errors.append(error)

            threads = [
                threading.Thread(target=submit, args=(base,)) for base in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert errors == []
            assert len(jobs) == 64
            assert service.pool.drain(timeout=30.0)
            stuck = [job for job in jobs if not job.state.is_final]
            assert stuck == [], "lost jobs: %s" % [j.job_id for j in stuck]
            assert all(job.state is JobState.DONE for job in jobs)
        finally:
            service.shutdown()


class TestCancellation:
    def test_cancel_queued_job(self):
        service = AnalysisService(
            ServiceConfig(pool_size=0, queue_capacity=8, port=0)
        ).start(workers=False)
        server = make_server(service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        client = ServiceClient(server.url)
        try:
            job = client.submit_workload(WORKLOAD, seed=200)
            cancelled = client.cancel(job.job_id)
            assert cancelled.state is JobState.CANCELLED
            assert client.job(job.job_id).state is JobState.CANCELLED
        finally:
            server.shutdown()
            service.shutdown(drain=False)

    def test_cancel_done_job_is_conflict(self, deployment):
        _, _, client = deployment
        job = client.submit_workload(WORKLOAD, seed=SEED)
        client.wait(job.job_id, timeout_s=60)
        outcome = client.cancel(job.job_id)
        assert outcome.state is JobState.DONE  # 409: too late to cancel


class TestRestartRecovery:
    def test_journaled_jobs_survive_restart_without_duplicate_work(
        self, tmp_path, direct
    ):
        config = ServiceConfig(
            pool_size=0,
            queue_capacity=16,
            port=0,
            journal_path=str(tmp_path / "journal.jsonl"),
            cache_dir=str(tmp_path / "cache"),
        )
        # First life: one job finishes, one stays pinned in the queue.
        first = AnalysisService(config).start(workers=False)
        pinned, _ = first.submit_workload(WORKLOAD, seed=301)
        first.pool.start()
        deadline = time.monotonic() + 60
        while first.job(pinned.job_id).state is not JobState.DONE:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        done_report = first.report_bytes(pinned.job_id)
        first.shutdown(drain=False)
        queued, _ = AnalysisService(config).start(workers=False).submit_workload(
            WORKLOAD, seed=302
        )
        # (that second instance "crashed" without running its job)

        # Second life: recovery re-enqueues the queued job, keeps the
        # finished one, and runs only what was unfinished.
        revived = AnalysisService(config).start()
        assert revived.job(pinned.job_id).state is JobState.DONE
        assert revived.report_bytes(pinned.job_id) == done_report
        assert revived.metrics()["recovered_jobs"] >= 1
        deadline = time.monotonic() + 60
        while revived.job(queued.job_id).state is not JobState.DONE:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        recovered_job = revived.job(queued.job_id)
        assert recovered_job.recovered
        # Identical direct-path analysis — recovery changed nothing.
        expected, _ = _direct_report_bytes(seed=302)
        assert revived.report_bytes(queued.job_id) == expected
        # Idempotency across the restart: same submission, same job.
        resubmitted, created = revived.submit_workload(WORKLOAD, seed=301)
        assert not created and resubmitted.job_id == pinned.job_id
        revived.shutdown()


#: A two-thread racing loop whose region contents are stable across
#: schedules (memory trip count, registers normalized before each
#: sequencer call) — the shape whose verdicts survive a seed change, so
#: a resubmission with a different seed can splice instead of replay.
_STABLE_RACER = (
    ".data\nx: .word 0\ncnt_a: .word 13\ncnt_b: .word 13\n"
    ".thread a\n"
    "ah:\n    load r1, [cnt_a]\n    subi r1, r1, 1\n    store r1, [cnt_a]\n"
    "    beqz r1, adone\n    li r1, 0\n    sys_rand r9, 1\n"
    "    li r2, 5\n    store r2, [x]\n    store r2, [x]\n"
    "    li r2, 0\n    sys_rand r9, 1\n"
    "    jmp ah\nadone:\n    halt\n"
    ".thread b\n"
    "bh:\n    load r1, [cnt_b]\n    subi r1, r1, 1\n    store r1, [cnt_b]\n"
    "    beqz r1, bdone\n    li r1, 0\n    sys_rand r9, 1\n"
    "    li r2, 7\n    store r2, [x]\n    store r2, [x]\n"
    "    li r2, 0\n    sys_rand r9, 1\n"
    "    jmp bh\nbdone:\n    halt\n"
)


def _stable_log_bytes(seed):
    from repro.isa import assemble
    from repro.record import record_run
    from repro.vm import RandomScheduler

    program = assemble(_STABLE_RACER, name="warmstable")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.3),
        seed=seed,
    )
    return encode_log(log)


class TestIncrementalResubmission:
    def _wait_done(self, service, job_id):
        deadline = time.monotonic() + 60
        while service.job(job_id).state is not JobState.DONE:
            assert time.monotonic() < deadline
            time.sleep(0.02)

    def test_warm_restart_splices_from_the_persisted_index(self, tmp_path):
        """A near-miss resubmission after a restart replays almost nothing.

        First service life analyses one recording of the racer; the
        engine persists the program's portable verdict index through the
        suite cache.  A second life (cold engines, same cache_dir) gets
        a different-seed recording of the same program: content-stable
        regions splice their verdicts from the persisted index — and the
        report still matches a prior-free engine byte for byte.
        """
        config = ServiceConfig(
            pool_size=0,
            shards=1,
            queue_capacity=8,
            port=0,
            cache_dir=str(tmp_path / "cache"),
        )
        first = AnalysisService(config).start()
        cold_job, _ = first.submit_log(_stable_log_bytes(41))
        self._wait_done(first, cold_job.job_id)
        assert first.metrics()["classify_batching"]["batches"] > 0
        first.shutdown()

        warm_data = _stable_log_bytes(42)
        revived = AnalysisService(config).start()
        warm_job, _ = revived.submit_log(warm_data)
        self._wait_done(revived, warm_job.job_id)
        batching_metrics = revived.metrics()["classify_batching"]
        assert batching_metrics["incremental_absorbed"] > 0
        assert batching_metrics["incremental_spliced"] > 0

        from repro.record.serialization import load_log_bytes

        expected = ClassificationEngine(EngineConfig()).analyze_log(
            load_log_bytes(warm_data)
        )
        assert revived.report_bytes(warm_job.job_id) == render_report(
            execution_report(expected)
        )
        revived.shutdown()

    def test_incremental_disabled_never_splices(self, tmp_path):
        config = ServiceConfig(
            pool_size=0,
            shards=1,
            queue_capacity=8,
            port=0,
            cache_dir=str(tmp_path / "cache"),
            incremental=False,
        )
        first = AnalysisService(config).start()
        job, _ = first.submit_log(_stable_log_bytes(41))
        self._wait_done(first, job.job_id)
        first.shutdown()
        revived = AnalysisService(config).start()
        warm_job, _ = revived.submit_log(_stable_log_bytes(42))
        self._wait_done(revived, warm_job.job_id)
        assert revived.metrics()["classify_batching"]["incremental_spliced"] == 0
        revived.shutdown()


class TestProcessPool:
    def test_process_pool_end_to_end(self, tmp_path, direct):
        """One real ProcessPoolExecutor deployment: spawn, run, drain."""
        service = AnalysisService(
            ServiceConfig(
                pool_size=1,
                queue_capacity=8,
                port=0,
                cache_dir=str(tmp_path / "cache"),
            )
        ).start()
        server = make_server(service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        client = ServiceClient(server.url)
        try:
            assert client.health()["mode"] == "process"
            job = client.submit_workload(WORKLOAD, seed=SEED)
            client.wait(job.job_id, timeout_s=120)
            assert client.report_bytes(job.job_id) == direct["report"]
            # The worker ran in another process and its stats crossed
            # the boundary: the merged perf names a foreign pid.
            metrics = client.metrics()
            assert metrics["perf"]["pool_workers"] >= 1
        finally:
            server.shutdown()
            service.shutdown()
