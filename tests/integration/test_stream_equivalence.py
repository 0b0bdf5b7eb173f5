"""Integration tests: the streaming pipeline end to end.

The tentpole equivalence, asserted at every user-facing surface:

* **CLI** — ``detect`` and ``analyze`` stream a v4 segmented file and
  take the batch path on a monolithic v3 file; their output is
  byte-identical across the two encodings of each recording in the
  workload suite sample.
* **Service** — a default (full) job on a v5 upload streams and returns
  the same report bytes as a full job on the v3 encoding of the same
  log, ``/metrics`` surfaces the first-verdict latency and segment
  counters, and ``mode="stream"`` is an unknown mode: a clean ``400``.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.analysis.engine import ClassificationEngine, EngineConfig
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import execution_report, render_report
from repro.cli import main
from repro.isa import assemble
from repro.record import record_run
from repro.record.binary_format import encode_log, encode_log_segmented
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    make_server,
)
from repro.vm import RandomScheduler
from repro.workloads import all_workloads

#: A suite sample with known races plus a race-free control.
SAMPLE = ("lost_update_lu0", "stats_counter_st0", "locked_counter_cl0")
SEED = 13


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _recording(name, seed=SEED):
    workload = all_workloads()[name]
    program = assemble(workload.source, name=workload.name)
    _, log = record_run(
        program,
        scheduler=RandomScheduler(
            seed=seed, switch_probability=workload.switch_probability or 0.3
        ),
        seed=seed,
    )
    return log


@pytest.fixture(scope="module", params=SAMPLE)
def recording(request):
    name = request.param
    if name not in all_workloads():
        pytest.skip("workload %s not in suite" % name)
    return _recording(name)


class TestCliStreamEquivalence:
    def test_detect_stream_output_matches_batch(self, recording, tmp_path):
        v3 = tmp_path / "run.rprb"
        v4 = tmp_path / "run.seg.rprb"
        v3.write_bytes(encode_log(recording, version=3))
        v4.write_bytes(encode_log_segmented(recording, segment_bytes=256))
        code, batch = run_cli(["detect", str(v3)])
        assert code == 0
        code, stream4 = run_cli(["detect", str(v4)])
        assert code == 0
        assert stream4 == batch

    def test_detect_perf_names_the_path_the_log_picks(self, recording, tmp_path):
        encodings = (
            ("v4", "stream", encode_log_segmented(recording, segment_bytes=256)),
            ("v3", "from-log", encode_log(recording, version=3)),
            ("v3-bare", "replay", encode_log(recording, version=3, include_captured=False)),
            ("v1", "replay", encode_log(recording, version=1)),
        )
        outputs = set()
        for name, path_taken, data in encodings:
            path = tmp_path / ("%s.rprb" % name)
            path.write_bytes(data)
            code, text = run_cli(["detect", str(path), "--perf"])
            assert code == 0
            assert "detect path: %s\n" % path_taken in text, name
            outputs.add(text.split("detect path:")[0])
        assert len(outputs) == 1

    def test_analyze_stream_report_matches_batch(self, recording, tmp_path):
        v3 = tmp_path / "run.rprb"
        v4 = tmp_path / "run.seg.rprb"
        v3.write_bytes(encode_log(recording, version=3))
        v4.write_bytes(encode_log_segmented(recording, segment_bytes=256))
        batch_json = tmp_path / "batch.json"
        stream4_json = tmp_path / "stream4.json"
        code, _ = run_cli(["analyze", str(v3), "--json", str(batch_json)])
        assert code == 0
        code, _ = run_cli(["analyze", str(v4), "--json", str(stream4_json)])
        assert code == 0
        assert stream4_json.read_bytes() == batch_json.read_bytes()
        # The engine picks the same paths from the bytes: the v5
        # container streams, the v3 one takes the batch pass.
        for path, stream_jobs in ((v4, 1), (v3, 0)):
            perf = PerfStats()
            analysis = ClassificationEngine(EngineConfig()).analyze_log(
                path.read_bytes(), perf=perf
            )
            assert perf.stream_jobs == stream_jobs
            assert render_report(execution_report(analysis)) == batch_json.read_bytes()

    def test_record_segmented_then_stream_detect(self, tmp_path):
        workload = all_workloads()[SAMPLE[0]]
        program = tmp_path / "w.asm"
        program.write_text(workload.source)
        batch_file = tmp_path / "batch.rprb"
        stream_file = tmp_path / "stream.rprb"
        code, _ = run_cli(
            ["record", str(program), "-o", str(batch_file), "--seed", "5"]
        )
        assert code == 0
        code, _ = run_cli(
            [
                "record",
                str(program),
                "-o",
                str(stream_file),
                "--seed",
                "5",
                "--segment-bytes",
                "256",
            ]
        )
        assert code == 0
        code, batch = run_cli(["detect", str(batch_file)])
        assert code == 0
        code, streamed = run_cli(["detect", str(stream_file)])
        assert code == 0
        assert streamed == batch


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


class TestServiceStreamMode:
    """A full job streams when its upload is a segmented container."""

    def test_stream_job_matches_full_job_bytes(self, deployment):
        _, _, client = deployment
        log = _recording(SAMPLE[0])
        full = client.submit_log(encode_log(log, version=3))
        stream = client.submit_log(encode_log_segmented(log, segment_bytes=512))
        assert stream.mode == "full"
        assert full.job_id != stream.job_id  # distinct work, both live
        client.wait(full.job_id, timeout_s=60)
        client.wait(stream.job_id, timeout_s=60)
        assert client.report_bytes(stream.job_id) == client.report_bytes(
            full.job_id
        )

    def test_stream_job_matches_engine_stream_path(self, deployment):
        service, _, client = deployment
        log = _recording(SAMPLE[1])
        data = encode_log_segmented(log, segment_bytes=512)
        job = client.submit_log(data)
        client.wait(job.job_id, timeout_s=60)
        engine = ClassificationEngine(
            EngineConfig(
                max_pairs_per_location=service.config.max_pairs_per_location,
            )
        )
        expected = render_report(execution_report(engine.analyze_log(data)))
        assert client.report_bytes(job.job_id) == expected

    def test_metrics_surface_stream_counters(self, deployment):
        _, _, client = deployment
        log = _recording(SAMPLE[0], seed=SEED + 21)
        job = client.submit_log(encode_log_segmented(log, segment_bytes=256))
        client.wait(job.job_id, timeout_s=60)
        metrics = client.metrics()
        stream = metrics["stream"]
        assert stream["jobs"] >= 1
        assert stream["segments"] >= 1
        assert stream["windows"] >= 1
        assert stream["stream_first_verdict_ms"] > 0

    def test_old_containers_still_analyze_in_full_mode(self, deployment):
        _, _, client = deployment
        log = _recording(SAMPLE[0])
        v1 = client.submit_log(encode_log(log, version=1), mode="full")
        client.wait(v1.job_id, timeout_s=60)
        report = client.report(v1.job_id)
        assert "races" in json.dumps(report) or isinstance(report, dict)

    def test_unknown_mode_is_still_400(self, deployment):
        _, _, client = deployment
        log = _recording(SAMPLE[0])
        # "stream" was a job mode once; the upload now picks the path.
        for mode in ("bogus", "stream"):
            with pytest.raises(ServiceError) as excinfo:
                client.submit_log(encode_log(log, version=3), mode=mode)
            assert excinfo.value.status == 400
            assert "unknown job mode" in str(excinfo.value)
