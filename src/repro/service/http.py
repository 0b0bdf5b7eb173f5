"""Stdlib HTTP API over :class:`~repro.service.service.AnalysisService`.

Endpoints::

    POST   /jobs             submit a job
    GET    /jobs/<id>        job status
    GET    /jobs/<id>/report canonical race report (when done)
    DELETE /jobs/<id>        cancel a queued job
    GET    /healthz          liveness
    GET    /metrics          queue depth, throughput, cache hit rates,
                             per-stage latency histograms
    GET    /races            ranked fleet triage report (harmful first;
                             ?include_suppressed=1, ?limit=N)
    GET    /races/<id>       one fleet record with per-job contributions
    GET    /suppressions     live suppression rules
    POST   /suppressions     add a rule: {"race", "digest"?, "reason"?,
                             "by"?, "ttl_s"?}
    DELETE /suppressions/<id> remove a rule

The ``/races`` and ``/suppressions`` family requires the service to be
started with a fleet store (``repro serve --fleet-dir``); without one
they reply 404 with an explanatory error.

``POST /jobs`` accepts three request shapes, selected by Content-Type:

* ``application/json`` — workload-by-name:
  ``{"workload": "svc_flags", "seed": 3, "switch_probability": 0.3,
  "priority": 0}``;
* ``multipart/form-data`` — a replay-log upload in a file part named
  ``log`` (any filename), with optional ``priority`` and ``mode``
  fields;
* ``application/octet-stream`` — raw replay-log bytes (binary container
  or JSON document), priority via the ``X-Repro-Priority`` header and
  mode via ``X-Repro-Mode``.

Every shape accepts ``mode``: ``"full"`` (default) runs the whole
detect-and-classify funnel; ``"detect"`` stops after detection.  In
either mode the upload picks the path, as ``repro analyze`` and
``repro detect`` do: a v4/v5 container with captured columns streams,
with eager per-window classification in a full job (same report bytes
as the batch pass); a v3+ log with captured columns detects on the
zero-replay log-native path.  An unknown mode is a ``400``.

Submission replies ``202`` with ``{"job_id", "state", "created", "mode"}``
(``created`` false = idempotent dedup hit), ``429`` when the bounded
queue rejects (backpressure — retry later), ``400`` for undecodable
payloads or unknown workloads.  Built on ``http.server``'s threading
server: no third-party dependencies, one OS thread per in-flight
request, all real work behind the queue.
"""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .config import ServiceConfig
from .jobs import JobState
from .queue import QueueClosed, QueueFull
from .service import AnalysisService, BadLogError, UnknownWorkloadError

#: Upload size cap (64 MiB): a denial-of-service guard, not a format limit.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _parse_multipart(body: bytes, content_type: str) -> Dict[str, Tuple[str, bytes]]:
    """Minimal multipart/form-data parser: ``name -> (filename, data)``.

    Handles what real clients (curl, requests, our own
    :mod:`repro.service.client`) emit: one boundary, CRLF line endings,
    ``Content-Disposition`` with optional filename.  Malformed parts are
    skipped; a missing boundary raises ``ValueError``.
    """
    boundary = None
    for parameter in content_type.split(";")[1:]:
        name, _, value = parameter.strip().partition("=")
        if name.lower() == "boundary":
            boundary = value.strip('"')
    if not boundary:
        raise ValueError("multipart body without a boundary parameter")
    delimiter = b"--" + boundary.encode("latin-1")
    fields: Dict[str, Tuple[str, bytes]] = {}
    for chunk in body.split(delimiter):
        chunk = chunk.strip(b"\r\n")
        if not chunk or chunk == b"--":
            continue
        header_blob, _, data = chunk.partition(b"\r\n\r\n")
        disposition = ""
        for line in header_blob.split(b"\r\n"):
            text = line.decode("latin-1", "replace")
            if text.lower().startswith("content-disposition:"):
                disposition = text
        name = filename = ""
        for parameter in disposition.split(";")[1:]:
            key, _, value = parameter.strip().partition("=")
            value = value.strip('"')
            if key == "name":
                name = value
            elif key == "filename":
                filename = value
        if name:
            fields[name] = (filename, data)
    return fields


class AnalysisRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the attached :class:`AnalysisService`."""

    server_version = "repro-analysis/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------

    def _send_json(self, status: int, document: dict) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(status, body)

    def _send_bytes(
        self, status: int, body: bytes, content_type: str = "application/json"
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": "body too large"})
            return None
        return self.rfile.read(length)

    def _submission_response(self, job, created: bool) -> None:
        self._send_json(
            202,
            {
                "job_id": job.job_id,
                "state": str(job.state),
                "created": created,
                "mode": job.spec.mode,
            },
        )

    # -- routes ---------------------------------------------------------

    def do_POST(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/suppressions":
            self._post_suppression()
            return
        if path != "/jobs":
            self._send_json(404, {"error": "unknown endpoint %s" % self.path})
            return
        body = self._read_body()
        if body is None:
            return
        content_type = (self.headers.get("Content-Type") or "").strip()
        try:
            if content_type.startswith("multipart/form-data"):
                fields = _parse_multipart(body, content_type)
                if "log" not in fields:
                    raise BadLogError("multipart submission without a 'log' part")
                priority = int(fields.get("priority", ("", b"0"))[1] or 0)
                mode = (
                    fields.get("mode", ("", b""))[1].decode("utf-8", "replace")
                    or "full"
                )
                job, created = self.service.submit_log(
                    fields["log"][1], priority=priority, mode=mode
                )
            elif content_type.startswith("application/json") or not content_type:
                document = json.loads(body.decode("utf-8"))
                if not isinstance(document, dict) or "workload" not in document:
                    raise UnknownWorkloadError("submission without a workload name")
                job, created = self.service.submit_workload(
                    document["workload"],
                    seed=int(document.get("seed", 0)),
                    switch_probability=float(
                        document.get("switch_probability", 0.3)
                    ),
                    priority=int(document.get("priority", 0)),
                    mode=str(document.get("mode", "full")),
                )
            else:
                priority = int(self.headers.get("X-Repro-Priority") or 0)
                mode = (self.headers.get("X-Repro-Mode") or "full").strip()
                job, created = self.service.submit_log(
                    body, priority=priority, mode=mode
                )
        except QueueFull as error:
            self._send_json(429, {"error": str(error)})
            return
        except QueueClosed:
            self._send_json(503, {"error": "service shutting down"})
            return
        except (UnknownWorkloadError, BadLogError, ValueError) as error:
            self._send_json(400, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 - a server fault, not the upload's
            traceback.print_exc()
            self._send_json(500, {"error": "internal error: %r" % error})
            return
        self._submission_response(job, created)

    def do_GET(self) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/healthz":
            self._send_json(200, self.service.health())
            return
        if path == "/metrics":
            self._send_json(200, self.service.metrics())
            return
        if path.startswith("/jobs/"):
            parts = path.split("/")
            # /jobs/<id> or /jobs/<id>/report
            if len(parts) == 3:
                self._get_job(parts[2])
                return
            if len(parts) == 4 and parts[3] == "report":
                self._get_report(parts[2])
                return
        if path == "/races":
            self._get_races(query)
            return
        if path.startswith("/races/"):
            parts = path.split("/")
            if len(parts) == 3:
                self._get_race(parts[2])
                return
        if path == "/suppressions":
            self._get_suppressions()
            return
        self._send_json(404, {"error": "unknown endpoint %s" % self.path})

    def do_DELETE(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path.startswith("/suppressions/"):
            self._delete_suppression(path.split("/")[2])
            return
        if not path.startswith("/jobs/"):
            self._send_json(404, {"error": "unknown endpoint %s" % self.path})
            return
        job_id = path.split("/")[2]
        job = self.service.cancel(job_id)
        if job is None:
            self._send_json(404, {"error": "no such job %s" % job_id})
            return
        status = 200 if job.state is JobState.CANCELLED else 409
        self._send_json(status, job.status_json())

    def _get_job(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            self._send_json(404, {"error": "no such job %s" % job_id})
            return
        self._send_json(200, job.status_json())

    def _get_report(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            self._send_json(404, {"error": "no such job %s" % job_id})
            return
        if job.state is JobState.DONE:
            body = self.service.report_bytes(job_id)
            assert body is not None
            self._send_bytes(200, body)
            return
        if job.state is JobState.FAILED:
            self._send_json(500, {"state": str(job.state), "error": job.error})
            return
        if job.state is JobState.CANCELLED:
            self._send_json(410, {"state": str(job.state)})
            return
        # Queued or running: not ready yet — poll again.
        self._send_json(202, {"state": str(job.state)})

    # -- fleet routes ---------------------------------------------------

    def _fleet_disabled(self, error: ValueError) -> None:
        self._send_json(404, {"error": str(error)})

    def _get_races(self, query: Dict) -> None:
        include_suppressed = (query.get("include_suppressed") or ["0"])[
            0
        ] not in ("0", "", "false")
        limit_text = (query.get("limit") or [""])[0]
        try:
            limit = int(limit_text) if limit_text else None
        except ValueError:
            self._send_json(400, {"error": "limit must be an integer"})
            return
        try:
            body = self.service.fleet_report_bytes(
                include_suppressed=include_suppressed, limit=limit
            )
        except ValueError as error:
            self._fleet_disabled(error)
            return
        self._send_bytes(200, body)

    def _get_race(self, record_id: str) -> None:
        try:
            document = self.service.fleet_record(record_id)
        except ValueError as error:
            self._fleet_disabled(error)
            return
        if document is None:
            self._send_json(404, {"error": "no such race %s" % record_id})
            return
        self._send_json(200, document)

    def _get_suppressions(self) -> None:
        try:
            rules = self.service.fleet_suppressions()
        except ValueError as error:
            self._fleet_disabled(error)
            return
        self._send_json(200, {"suppressions": rules})

    def _post_suppression(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body.decode("utf-8"))
            race = document["race"]
        except (ValueError, KeyError, UnicodeDecodeError):
            self._send_json(
                400, {"error": "suppression body needs at least {\"race\": ...}"}
            )
            return
        ttl = document.get("ttl_s")
        try:
            rule_id = self.service.suppress_race(
                str(race),
                digest=str(document.get("digest", "")),
                reason=str(document.get("reason", "")),
                created_by=str(document.get("by", "")),
                ttl_s=float(ttl) if ttl is not None else None,
            )
        except ValueError as error:
            if "fleet store not configured" in str(error):
                self._fleet_disabled(error)
            else:
                self._send_json(400, {"error": str(error)})
            return
        self._send_json(201, {"rule_id": rule_id})

    def _delete_suppression(self, rule_id: str) -> None:
        try:
            removed = self.service.unsuppress_race(rule_id)
        except ValueError as error:
            self._fleet_disabled(error)
            return
        if not removed:
            self._send_json(404, {"error": "no such suppression %s" % rule_id})
            return
        self._send_json(200, {"removed": True, "rule_id": rule_id})


class AnalysisHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AnalysisService`."""

    daemon_threads = True

    def __init__(self, service: AnalysisService, host: str, port: int):
        super().__init__((host, port), AnalysisRequestHandler)
        self.service = service
        self.verbose = False

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)


def make_server(
    service: AnalysisService,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> AnalysisHTTPServer:
    """Bind (but do not start) the API server; ``port=0`` picks a free port."""
    config = service.config
    return AnalysisHTTPServer(
        service,
        config.host if host is None else host,
        config.port if port is None else port,
    )


def serve_forever(config: ServiceConfig, out=None) -> int:
    """Run a full service deployment until interrupted (the CLI verb).

    Starts the service (journal recovery + workers), binds the API,
    blocks in ``serve_forever``, and on ``KeyboardInterrupt`` — or
    SIGTERM, the supervisor's stop signal, which is mapped onto the same
    path — performs a graceful drain: no new admissions, queued work
    finishes, then the pool stops.  Returns the process exit code.
    """
    import signal
    import sys

    out = out if out is not None else sys.stdout

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread (embedded in a test)
        pass
    service = AnalysisService(config).start()
    server = make_server(service)
    print("repro analysis service listening on %s" % server.url, file=out)
    print(
        "  shards=%d pool=%s queue=%d journal=%s cache=%s fleet=%s"
        % (
            config.effective_shards(),
            config.pool_size or "inline",
            config.queue_capacity,
            config.journal_path or "-",
            config.cache_dir or "-",
            config.fleet_dir or "-",
        ),
        file=out,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        print("shutting down: draining queue...", file=out)
    finally:
        # Stop accepting connections first, then drain the queue so
        # journaled work finishes before the process exits.
        threading.Thread(target=server.shutdown, daemon=True).start()
        service.shutdown(drain=True)
        server.server_close()
    print("shutdown complete", file=out)
    return 0
