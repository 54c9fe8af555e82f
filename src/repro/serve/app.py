"""The query service and its stdlib HTTP front end.

:class:`QueryService` is the transport-independent core — it owns the
engine, the admission controller, and the single-flight map, and is
what the tests drive directly. :func:`make_server` wraps it in a
``ThreadingHTTPServer`` (one thread per connection, stdlib only).

Error mapping, uniform across routes::

    WireFormatError        -> 400 (malformed payload)
    DatasetNotLoadedError  -> 404 (unknown dataset name)
    OverloadedError        -> 429 queue full / 503 queue timeout
    other EngineError      -> 500

HTTP/1.0 responses with ``Connection: close``: buffered routes carry a
Content-Length; the streaming route writes NDJSON until EOF, which is
the framing (no chunked encoding needed).
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.config import resolve_setting
from repro.core.errors import (
    DatasetNotLoadedError,
    EngineError,
    WireFormatError,
)
from repro.core.plan import QuerySpec
from repro.obs.logs import get_logger, log_event
from repro.serve.admission import AdmissionController, OverloadedError
from repro.serve.coalesce import SingleFlight
from repro.serve.stream import FrameEmitter
from repro.serve.wire import spec_key

__all__ = ["QueryService", "make_server"]

_LOG = get_logger("serve")


class QueryService:
    """Datasets + admission + coalescing behind the wire schema."""

    def __init__(self, engine, max_inflight=None, max_queue=None,
                 queue_timeout_seconds: float = 30.0):
        self.engine = engine
        self.metrics = engine.metrics
        # The execution entry point, separable for tests (gate the
        # leader, count invocations) without monkeypatching the engine.
        self._execute = engine.execute
        self.admission = AdmissionController(
            resolve_setting("serve_max_inflight", override=max_inflight),
            resolve_setting("serve_max_queue", override=max_queue),
            queue_timeout_seconds=queue_timeout_seconds,
            metrics=self.metrics,
        )
        self.flights = SingleFlight(metrics=self.metrics)
        self._m_requests = self.metrics.counter(
            "repro_server_requests_total", "HTTP requests served, by route and code."
        )

    # -- routes ----------------------------------------------------------------

    def healthz(self) -> dict:
        return {"ok": True, "datasets": len(self.engine.dataset_names)}

    def datasets(self) -> dict:
        # ``storage`` reports where each dataset's objects live ("shard"
        # datasets are memory-mapped and lazily materialized; "legacy"
        # and "memory" are fully resident) so operators can see which
        # loaded datasets share pages across process workers.
        return {
            "datasets": self.engine.dataset_names,
            "storage": {
                name: self.engine.dataset(name).storage
                for name in self.engine.dataset_names
            },
        }

    def metrics_text(self) -> str:
        return self.metrics.to_prometheus()

    def parse_spec(self, payload) -> QuerySpec:
        """Wire payload -> normalized spec, dataset names verified.

        Name resolution happens *before* any admission or streaming
        headers so unknown datasets map to a clean 404.
        """
        spec = QuerySpec.from_wire(payload)
        for name in (spec.source, spec.target):
            if name is not None and name not in self.engine.dataset_names:
                raise DatasetNotLoadedError(name)
        return spec

    def query(self, payload) -> tuple[dict, bool]:
        """One buffered query; returns ``(result_wire, coalesced)``.

        Identical concurrent specs share one execution (and one decode
        fan-out); only the leader consumes an admission slot — followers
        cost the server nothing.
        """
        spec = self.parse_spec(payload)
        key = spec_key(spec)

        def run():
            with self.admission.slot():
                return self._execute(spec)

        result, leader = self.flights.run(key, run)
        log_event(
            _LOG, "serve_query", kind=spec.kind, coalesced=not leader,
            matches=result.total_matches, complete=result.complete,
        )
        return result.to_wire(), not leader

    def run_stream(self, spec: QuerySpec, emitter: FrameEmitter) -> None:
        """Drive one progressive query into ``emitter`` (headers already sent).

        Streaming requests never coalesce — frames are a per-connection
        side effect, not a shareable value — and attach the emitter as
        the spec's in-process progress hook.
        """
        emitter.emit_hello(spec)
        live = replace(spec, progress=emitter.pairs_hook)
        try:
            with self.admission.slot():
                result = self._execute(live)
        except OverloadedError as exc:
            emitter.emit_error(exc.status, str(exc))
            return
        except EngineError as exc:
            emitter.emit_error(500, str(exc))
            return
        # Catch-up: backends that strip the progress hook (process
        # workers) and paths without per-round settles still stream a
        # complete answer.
        emitter.flush_missing(result)
        emitter.emit_summary(result)
        log_event(
            _LOG, "serve_stream", kind=spec.kind,
            matches=result.total_matches, complete=result.complete,
        )


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over the :class:`QueryService` routes."""

    server_version = "repro-serve/1"

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        _LOG.debug("http %s", format % args)

    def _send_json(self, status: int, payload: dict, route: str) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.service._m_requests.inc(route=route, code=str(status))

    def _send_error_json(self, status: int, message: str, route: str) -> None:
        if status == 429:
            # One well-behaved retry hint; the admission queue was full.
            self.send_response_only(status)
            self.send_header("Retry-After", "1")
            self.send_header("Content-Type", "application/json")
            body = json.dumps({"error": message}).encode("utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
            self.service._m_requests.inc(route=route, code=str(status))
            return
        self._send_json(status, {"error": message}, route)

    def _read_json(self):
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            raise WireFormatError(f"invalid Content-Length {header!r}")
        length = int(header)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"request body is not valid JSON: {exc}") from exc

    # -- verbs -----------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send_json(200, self.service.healthz(), "/healthz")
        elif self.path == "/metrics":
            body = self.service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
            self.service._m_requests.inc(route="/metrics", code="200")
        elif self.path == "/v1/datasets":
            self._send_json(200, self.service.datasets(), "/v1/datasets")
        else:
            self._send_json(404, {"error": f"no route {self.path}"}, self.path)

    def do_POST(self):  # noqa: N802 - stdlib naming
        if self.path == "/v1/query":
            self._post_query()
        elif self.path == "/v1/query/stream":
            self._post_query_stream()
        else:
            self._send_json(404, {"error": f"no route {self.path}"}, self.path)

    def _post_query(self) -> None:
        route = "/v1/query"
        try:
            payload = self._read_json()
            result_wire, coalesced = self.service.query(payload)
        except WireFormatError as exc:
            self._send_error_json(400, str(exc), route)
        except DatasetNotLoadedError as exc:
            self._send_error_json(404, f"dataset not loaded: {exc}", route)
        except OverloadedError as exc:
            self._send_error_json(exc.status, str(exc), route)
        except EngineError as exc:
            self._send_error_json(500, str(exc), route)
        else:
            body = json.dumps(result_wire).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            if coalesced:
                self.send_header("X-Repro-Coalesced", "1")
            self.end_headers()
            self.wfile.write(body)
            self.service._m_requests.inc(route=route, code="200")

    def _post_query_stream(self) -> None:
        route = "/v1/query/stream"
        try:
            payload = self._read_json()
            spec = self.service.parse_spec(payload)
        except WireFormatError as exc:
            self._send_error_json(400, str(exc), route)
            return
        except DatasetNotLoadedError as exc:
            self._send_error_json(404, f"dataset not loaded: {exc}", route)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        emitter = FrameEmitter(self.wfile.write)
        self.service.run_stream(spec, emitter)
        self.service._m_requests.inc(route=route, code="200")


def make_server(engine, host: str = "127.0.0.1", port=None,
                max_inflight=None, max_queue=None,
                queue_timeout_seconds: float = 30.0) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server around ``engine``.

    ``port``/``max_inflight``/``max_queue`` resolve through the shared
    precedence chain (call-site override > ``REPRO_SERVE_*`` env >
    default); port 0 asks the OS for a free port — read it back from
    ``server.server_address``.
    """
    service = QueryService(
        engine, max_inflight=max_inflight, max_queue=max_queue,
        queue_timeout_seconds=queue_timeout_seconds,
    )
    server = ThreadingHTTPServer(
        (host, resolve_setting("serve_port", override=port)), _Handler
    )
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server


def serve_forever(server: ThreadingHTTPServer) -> None:
    """Blocking serve loop with a clean KeyboardInterrupt shutdown."""
    host, port = server.server_address[:2]
    log_event(_LOG, "serve_start", host=host, port=port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        log_event(_LOG, "serve_stop", host=host, port=port)


def _spawn(server: ThreadingHTTPServer) -> threading.Thread:
    """Run the serve loop on a daemon thread (tests and smoke scripts)."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
