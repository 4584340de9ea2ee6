"""Tiny threaded HTTP telemetry endpoint.

Serves a session's :class:`~repro.obs.Observability` live:

* ``GET /healthz`` — liveness probe, ``{"status": "ok"}``;
* ``GET /metrics`` — Prometheus text exposition (v0.0.4);
* ``GET /metrics.json`` — the registry's JSON snapshot;
* ``GET /traces`` — ids of every live trace;
* ``GET /trace/<id>`` — one resolved span tree (round links spliced);
* ``GET /audit`` — the audit chain's head hash + length (the
  independent channel an auditor needs to detect a truncated tail);
* ``GET /audit/<seq>`` — one :class:`~repro.obs.audit.RoundCommitment`
  as JSON. Both 404 unless the session armed ``SessionConfig.audit``
  alongside observability.

Implemented on the stdlib ``http.server.ThreadingHTTPServer`` — no
HTTP framework, no new dependency; enough of HTTP/1.0 for ``curl``,
Prometheus scrapes and ``urllib``. The listener runs on one daemon
thread (plus one short-lived thread per request); the registry and
tracer readers take their own locks, so it serves while the session
that feeds it runs on other threads. The caller owns its lifetime::

    with TelemetryServer(sess.obs) as tel:
        report = gateway.run()
        ...  # query tel.url while the server is still up
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socketserver import TCPServer
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from . import Observability

__all__ = ["TelemetryServer"]

_PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_TYPE = "application/json; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes every method through :meth:`TelemetryServer._route`."""

    #: a client that never finishes its request line is dropped
    timeout = 5.0

    def _serve(self) -> None:
        status, ctype, body = self.server.telemetry._route(self.command, self.path)
        code, _, reason = status.partition(" ")
        self.send_response(int(code), reason)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    do_GET = do_HEAD = do_POST = do_PUT = do_DELETE = do_PATCH = _serve

    def log_message(self, format: str, *args: Any) -> None:
        pass  # no per-request stderr line


class _Server(ThreadingHTTPServer):
    telemetry: "TelemetryServer"

    def server_bind(self) -> None:
        # skip HTTPServer's socket.getfqdn(host): a reverse DNS lookup
        # that can stall start() on a host with a broken resolver
        TCPServer.server_bind(self)


class TelemetryServer:
    """One threaded HTTP listener over one Observability bundle."""

    def __init__(
        self, obs: "Observability | None", host: str = "127.0.0.1", port: int = 0
    ) -> None:
        if obs is None:
            raise RuntimeError(
                "telemetry endpoint needs observability=True on the session config"
            )
        self.obs = obs
        self.host = host
        self.port = port
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "TelemetryServer":
        server = _Server((self.host, self.port), _Handler)
        server.telemetry = self
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever, name="telemetry-http", daemon=True
        )
        self._thread.start()
        self._server = server
        return self

    def stop(self) -> None:
        """Stop serving; joins the listener and any in-flight request
        threads, so no thread outlives the call. Idempotent."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join()
            self._server = self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ----------------------------------------------
    def _route(self, method: str, path: str) -> tuple[str, str, bytes]:
        if method not in ("GET", "HEAD"):
            return self._json("405 Method Not Allowed", {"error": "GET only"})
        path = path.split("?", 1)[0]
        if path == "/healthz":
            return self._json("200 OK", {"status": "ok"})
        if path == "/metrics":
            text = self.obs.registry.render_prometheus()
            return "200 OK", _PROM_TYPE, text.encode()
        if path == "/metrics.json":
            return self._json("200 OK", self.obs.registry.snapshot())
        if path == "/traces":
            return self._json("200 OK", {"traces": list(self.obs.tracer.trace_ids())})
        if path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            if not self.obs.tracer.has(trace_id):
                return self._json(
                    "404 Not Found", {"error": f"unknown trace {trace_id!r}"}
                )
            return self._json("200 OK", self.obs.tracer.to_dict(trace_id))
        if path == "/audit":
            audit = getattr(self.obs, "audit", None)
            if audit is None:
                return self._json(
                    "404 Not Found",
                    {"error": "auditing is not armed (SessionConfig.audit)"},
                )
            return self._json(
                "200 OK", {"head": audit.head, "length": len(audit)}
            )
        if path.startswith("/audit/"):
            audit = getattr(self.obs, "audit", None)
            if audit is None:
                return self._json(
                    "404 Not Found",
                    {"error": "auditing is not armed (SessionConfig.audit)"},
                )
            raw = path[len("/audit/"):]
            try:
                seq = int(raw)
            except ValueError:
                return self._json(
                    "404 Not Found", {"error": f"bad audit seq {raw!r}"}
                )
            if not 0 <= seq < len(audit):
                return self._json(
                    "404 Not Found",
                    {"error": f"audit seq {seq} out of range (chain has "
                              f"{len(audit)} records)"},
                )
            return self._json("200 OK", audit.records[seq].to_dict())
        return self._json("404 Not Found", {"error": f"no route {path!r}"})

    @staticmethod
    def _json(status: str, payload: Any) -> tuple[str, str, bytes]:
        return status, _JSON_TYPE, json.dumps(payload).encode()
