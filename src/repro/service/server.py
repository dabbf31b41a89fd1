"""Stdlib HTTP front end for the sweep coordinator (no new dependencies).

A thin JSON layer over :class:`repro.service.coordinator.Coordinator`,
served by ``http.server.ThreadingHTTPServer`` — one handler thread per
connection, all funneling into the lock-serialized job store.

Routes (all bodies and responses are JSON):

.. code-block:: text

    GET  /healthz                 liveness probe
    GET  /plans                   list submitted plans
    GET  /plans/{id}              plan status: state, per-shard lifecycle rows
    GET  /plans/{id}/report       merged canonical report JSON (verbatim bytes)
    POST /plans                   {"plan": <plan doc|text>, "shards": N,
                                   "priority": P}
    POST /shards/claim            {"worker": id} → shard lease or {"shard": null}
    POST /shards/{id}/complete    {"worker": id, "report": <report doc|text>}
    POST /shards/{id}/fail        {"worker": id, "error": msg}
    POST /shards/{id}/heartbeat   {"worker": id, "completed": C, "total": T}
                                  (progress optional, as a pair)

The server checks only a body's shape: a JSON object whose keys are all
in its route's row of one field table (``_POST_FIELDS``), so a misspelled
key answers 400 and changes nothing.  The coordinator checks every value,
and the store the lease.

Error mapping: :class:`repro.errors.TransitionError` → 409 (the caller
holds no lease on the shard — reaped, re-assigned or sealed — or an
illegal lifecycle step), :class:`repro.errors.ServiceLookupError` → 404,
any other :class:`repro.errors.ReproError` (malformed plans, bad
arguments, unknown body keys) → 400, unexpected exceptions → 500.  Every
error body is ``{"error": "..."}`` so clients surface one-line messages.
"""

from __future__ import annotations

import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Tuple, Union

from repro.errors import (
    ReproError,
    ServiceError,
    ServiceLookupError,
    TransitionError,
)
from repro.service import DEFAULT_PORT
from repro.service.coordinator import Coordinator

#: The body fields each POST route reads; any other key is refused.
_POST_FIELDS: Dict[str, Tuple[str, ...]] = {
    "/plans": ("plan", "shards", "priority"),
    "/shards/claim": ("worker",),
    "/shards/{id}/complete": ("worker", "report"),
    "/shards/{id}/fail": ("worker", "error"),
    "/shards/{id}/heartbeat": ("worker", "completed", "total"),
}


def _json_text(value: Union[str, Dict[str, Any]], what: str) -> str:
    """Accept a document either inline (object) or as a JSON string."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return json.dumps(value)
    raise ServiceError(f"{what} must be a JSON object or string, got {value!r}")


class ServiceHTTPServer(ThreadingHTTPServer):
    """The coordinator's HTTP server; ``.port`` is the bound port."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], coordinator: Coordinator) -> None:
        super().__init__(address, _Handler)
        self.coordinator = coordinator

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = str(self.server_address[0])
        if ":" in host:  # bare IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{self.port}"


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # -- dispatch ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        coordinator = self.server.coordinator
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        try:
            if parts == ["healthz"]:
                self._reply(200, {"status": "ok"})
            elif parts == ["plans"]:
                self._reply(200, {"plans": coordinator.list_plans()})
            elif len(parts) == 2 and parts[0] == "plans":
                self._reply(200, coordinator.plan_status(parts[1]))
            elif len(parts) == 3 and parts[0] == "plans" and parts[2] == "report":
                # The merged report is served verbatim: these bytes are the
                # artifact the CI job `cmp`s against a single-shot run.
                self._reply_raw(200, coordinator.plan_report(parts[1]))
            else:
                self._reply(404, {"error": f"no such route: GET {self.path}"})
        except Exception as exc:  # mapped to a status below
            self._reply_error(exc)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        coordinator = self.server.coordinator
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        shard = len(parts) == 3 and parts[0] == "shards"
        route = "/" + "/".join(["shards", "{id}", parts[2]] if shard else parts)
        try:
            body = self._read_body()  # always, so a kept-alive connection stays framed
            if route not in _POST_FIELDS:
                self._reply(404, {"error": f"no such route: POST {self.path}"})
                return
            unknown = sorted(body.keys() - set(_POST_FIELDS[route]))
            if unknown:
                raise ServiceError(
                    f"POST {route}: unknown field(s) {', '.join(unknown)}; "
                    f"expected {', '.join(_POST_FIELDS[route])}"
                )
            worker = body.get("worker")
            if route == "/plans":
                self._reply(200, coordinator.submit(
                    _json_text(body.get("plan"), '"plan"'),
                    body.get("shards", 1),
                    body.get("priority", 0),
                ))
            elif route == "/shards/claim":
                self._reply(200, {"shard": coordinator.claim(worker)})
            elif parts[2] == "complete":
                report_text = _json_text(body.get("report"), '"report"')
                self._reply(200, coordinator.complete(
                    self._shard_id(parts[1]), worker, report_text
                ))
            elif parts[2] == "fail":
                error = str(body.get("error", "unspecified worker error"))
                self._reply(200, coordinator.fail(
                    self._shard_id(parts[1]), worker, error
                ))
            else:
                self._reply(200, coordinator.heartbeat(
                    self._shard_id(parts[1]),
                    worker,
                    body.get("completed"),
                    body.get("total"),
                ))
        except Exception as exc:
            self._reply_error(exc)

    # -- request/response plumbing --------------------------------------------------

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    @staticmethod
    def _shard_id(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ServiceLookupError(f"unknown shard {raw!r}") from None

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        self._reply_raw(status, json.dumps(payload))

    def _reply_raw(self, status: int, text: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up; nothing to salvage

    def _reply_error(self, exc: Exception) -> None:
        if isinstance(exc, TransitionError):
            status = 409
        elif isinstance(exc, ServiceLookupError):
            status = 404
        elif isinstance(exc, ReproError):
            status = 400
        else:
            status = 500
        self._reply(status, {"error": str(exc) or type(exc).__name__})

    def log_message(self, format: str, *args: Any) -> None:
        pass  # keep worker/CI logs readable; errors travel in responses


def create_server(
    coordinator: Coordinator,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
) -> ServiceHTTPServer:
    """Bind the coordinator's HTTP server (``port=0`` picks a free port)."""
    try:
        return ServiceHTTPServer((host, port), coordinator)
    except (OSError, socket.gaierror) as exc:
        raise ServiceError(
            f"cannot bind sweep service to {host}:{port}: {exc}"
        ) from None
