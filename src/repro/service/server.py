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
                                   "priority": P} (no other field)
    POST /shards/claim            {"worker": id} → shard lease or {"shard": null}
    POST /shards/{id}/complete    {"worker": id, "report": <report doc|text>}
    POST /shards/{id}/fail        {"worker": id, "error": msg}
    POST /shards/{id}/heartbeat   {"worker": id, "completed": C, "total": T}
                                  (progress fields optional)

Error mapping: :class:`repro.errors.TransitionError` → 409 (lease lost /
illegal lifecycle step), :class:`repro.errors.ServiceLookupError` → 404,
any other :class:`repro.errors.ReproError` (malformed plans, bad
arguments) → 400, unexpected exceptions → 500.  Every error body is
``{"error": "..."}`` so clients surface one-line messages.
"""

from __future__ import annotations

import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import (
    ReproError,
    ServiceError,
    ServiceLookupError,
    TransitionError,
)
from repro.service import DEFAULT_PORT
from repro.service.coordinator import Coordinator


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
        try:
            body = self._read_body()
            if parts == ["plans"]:
                unknown = sorted(body.keys() - {"plan", "shards", "priority"})
                if unknown:
                    raise ServiceError(
                        f"POST /plans: unknown field(s) {', '.join(unknown)}; "
                        'expected "plan", "shards" and "priority"'
                    )
                if "plan" not in body:
                    raise ServiceError('POST /plans needs a "plan" field')
                shards = body.get("shards", 1)
                if not isinstance(shards, int) or isinstance(shards, bool):
                    raise ServiceError(
                        f'"shards" must be an integer, got {shards!r}'
                    )
                priority = body.get("priority", 0)
                if not isinstance(priority, int) or isinstance(priority, bool):
                    raise ServiceError(
                        f'"priority" must be an integer, got {priority!r}'
                    )
                plan_text = _json_text(body["plan"], '"plan"')
                self._reply(
                    200, coordinator.submit(plan_text, shards, priority)
                )
            elif parts == ["shards", "claim"]:
                shard = coordinator.claim(self._worker(body))
                self._reply(200, {"shard": shard})
            elif len(parts) == 3 and parts[0] == "shards":
                shard_id = self._shard_id(parts[1])
                action = parts[2]
                if action == "complete":
                    if "report" not in body:
                        raise ServiceError('complete needs a "report" field')
                    report_text = _json_text(body["report"], '"report"')
                    self._reply(
                        200,
                        coordinator.complete(
                            shard_id, self._worker(body), report_text
                        ),
                    )
                elif action == "fail":
                    self._reply(
                        200,
                        coordinator.fail(
                            shard_id,
                            self._worker(body),
                            str(body.get("error", "unspecified worker error")),
                        ),
                    )
                elif action == "heartbeat":
                    self._reply(
                        200,
                        coordinator.heartbeat(
                            shard_id,
                            self._worker(body),
                            self._progress_field(body, "completed"),
                            self._progress_field(body, "total"),
                        ),
                    )
                else:
                    self._reply(
                        404, {"error": f"no such shard action: {action!r}"}
                    )
            else:
                self._reply(404, {"error": f"no such route: POST {self.path}"})
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
    def _worker(body: Dict[str, Any]) -> str:
        worker = body.get("worker")
        if not worker or not isinstance(worker, str):
            raise ServiceError('request needs a non-empty "worker" id')
        return worker

    @staticmethod
    def _progress_field(body: Dict[str, Any], name: str) -> Optional[int]:
        value = body.get(name)
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ServiceError(
                f'"{name}" must be a non-negative integer, got {value!r}'
            )
        return value

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
