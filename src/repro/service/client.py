"""HTTP client for the sweep service (urllib only, no new dependencies).

:func:`service_url` is the one place service addresses are parsed — the
``--url`` flags, the ``REPRO_SERVICE_URL`` environment variable, and the
client constructor all go through it, so a malformed URL or port always
fails with the same clear one-line :class:`repro.errors.ServiceError`
(which the CLI renders as ``error: ...`` with exit code 1).

:class:`ServiceClient` mirrors the coordinator's routes one method per
endpoint and converts transport failures and HTTP error bodies back into
the service exception hierarchy: 409 → :class:`TransitionError` (lease
lost / illegal lifecycle step), 404 → :class:`ServiceLookupError`,
other errors → :class:`ServiceError`.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Union

from repro.errors import ServiceError, ServiceLookupError, TransitionError
from repro.runtime.plan import SweepPlan
from repro.service import DEFAULT_PORT

#: Environment variable naming the coordinator (used when ``--url`` is omitted).
SERVICE_URL_ENV = "REPRO_SERVICE_URL"


def validate_port(port: int) -> int:
    """A usable TCP port (0 = ephemeral, for tests) or a clear error."""
    if not isinstance(port, int) or isinstance(port, bool) or not 0 <= port <= 65535:
        raise ServiceError(
            f"port must be an integer in [0, 65535], got {port!r}"
        )
    return port


def service_url(raw: Optional[str] = None) -> str:
    """Resolve and validate the coordinator URL.

    ``raw`` falls back to ``$REPRO_SERVICE_URL``, then to
    ``http://127.0.0.1:8035``.  The value must be ``http(s)://host[:port]``
    with no path — anything else raises :class:`ServiceError` naming the
    offending value and, when it came from the environment, the variable.
    """
    source = "service URL"
    if raw is None:
        raw = os.environ.get(SERVICE_URL_ENV)
        source = SERVICE_URL_ENV
    if raw is None:
        return f"http://127.0.0.1:{DEFAULT_PORT}"
    try:
        parts = urllib.parse.urlsplit(raw)
        port = parts.port  # raises ValueError on non-numeric/out-of-range
    except ValueError as exc:
        raise ServiceError(f"malformed {source} {raw!r}: {exc}") from None
    if parts.scheme not in ("http", "https"):
        raise ServiceError(
            f"malformed {source} {raw!r}: expected http://host:port "
            f"(scheme {parts.scheme or 'missing'!r})"
        )
    if not parts.hostname:
        raise ServiceError(f"malformed {source} {raw!r}: no host")
    if parts.path not in ("", "/") or parts.query or parts.fragment:
        raise ServiceError(
            f"malformed {source} {raw!r}: the service mounts at the URL "
            "root; drop the path"
        )
    if port is not None and port == 0:
        raise ServiceError(f"malformed {source} {raw!r}: port 0 is not dialable")
    return f"{parts.scheme}://{parts.netloc}"


class ServiceClient:
    """One coordinator endpoint, one method per route."""

    def __init__(self, url: Optional[str] = None, timeout: float = 30.0) -> None:
        self.url = service_url(url)
        self.timeout = timeout

    # -- transport -------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> str:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            message = self._error_message(exc)
            if exc.code == 409:
                raise TransitionError(message) from None
            if exc.code == 404:
                raise ServiceLookupError(message) from None
            raise ServiceError(message) from None
        except (urllib.error.URLError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            raise ServiceError(
                f"cannot reach sweep service at {self.url}: {reason}"
            ) from None

    @staticmethod
    def _error_message(exc: urllib.error.HTTPError) -> str:
        try:
            body = json.loads(exc.read().decode("utf-8"))
            return str(body["error"])
        except Exception:
            return f"service returned HTTP {exc.code}"

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = json.loads(self._request(method, path, payload))
        if not isinstance(body, dict):
            raise ServiceError(f"service returned a non-object body for {path}")
        return body

    # -- routes ----------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def submit(
        self, plan: Union[SweepPlan, str], shards: int, priority: int = 0
    ) -> Dict[str, Any]:
        text = plan.to_json() if isinstance(plan, SweepPlan) else plan
        return self._json(
            "POST",
            "/plans",
            {"plan": text, "shards": shards, "priority": priority},
        )

    def claim(self, worker_id: str) -> Optional[Dict[str, Any]]:
        shard = self._json("POST", "/shards/claim", {"worker": worker_id})["shard"]
        if shard is not None and not isinstance(shard, dict):
            raise ServiceError("service returned a malformed shard lease")
        return shard

    def heartbeat(
        self,
        shard_id: int,
        worker_id: str,
        completed: Optional[int] = None,
        total: Optional[int] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"worker": worker_id}
        if completed is not None and total is not None:
            payload["completed"] = completed
            payload["total"] = total
        return self._json("POST", f"/shards/{shard_id}/heartbeat", payload)

    def complete(
        self, shard_id: int, worker_id: str, report_json: str
    ) -> Dict[str, Any]:
        return self._json(
            "POST",
            f"/shards/{shard_id}/complete",
            {"worker": worker_id, "report": report_json},
        )

    def fail(self, shard_id: int, worker_id: str, error: str) -> Dict[str, Any]:
        return self._json(
            "POST",
            f"/shards/{shard_id}/fail",
            {"worker": worker_id, "error": error},
        )

    def plan_status(self, plan_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/plans/{plan_id}")

    def plan_report(self, plan_id: str) -> str:
        """The merged report's canonical JSON, byte-for-byte as served."""
        return self._request("GET", f"/plans/{plan_id}/report")

    def list_plans(self) -> List[Dict[str, Any]]:
        plans = self._json("GET", "/plans")["plans"]
        if not isinstance(plans, list):
            raise ServiceError("service returned a malformed plan list")
        return plans

    # -- conveniences ----------------------------------------------------------------

    def wait_for_plan(
        self,
        plan_id: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.5,
    ) -> Dict[str, Any]:
        """Poll until the plan completes; raise on failure or timeout."""
        start = time.monotonic()
        while True:
            status = self.plan_status(plan_id)
            if status["state"] == "completed":
                return status
            if status["state"] == "failed":
                errors = [
                    shard["last_error"]
                    for shard in status["shards"]
                    if shard["state"] == "FAILED" and shard["last_error"]
                ]
                raise ServiceError(
                    f"plan {plan_id!r} failed: "
                    + ("; ".join(errors) or "shard(s) sealed FAILED")
                )
            if timeout is not None and time.monotonic() - start > timeout:
                raise ServiceError(
                    f"plan {plan_id!r} still {status['state']} after "
                    f"{timeout:.0f}s (counts: {status['counts']})"
                )
            time.sleep(poll_interval)
