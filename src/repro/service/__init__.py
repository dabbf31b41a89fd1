"""``repro.service`` — the persistent sweep service.

Everything below :mod:`repro.runtime` treats a sweep as one in-process
call; this subsystem turns it into a long-running, multi-host *service*
built from four layers (bottom up):

- :mod:`repro.service.store` — durable SQLite (WAL) job store: submitted
  plans, their shards, and an explicit shard lifecycle state machine
  (``PENDING → ACTIVE → COMPLETED | FAILED``, ``ACTIVE → PENDING`` on
  retry/lease expiry; terminal states sealed, illegal transitions raise);
- :mod:`repro.service.coordinator` — policy: idempotent plan submission,
  shard leases with deadlines, a bounded retry budget, a lease reaper
  that re-queues shards whose worker died, and bit-identical shard-report
  merging the moment a plan completes;
- :mod:`repro.service.server` — a stdlib ``ThreadingHTTPServer`` JSON API
  over the coordinator (``repro serve``);
- :mod:`repro.service.worker` / :mod:`repro.service.client` — pull-model
  workers that run shards through the existing
  :class:`repro.runtime.session.Session` against the shared result cache,
  and the urllib client the workers and the CLI share.

The correctness oracle is the runtime's own shard determinism: the merged
report the coordinator serves for any plan is byte-identical to a
single-shot ``Session.run`` of that plan.

The package itself loads only :data:`DEFAULT_PORT`, so the CLI's parser can
name it without loading ``sqlite3`` or ``http.server``; every other name
loads on first use (:mod:`repro.utils.lazy`).
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import DeferredExports

#: Default coordinator port (an unassigned port in the registered range),
#: shared by the server, the client and the CLI's parser.
DEFAULT_PORT = 8035

if TYPE_CHECKING:
    from repro.service.store import (
        JobStore,
        LEGAL_TRANSITIONS,
        PlanRow,
        ShardRow,
        ShardState,
        TERMINAL_STATES,
        check_transition,
    )
    from repro.service.coordinator import Coordinator, ServiceConfig
    from repro.service.server import ServiceHTTPServer, create_server
    from repro.service.client import (
        SERVICE_URL_ENV,
        ServiceClient,
        service_url,
        validate_port,
    )
    from repro.service.worker import ShardWorker, default_worker_id

__getattr__ = DeferredExports(__name__, {
    "repro.service.store": (
        "JobStore",
        "LEGAL_TRANSITIONS",
        "PlanRow",
        "ShardRow",
        "ShardState",
        "TERMINAL_STATES",
        "check_transition",
    ),
    "repro.service.coordinator": ("Coordinator", "ServiceConfig"),
    "repro.service.server": ("ServiceHTTPServer", "create_server"),
    "repro.service.client": (
        "SERVICE_URL_ENV",
        "ServiceClient",
        "service_url",
        "validate_port",
    ),
    "repro.service.worker": ("ShardWorker", "default_worker_id"),
})

__all__ = [
    "JobStore",
    "LEGAL_TRANSITIONS",
    "PlanRow",
    "ShardRow",
    "ShardState",
    "TERMINAL_STATES",
    "check_transition",
    "Coordinator",
    "ServiceConfig",
    "DEFAULT_PORT",
    "ServiceHTTPServer",
    "create_server",
    "SERVICE_URL_ENV",
    "ServiceClient",
    "service_url",
    "validate_port",
    "ShardWorker",
    "default_worker_id",
]
