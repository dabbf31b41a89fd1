"""The sweep coordinator: policy on top of the durable job store.

A :class:`Coordinator` turns the :class:`repro.service.store.JobStore`
primitives into the service's semantics:

- **submit** — validate the posted :class:`repro.runtime.plan.SweepPlan`
  (it must be unsharded), canonicalize it, clamp the requested fan-out to
  the plan's distinct-point count, and enqueue one PENDING row per shard.
  Submission is idempotent on (canonical plan JSON, effective shard count).
- **claim / heartbeat / complete / fail** — the worker-facing lease
  protocol.  The coordinator checks every request value (worker id,
  shard count, priority, progress); the store alone checks the lease, in
  the step that moves the shard.  ``complete`` validates the posted shard
  report against the stored plan (right plan, right shard) and
  re-canonicalizes it, so the bytes the store holds never depend on a
  client's JSON formatting.
- **merge on completion** — the moment the last shard completes, the shard
  reports merge (:meth:`repro.runtime.plan.SweepReport.merge`) and the
  merged canonical JSON is persisted on the plan row.  Because shard
  merging is bit-identical to an unsharded run, the served report is
  byte-for-byte what ``Session.run(plan)`` would have produced.
- **retry budget** — worker-reported failures and expired leases both
  re-queue the shard (ACTIVE → PENDING) until the shard has been claimed
  ``max_attempts`` times; after that it seals FAILED.
- **reaper** — :meth:`reap` is one pass over expired leases;
  :meth:`start_reaper` runs it on a daemon thread every
  ``reap_interval`` seconds, which is what lets SIGKILLed workers'
  shards flow back into the queue.  The store re-checks each expiry in
  the step that releases it, so a heartbeat that lands mid-pass wins.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.runtime.plan import SweepPlan, SweepReport
from repro.service.store import JobStore, ShardState


class ServiceConfig:
    """Coordinator policy knobs (validated at construction)."""

    def __init__(
        self,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        reap_interval: float = 1.0,
    ) -> None:
        if lease_seconds <= 0:
            raise ServiceError(
                f"lease must be a positive number of seconds, got {lease_seconds!r}"
            )
        if max_attempts < 1:
            raise ServiceError(
                f"max attempts must be a positive integer, got {max_attempts!r}"
            )
        if reap_interval <= 0:
            raise ServiceError(
                f"reap interval must be positive seconds, got {reap_interval!r}"
            )
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.reap_interval = reap_interval


def _check_worker(worker_id: str) -> str:
    if not isinstance(worker_id, str) or not worker_id:
        raise ServiceError(f"worker id must be a non-empty string, got {worker_id!r}")
    return worker_id


class Coordinator:
    """Serve one job store: submission, leases, retries, merged reports."""

    def __init__(
        self, store: JobStore, config: Optional[ServiceConfig] = None
    ) -> None:
        self.store = store
        self.config = config if config is not None else ServiceConfig()
        self._reaper: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- submission ------------------------------------------------------------------

    def submit(
        self, plan_text: str, shards: int, priority: int = 0
    ) -> Dict[str, Any]:
        """Validate, canonicalize and enqueue a plan; idempotent.

        ``priority`` steers the claim queue (higher drains first) without
        entering the plan identity — resubmitting an existing plan returns
        it with its original priority.
        """
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ServiceError(
                f"shards must be a positive integer, got {shards!r}"
            )
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ServiceError(f"priority must be an integer, got {priority!r}")
        plan = SweepPlan.from_json(plan_text)  # ExperimentError on bad JSON
        if plan.shard_spec is not None:
            raise ServiceError(
                "submit the unsharded plan; the service shards it "
                f"(got shard {plan.shard_spec[0]}/{plan.shard_spec[1]})"
            )
        canonical = plan.to_json()
        distinct = len(plan.distinct_keys())
        effective = min(shards, distinct)
        row, created = self.store.submit_plan(
            canonical, effective, time.time(), priority
        )
        return {
            "plan_id": row.plan_id,
            "shard_count": row.shard_count,
            "distinct_points": distinct,
            "job_count": plan.job_count(),
            "created": created,
            "priority": row.priority,
        }

    # -- the worker-facing lease protocol --------------------------------------------

    def claim(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Lease the oldest PENDING shard, or ``None`` when the queue is dry."""
        shard = self.store.claim_shard(
            _check_worker(worker_id), self.config.lease_seconds, time.time()
        )
        if shard is None:
            return None
        plan = self.store.get_plan(shard.plan_id)
        return {
            "shard_id": shard.shard_id,
            "plan_id": shard.plan_id,
            "shard_index": shard.shard_index,
            "shard_count": shard.shard_count,
            "attempts": shard.attempts,
            "lease_seconds": self.config.lease_seconds,
            "lease_deadline": shard.lease_deadline,
            "plan": plan.plan_json,
        }

    def heartbeat(
        self,
        shard_id: int,
        worker_id: str,
        completed: Optional[int] = None,
        total: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Extend a lease, optionally recording shard progress.

        ``completed``/``total`` (distinct points done out of the shard's
        total) come from the worker's :meth:`Session.run` progress callback
        and surface in :meth:`plan_status` / ``repro status``.  They come
        as a pair or not at all, and ``completed`` never exceeds ``total``.
        """
        _check_worker(worker_id)
        for name, value in (("completed", completed), ("total", total)):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 0
            ):
                raise ServiceError(
                    f"progress {name} must be a non-negative integer, got {value!r}"
                )
        if (completed is None) != (total is None) or (completed or 0) > (total or 0):
            raise ServiceError(
                "progress needs completed <= total, both or neither; got "
                f"completed={completed!r}, total={total!r}"
            )
        deadline = self.store.heartbeat_shard(
            shard_id,
            worker_id,
            self.config.lease_seconds,
            time.time(),
            completed,
            total,
        )
        return {"shard_id": shard_id, "lease_deadline": deadline}

    def complete(
        self, shard_id: int, worker_id: str, report_text: str
    ) -> Dict[str, Any]:
        """Accept a shard report, seal the shard, merge the plan when done."""
        # Refuse a zombie before bothering to parse.
        shard = self.store.check_lease(shard_id, _check_worker(worker_id))
        plan_row = self.store.get_plan(shard.plan_id)
        report = SweepReport.from_json(report_text)  # ExperimentError if bad
        spec = report.plan.shard_spec
        expected = (shard.shard_index, shard.shard_count)
        if report.plan.unsharded().to_json() != plan_row.plan_json:
            raise ServiceError(
                f"shard {shard_id} report is for a different plan than "
                f"{shard.plan_id!r}"
            )
        if spec != expected and not (spec is None and shard.shard_count == 1):
            raise ServiceError(
                f"shard {shard_id} report covers shard "
                f"{'none' if spec is None else '%d/%d' % spec}, expected "
                f"{expected[0]}/{expected[1]}"
            )
        self.store.complete_shard(shard_id, worker_id, report.to_json())
        done = self._merge_if_complete(shard.plan_id)
        return {"shard_id": shard_id, "plan_id": shard.plan_id, "done": done}

    def fail(self, shard_id: int, worker_id: str, error: str) -> Dict[str, Any]:
        """Record a worker-reported failure: re-queue or seal FAILED."""
        worker_id = _check_worker(worker_id)
        shard = self.store.release_shard(
            shard_id,
            f"worker {worker_id!r}: {error}",
            self.config.max_attempts,
            worker_id=worker_id,
        )
        assert shard is not None  # a worker's release writes or raises
        return {
            "shard_id": shard_id,
            "plan_id": shard.plan_id,
            "state": shard.state.value,
            "attempts": shard.attempts,
        }

    # -- plan status -----------------------------------------------------------------

    def plan_status(self, plan_id: str) -> Dict[str, Any]:
        plan = self.store.get_plan(plan_id)
        shards = self.store.shards(plan_id)
        counts = {state: 0 for state in ShardState}
        for shard in shards:
            counts[shard.state] += 1
        if counts[ShardState.FAILED]:
            state = "failed"
        elif counts[ShardState.COMPLETED] == len(shards):
            state = "completed"
        else:
            state = "running"
        return {
            "plan_id": plan_id,
            "state": state,
            "shard_count": plan.shard_count,
            "submitted_at": plan.submitted_at,
            "priority": plan.priority,
            "counts": {s.value: n for s, n in counts.items()},
            "report_available": plan.report_json is not None,
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "shard_index": shard.shard_index,
                    "state": shard.state.value,
                    "attempts": shard.attempts,
                    "worker_id": shard.worker_id,
                    "lease_deadline": shard.lease_deadline,
                    "last_error": shard.last_error,
                    "progress_completed": shard.progress_completed,
                    "progress_total": shard.progress_total,
                }
                for shard in shards
            ],
        }

    def plan_report(self, plan_id: str) -> str:
        """The merged canonical report JSON of a fully completed plan."""
        plan = self.store.get_plan(plan_id)
        if plan.report_json is None:
            status = self.plan_status(plan_id)
            raise ServiceError(
                f"plan {plan_id!r} has no merged report yet "
                f"(state: {status['state']}, counts: {status['counts']})"
            )
        return plan.report_json

    def list_plans(self) -> List[Dict[str, Any]]:
        return [
            {
                "plan_id": row.plan_id,
                "shard_count": row.shard_count,
                "submitted_at": row.submitted_at,
                "priority": row.priority,
                "state": self.plan_status(row.plan_id)["state"],
            }
            for row in self.store.list_plans()
        ]

    # -- lease reaping ---------------------------------------------------------------

    def reap(self, now: Optional[float] = None) -> List[Tuple[int, str]]:
        """One pass: re-queue (or seal) every ACTIVE shard past its deadline;
        a shard whose lease moved on since the pass read it is skipped."""
        if now is None:
            now = time.time()
        outcomes: List[Tuple[int, str]] = []
        for shard in self.store.expired_shards(now):
            released = self.store.release_shard(
                shard.shard_id,
                f"lease expired (worker {shard.worker_id!r}, "
                f"attempt {shard.attempts})",
                self.config.max_attempts,
                expired_before=now,
            )
            if released is not None:
                outcomes.append((shard.shard_id, released.state.value))
        return outcomes

    def start_reaper(self) -> None:
        """Run :meth:`reap` every ``reap_interval`` seconds on a daemon thread."""
        if self._reaper is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.config.reap_interval):
                try:
                    self.reap()
                except Exception:  # the reaper must outlive transient errors
                    pass

        self._reaper = threading.Thread(
            target=_loop, name="lease-reaper", daemon=True
        )
        self._reaper.start()

    def stop(self) -> None:
        self._stop.set()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None

    # -- internals -------------------------------------------------------------------

    def _merge_if_complete(self, plan_id: str) -> bool:
        """Merge and persist the plan report once every shard is COMPLETED."""
        plan_row = self.store.get_plan(plan_id)
        if plan_row.report_json is not None:
            return True
        shards = self.store.shards(plan_id)
        if any(shard.state is not ShardState.COMPLETED for shard in shards):
            return False
        reports = [
            SweepReport.from_json(shard.report_json)
            for shard in shards
            if shard.report_json is not None
        ]
        merged = reports[0].merge(*reports[1:])
        self.store.store_plan_report(plan_id, merged.to_json())
        return True
