"""Pull-model shard workers: claim, simulate, stream the report back.

A :class:`ShardWorker` is the service's unit of horizontal scale: point any
number of them (any host) at one coordinator and each loops

1. ``claim`` a PENDING shard lease;
2. decode the plan, take :meth:`repro.runtime.plan.SweepPlan.shard`
   ``(index, count)`` — the same deterministic partition ``repro plan run
   --shard`` uses — and run it through the existing
   :meth:`repro.runtime.session.Session.run` against the worker's
   (typically shared) :class:`repro.runtime.cache.ResultCache`;
3. heartbeat the lease from a side thread while the shard simulates, so
   long shards never expire under a live worker; each beat carries the
   shard's distinct-point progress (from :meth:`Session.run`'s progress
   callback), which ``repro status`` renders per shard;
4. ``complete`` with the shard :class:`SweepReport`'s canonical JSON.

Crash behavior is the whole point: a worker that dies (SIGKILL, OOM, host
loss) simply stops heartbeating, the coordinator's reaper re-queues the
shard at lease expiry, and any other worker picks it up — determinism
makes the retried result identical.  A worker that stalled past its
deadline holds no lease once the reaper has released the shard: from then
on its ``heartbeat``, ``complete`` or ``fail`` gets a 409 whether the shard
is re-queued, re-claimed or sealed (the store checks the lease in the step
that would move the shard), and the worker just moves on.

Exceptions *inside* the simulation are reported via ``fail`` (consuming
the shard's retry budget) and the worker keeps serving — one poisoned
shard never takes the worker down with it.

``stall_seconds`` is deliberate fault injection: sleep after claiming,
before simulating.  The crash tests and demos use it to park a worker
mid-shard and SIGKILL it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.runtime.plan import SweepPlan
from repro.runtime.session import Session
from repro.service.client import ServiceClient


def default_worker_id() -> str:
    """``host-pid`` — unique per worker process, stable within one."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _ShardProgress:
    """Latest (completed, total) hand-off from Session.run to the beater.

    :meth:`update` is the :meth:`repro.runtime.session.Session.run`
    progress callback (simulation thread); :meth:`read` is polled by the
    heartbeat thread.  A lock keeps the pair coherent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._completed: Optional[int] = None
        self._total: Optional[int] = None

    def update(self, completed: int, total: int) -> None:
        with self._lock:
            self._completed = completed
            self._total = total

    def read(self) -> Tuple[Optional[int], Optional[int]]:
        with self._lock:
            return self._completed, self._total


class ShardWorker:
    """One worker process's claim/run/report loop.

    Args:
        client: the coordinator endpoint.
        session_factory: builds the :class:`Session` the worker simulates
            with (defaults to :meth:`Session.from_env`, i.e. the shared
            on-disk cache and the CPU-count pool).  Called once; the
            session persists across shards and closes when the loop ends.
        worker_id: lease identity (default ``host-pid``).
        poll_interval: seconds between claims when the queue is dry.
        idle_exit: exit the loop after this many consecutive dry seconds
            (``None`` = serve forever).
        max_shards: stop after completing/failing this many shards
            (``None`` = unbounded).
        stall_seconds: fault injection — sleep this long between claiming
            and simulating (see the module docstring).
        log: progress sink (``print``); pass a no-op for quiet embedding.
    """

    def __init__(
        self,
        client: ServiceClient,
        session_factory: Optional[Callable[[], Session]] = None,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.5,
        idle_exit: Optional[float] = None,
        max_shards: Optional[int] = None,
        stall_seconds: float = 0.0,
        log: Callable[[str], None] = print,
    ) -> None:
        self.client = client
        self.session_factory = (
            session_factory if session_factory is not None else Session.from_env
        )
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.poll_interval = poll_interval
        self.idle_exit = idle_exit
        self.max_shards = max_shards
        self.stall_seconds = stall_seconds
        self.log = log
        self.completed = 0
        self.failed = 0

    def run(self) -> int:
        """Serve shards until idle-exit/max-shards; returns completions."""
        session = self.session_factory()
        idle_since: Optional[float] = None
        try:
            while True:
                if (
                    self.max_shards is not None
                    and self.completed + self.failed >= self.max_shards
                ):
                    return self.completed
                shard = self.client.claim(self.worker_id)
                if shard is None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if (
                        self.idle_exit is not None
                        and now - idle_since >= self.idle_exit
                    ):
                        return self.completed
                    time.sleep(self.poll_interval)
                    continue
                idle_since = None
                self._run_shard(session, shard)
        finally:
            session.close()

    # -- one shard -------------------------------------------------------------------

    def _run_shard(self, session: Session, shard: Dict[str, Any]) -> None:
        shard_id = int(shard["shard_id"])
        label = (
            f"shard {shard['shard_index']}/{shard['shard_count']} "
            f"of plan {shard['plan_id']}"
        )
        progress = _ShardProgress()
        stop_beating = self._start_heartbeat(
            shard_id, shard["lease_seconds"], progress
        )
        try:
            if self.stall_seconds > 0:  # fault injection: die here, mid-shard
                time.sleep(self.stall_seconds)
            plan = SweepPlan.from_json(shard["plan"])
            if shard["shard_count"] > 1:
                plan = plan.shard(shard["shard_index"], shard["shard_count"])
            start = time.perf_counter()
            report = session.run(plan, progress=progress.update)
            elapsed = time.perf_counter() - start
        except ReproError as exc:
            self.failed += 1
            self.log(f"worker {self.worker_id}: {label} failed: {exc}")
            self._report_failure(shard_id, str(exc))
            return
        finally:
            stop_beating.set()
        try:
            self.client.complete(shard_id, self.worker_id, report.to_json())
        except ServiceError as exc:
            # Lease lost (or coordinator gone): the shard is someone else's
            # now; the work is still in the shared cache.
            self.failed += 1
            self.log(f"worker {self.worker_id}: {label} not accepted: {exc}")
            return
        self.completed += 1
        self.log(
            f"worker {self.worker_id}: {label} done — "
            f"{report.distinct_points} point(s), {report.simulated} simulated, "
            f"{report.cache_hits} cached, {elapsed:.2f}s"
        )

    def _report_failure(self, shard_id: int, error: str) -> None:
        try:
            self.client.fail(shard_id, self.worker_id, error)
        except ServiceError as exc:
            self.log(
                f"worker {self.worker_id}: could not report shard "
                f"{shard_id} failure: {exc}"
            )

    def _start_heartbeat(
        self,
        shard_id: int,
        lease_seconds: float,
        progress: "_ShardProgress",
    ) -> threading.Event:
        """Extend the lease on a daemon thread until the event is set.

        Each beat reads the latest simulation progress and reports it
        alongside the lease extension.
        """
        stop = threading.Event()
        interval = max(float(lease_seconds) / 3.0, 0.05)

        def _beat() -> None:
            while not stop.wait(interval):
                completed, total = progress.read()
                try:
                    self.client.heartbeat(
                        shard_id, self.worker_id, completed, total
                    )
                except ServiceError:
                    return  # lease lost or server gone; complete() will say so

        threading.Thread(
            target=_beat, name=f"heartbeat-{shard_id}", daemon=True
        ).start()
        return stop
