"""Fuzz and stress the lease protocol against a record of who holds what.

The state machine drives one :class:`Coordinator` over one
:class:`JobStore` in a temporary file, with three workers and an injected
clock.  It keeps its own record of each shard's state, holder, deadline,
attempts and progress, and checks:

- a heartbeat, complete or fail succeeds exactly when the record says the
  caller holds the shard's ACTIVE lease; a refused one raises
  :class:`TransitionError` and leaves the row as it was;
- an ACTIVE row has a holder and a deadline, and no other row has either,
  so progress and deadlines are written only on ACTIVE rows;
- a COMPLETED or FAILED row never changes, and ``attempts`` never exceeds
  ``max_attempts``.

The stress test races worker threads and the reaper on real time, where
a lease check made on a row read earlier would let a stale write through.
"""

from __future__ import annotations

import functools
import random
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple
from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import TransitionError
from repro.runtime.session import Session
from repro.service import Coordinator, JobStore, ServiceConfig, ShardRow, ShardState

from tests.service.conftest import tiny_plan

WORKERS = ("w0", "w1", "w2")
#: Who makes a shard call: the holder of a leased shard or a named worker,
#: so calls with the lease are about as common as calls without it.
CALLERS = st.sampled_from(("holder",) * len(WORKERS) + WORKERS)
LEASE = 10.0
MAX_ATTEMPTS = 2
SHARDS = 3
PLAN = tiny_plan(shapes=4)  # 8 distinct points

Progress = Tuple[Optional[int], Optional[int]]


@functools.lru_cache(maxsize=None)
def shard_reports(count: int) -> Tuple[str, ...]:
    """Each of ``count`` shards' reports, as a worker would post it."""
    with Session(cache=None, workers=1) as session:
        return tuple(
            session.run(PLAN.shard(index, count)).to_json()
            for index in range(count)
        )


class LeaseProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 1000.0
        self._tmp = tempfile.TemporaryDirectory()
        self.store = JobStore(Path(self._tmp.name) / "service.db")
        self.coordinator = Coordinator(
            self.store,
            ServiceConfig(lease_seconds=LEASE, max_attempts=MAX_ATTEMPTS),
        )
        self._clock = mock.patch(
            "repro.service.coordinator.time", SimpleNamespace(time=lambda: self.now)
        )
        self._clock.start()
        self.plan_id = self.coordinator.submit(PLAN.to_json(), SHARDS)["plan_id"]
        rows = self.store.shards(self.plan_id)
        assert len(rows) == SHARDS
        self.ids: List[int] = [row.shard_id for row in rows]
        self.index = {row.shard_id: row.shard_index for row in rows}
        # The record the store is checked against.
        self.state = {sid: ShardState.PENDING for sid in self.ids}
        self.holder: Dict[int, str] = {}
        self.deadline: Dict[int, float] = {}
        self.attempts = {sid: 0 for sid in self.ids}
        self.progress: Dict[int, Progress] = {sid: (None, None) for sid in self.ids}
        self.sealed: Dict[int, ShardRow] = {}

    def teardown(self) -> None:
        self._clock.stop()
        self.store.close()
        self._tmp.cleanup()

    # -- the record ------------------------------------------------------------------

    def pick(self, who: str, slot: int) -> Tuple[int, str]:
        """The shard and the worker of one call."""
        if who == "holder" and self.holder:
            sid = sorted(self.holder)[slot % len(self.holder)]
            return sid, self.holder[sid]
        return self.ids[slot], WORKERS[0] if who == "holder" else who

    def holds(self, worker: str, sid: int) -> bool:
        return self.state[sid] is ShardState.ACTIVE and self.holder[sid] == worker

    def release(self, sid: int) -> ShardState:
        """Record a release; returns the state the store must pick."""
        del self.holder[sid], self.deadline[sid]
        if self.attempts[sid] >= MAX_ATTEMPTS:
            self.state[sid] = ShardState.FAILED
        else:
            self.state[sid] = ShardState.PENDING
            self.progress[sid] = (None, None)
        return self.state[sid]

    def refused(self, call, sid: int) -> None:
        before = self.store.get_shard(sid)
        try:
            call()
        except TransitionError:
            pass
        else:
            raise AssertionError(f"a call without the lease on shard {sid} succeeded")
        assert self.store.get_shard(sid) == before

    # -- rules -----------------------------------------------------------------------

    @rule(worker=st.sampled_from(WORKERS))
    def claim(self, worker: str) -> None:
        lease = self.coordinator.claim(worker)
        pending = [sid for sid in self.ids if self.state[sid] is ShardState.PENDING]
        if not pending:
            assert lease is None
            return
        sid = pending[0]  # one plan: the lowest pending shard id
        assert lease is not None and lease["shard_id"] == sid
        self.state[sid] = ShardState.ACTIVE
        self.holder[sid] = worker
        self.deadline[sid] = self.now + LEASE
        self.attempts[sid] += 1
        assert lease["attempts"] == self.attempts[sid]

    @rule(
        who=CALLERS,
        slot=st.integers(0, SHARDS - 1),
        progress=st.none() | st.tuples(st.integers(0, 4), st.integers(4, 8)),
    )
    def heartbeat(
        self, who: str, slot: int, progress: Optional[Tuple[int, int]]
    ) -> None:
        sid, worker = self.pick(who, slot)
        completed, total = progress if progress is not None else (None, None)

        def call() -> Dict[str, object]:
            return self.coordinator.heartbeat(sid, worker, completed, total)

        if not self.holds(worker, sid):
            self.refused(call, sid)
            return
        assert call()["lease_deadline"] == self.now + LEASE
        self.deadline[sid] = self.now + LEASE
        if progress is not None:
            self.progress[sid] = progress

    @rule(who=CALLERS, slot=st.integers(0, SHARDS - 1))
    def complete(self, who: str, slot: int) -> None:
        sid, worker = self.pick(who, slot)
        report = shard_reports(SHARDS)[self.index[sid]]

        def call() -> Dict[str, object]:
            return self.coordinator.complete(sid, worker, report)

        if not self.holds(worker, sid):
            self.refused(call, sid)
            return
        done = call()["done"]
        del self.holder[sid], self.deadline[sid]
        self.state[sid] = ShardState.COMPLETED
        assert done == all(
            state is ShardState.COMPLETED for state in self.state.values()
        )

    @rule(who=CALLERS, slot=st.integers(0, SHARDS - 1))
    def fail(self, who: str, slot: int) -> None:
        sid, worker = self.pick(who, slot)

        def call() -> Dict[str, object]:
            return self.coordinator.fail(sid, worker, "boom")

        if not self.holds(worker, sid):
            self.refused(call, sid)
            return
        outcome = call()
        assert outcome["state"] == self.release(sid).value

    @rule(seconds=st.sampled_from([1.0, 4.0, 9.0, 11.0]))
    def advance_clock(self, seconds: float) -> None:
        self.now += seconds

    @rule()
    def reap(self) -> None:
        expired = [
            sid
            for sid in self.ids
            if self.state[sid] is ShardState.ACTIVE and self.deadline[sid] < self.now
        ]
        expected = [(sid, self.release(sid).value) for sid in expired]
        assert self.coordinator.reap() == expected

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def rows_match_the_record(self) -> None:
        for row in self.store.shards(self.plan_id):
            sid = row.shard_id
            assert row.state is self.state[sid]
            assert row.attempts == self.attempts[sid] <= MAX_ATTEMPTS
            assert (row.progress_completed, row.progress_total) == self.progress[sid]
            if row.state is ShardState.ACTIVE:
                assert (row.worker_id, row.lease_deadline) == (
                    self.holder[sid], self.deadline[sid]
                )
            else:
                assert (row.worker_id, row.lease_deadline) == (None, None)
            if row.state in (ShardState.COMPLETED, ShardState.FAILED):
                assert row == self.sealed.setdefault(sid, row)


TestLeaseProtocol = LeaseProtocol.TestCase
TestLeaseProtocol.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


def test_racing_workers_and_reaper_never_corrupt_a_shard(tmp_path):
    """Six worker threads and the reaper share one coordinator.  A worker
    sometimes stalls past its 20 ms lease, fails, or heartbeats late.
    Every shard must end sealed once, by the holder of its last claim or
    by the reaper, with no lease left behind."""
    shards, max_attempts = 8, 3
    store = JobStore(tmp_path / "service.db")
    config = ServiceConfig(
        lease_seconds=0.02, max_attempts=max_attempts, reap_interval=0.005
    )
    coordinator = Coordinator(store, config)
    plan_id = coordinator.submit(PLAN.to_json(), shards)["plan_id"]
    reports = shard_reports(shards)
    sealed: Dict[int, List[Tuple[int, str]]] = {}  # (attempt, state) per call
    record = threading.Lock()

    def seal(sid: int, attempt: int, state: str) -> None:
        with record:
            sealed.setdefault(sid, []).append((attempt, state))

    def done() -> bool:
        states: Set[str] = {row.state.value for row in store.shards(plan_id)}
        return states <= {"COMPLETED", "FAILED"}

    def work(worker: str) -> None:
        rng = random.Random(worker)
        give_up = time.monotonic() + 20.0
        while time.monotonic() < give_up and not done():
            lease = coordinator.claim(worker)
            if lease is None:
                time.sleep(0.002)
                continue
            sid = lease["shard_id"]
            try:
                for _ in range(rng.randrange(3)):
                    time.sleep(rng.choice((0.0, 0.005, 0.03)))
                    coordinator.heartbeat(sid, worker, 1, 2)
                time.sleep(rng.choice((0.0, 0.0, 0.03)))
                if rng.random() < 0.3:
                    outcome = coordinator.fail(sid, worker, "boom")
                    if outcome["state"] == "FAILED":
                        seal(sid, lease["attempts"], "FAILED")
                else:
                    report = reports[lease["shard_index"]]
                    coordinator.complete(sid, worker, report)
                    seal(sid, lease["attempts"], "COMPLETED")
            except TransitionError:
                pass  # the lease was lost; the shard is someone else's
            if rng.random() < 0.3:  # a zombie heartbeat, held or not
                try:
                    coordinator.heartbeat(sid, worker, 2, 2)
                except TransitionError:
                    pass

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [
        threading.Thread(target=work, args=(f"w{i}",), daemon=True)
        for i in range(6)
    ]
    try:
        coordinator.start_reaper()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
        coordinator.stop()
    assert not any(thread.is_alive() for thread in threads)
    rows = store.shards(plan_id)
    store.close()
    for row in rows:
        assert row.state in (ShardState.COMPLETED, ShardState.FAILED)
        assert (row.worker_id, row.lease_deadline) == (None, None)
        assert row.attempts <= max_attempts
        outcomes = sealed.get(row.shard_id, [])
        if row.state is ShardState.COMPLETED:
            assert outcomes == [(row.attempts, "COMPLETED")]
        else:  # the last holder's fail, or the reaper
            assert row.attempts == max_attempts
            assert outcomes in ([], [(max_attempts, "FAILED")])
