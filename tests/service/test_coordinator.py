"""Coordinator policy tests: submission, retries, reaping, merging."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError, ServiceError, TransitionError
from repro.runtime.plan import SweepReport
from repro.runtime.session import Session
from repro.service import Coordinator, ServiceConfig, ShardState

from tests.service.conftest import tiny_plan


@pytest.fixture
def coordinator(job_store):
    return Coordinator(
        job_store, ServiceConfig(lease_seconds=10.0, max_attempts=2)
    )


def _null_cycles(results):
    results[sorted(results)[0]]["cycles"] = None
    return results


def run_shard(lease) -> str:
    """Simulate one leased shard exactly as a worker would."""
    from repro.runtime.plan import SweepPlan

    plan = SweepPlan.from_json(lease["plan"])
    if lease["shard_count"] > 1:
        plan = plan.shard(lease["shard_index"], lease["shard_count"])
    with Session(cache=None, workers=1) as session:
        return session.run(plan).to_json()


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"lease_seconds": 0}, "lease"),
            ({"lease_seconds": -1}, "lease"),
            ({"max_attempts": 0}, "attempts"),
            ({"reap_interval": 0}, "reap"),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(ServiceError, match=match):
            ServiceConfig(**kwargs)


class TestSubmit:
    def test_clamps_fanout_to_distinct_points(self, coordinator):
        plan = tiny_plan(shapes=2)  # 2 designs x 2 shapes = 4 points
        response = coordinator.submit(plan.to_json(), 64)
        assert response["shard_count"] == 4
        assert response["distinct_points"] == 4

    def test_idempotent(self, coordinator):
        plan = tiny_plan().to_json()
        first = coordinator.submit(plan, 2)
        second = coordinator.submit(plan, 2)
        assert first["plan_id"] == second["plan_id"]
        assert (first["created"], second["created"]) == (True, False)

    def test_rejects_presharded_plans(self, coordinator):
        shard = tiny_plan().shard(0, 2)
        with pytest.raises(ServiceError, match="unsharded"):
            coordinator.submit(shard.to_json(), 2)

    def test_rejects_non_positive_shards(self, coordinator):
        with pytest.raises(ServiceError, match="positive"):
            coordinator.submit(tiny_plan().to_json(), 0)

    def test_canonicalizes_posted_json(self, coordinator):
        """Reformatted-but-equal plan JSON maps to the same plan id."""
        plan = tiny_plan()
        pretty = plan.to_json(indent=2)
        assert coordinator.submit(pretty, 2)["plan_id"] == (
            coordinator.submit(plan.to_json(), 2)["plan_id"]
        )

    def test_priority_flows_to_claims_and_status(self, coordinator):
        low = coordinator.submit(tiny_plan(shapes=1).to_json(), 1, priority=0)
        high = coordinator.submit(tiny_plan(shapes=2).to_json(), 1, priority=9)
        lease = coordinator.claim("w1")
        assert lease["plan_id"] == high["plan_id"]
        assert coordinator.plan_status(high["plan_id"])["priority"] == 9
        assert coordinator.plan_status(low["plan_id"])["priority"] == 0
        listed = {p["plan_id"]: p["priority"] for p in coordinator.list_plans()}
        assert listed == {low["plan_id"]: 0, high["plan_id"]: 9}

    def test_rejects_non_integer_priority(self, coordinator):
        for priority in ("urgent", True):
            with pytest.raises(ServiceError, match="priority"):
                coordinator.submit(tiny_plan().to_json(), 2, priority=priority)
        assert coordinator.list_plans() == []


class TestProgressHeartbeats:
    def test_progress_surfaces_in_plan_status(self, coordinator):
        submitted = coordinator.submit(tiny_plan(shapes=2).to_json(), 1)
        lease = coordinator.claim("w1")
        coordinator.heartbeat(lease["shard_id"], "w1", completed=2, total=4)
        shard = coordinator.plan_status(submitted["plan_id"])["shards"][0]
        assert (shard["progress_completed"], shard["progress_total"]) == (2, 4)

    @pytest.mark.parametrize(
        "completed,total,match",
        [
            (-1, 4, "completed"),
            (1, "x", "total"),
            (5, None, "both or neither"),
            (None, 4, "both or neither"),
            (9, 4, "completed <= total"),
        ],
    )
    def test_rejects_malformed_progress(
        self, coordinator, job_store, completed, total, match
    ):
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("w1")
        with pytest.raises(ServiceError, match=match) as excinfo:
            coordinator.heartbeat(
                lease["shard_id"], "w1", completed=completed, total=total
            )
        assert not isinstance(excinfo.value, TransitionError)
        row = job_store.get_shard(lease["shard_id"])
        assert (row.progress_completed, row.progress_total) == (None, None)
        assert row.lease_deadline == lease["lease_deadline"]


class TestCompleteValidation:
    def test_rejects_report_for_a_different_plan(self, coordinator):
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("w1")
        alien = tiny_plan(shapes=3)
        with Session(cache=None, workers=1) as session:
            report = session.run(alien).to_json()
        with pytest.raises(ServiceError, match="different plan"):
            coordinator.complete(lease["shard_id"], "w1", report)

    def test_rejects_report_for_the_wrong_shard(self, coordinator):
        plan = tiny_plan()
        coordinator.submit(plan.to_json(), 2)
        lease = coordinator.claim("w1")  # shard 0
        wrong = plan.shard(1, 2)
        with Session(cache=None, workers=1) as session:
            report = session.run(wrong).to_json()
        with pytest.raises(ServiceError, match="expected 0/2"):
            coordinator.complete(lease["shard_id"], "w1", report)

    def test_recanonicalizes_worker_formatting(self, coordinator, job_store):
        """Stored shard bytes never depend on a client's JSON style."""
        plan = tiny_plan(shapes=1)
        coordinator.submit(plan.to_json(), 1)
        lease = coordinator.claim("w1")
        canonical = run_shard(lease)
        pretty = SweepReport.from_json(canonical).to_json(indent=2)
        coordinator.complete(lease["shard_id"], "w1", pretty)
        shard = job_store.get_shard(lease["shard_id"])
        assert shard.report_json == canonical


    @pytest.mark.parametrize(
        "corrupt",
        [lambda results: {}, lambda results: [], _null_cycles],
        ids=["empty", "list", "null-cycles"],
    )
    def test_refuses_malformed_report_and_keeps_the_lease(
        self, coordinator, job_store, corrupt
    ):
        """A truncated or mistyped shard report must not seal its shard.

        Accepting it would leave the plan unmergeable with nothing left to
        claim; refused, the shard stays ACTIVE for a retry or the reaper.
        """
        plan = tiny_plan()
        response = coordinator.submit(plan.to_json(), 2)
        lease = coordinator.claim("w1")
        document = json.loads(run_shard(lease))
        document["report"]["results"] = corrupt(document["report"]["results"])
        with pytest.raises(ExperimentError, match="malformed report JSON"):
            coordinator.complete(lease["shard_id"], "w1", json.dumps(document))
        assert job_store.get_shard(lease["shard_id"]).state is ShardState.ACTIVE

        coordinator.complete(lease["shard_id"], "w1", run_shard(lease))
        other = coordinator.claim("w2")
        assert coordinator.complete(
            other["shard_id"], "w2", run_shard(other)
        )["done"] is True
        with Session(cache=None, workers=1) as session:
            single = session.run(plan).to_json()
        assert coordinator.plan_report(response["plan_id"]) == single


class TestMergeOnCompletion:
    def test_served_report_is_byte_identical_to_single_shot(self, coordinator):
        plan = tiny_plan()
        response = coordinator.submit(plan.to_json(), 2)
        for worker in ("w1", "w2"):
            lease = coordinator.claim(worker)
            done = coordinator.complete(
                lease["shard_id"], worker, run_shard(lease)
            )
        assert done["done"] is True
        with Session(cache=None, workers=1) as session:
            single = session.run(plan).to_json()
        assert coordinator.plan_report(response["plan_id"]) == single

    def test_report_unavailable_until_every_shard_lands(self, coordinator):
        response = coordinator.submit(tiny_plan().to_json(), 2)
        lease = coordinator.claim("w1")
        coordinator.complete(lease["shard_id"], "w1", run_shard(lease))
        with pytest.raises(ServiceError, match="no merged report yet"):
            coordinator.plan_report(response["plan_id"])
        assert coordinator.plan_status(response["plan_id"])["state"] == "running"


class TestRetryBudget:
    def test_fail_requeues_until_budget_exhausted(self, coordinator):
        """max_attempts=2: first failure re-queues, second seals FAILED."""
        response = coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("w1")
        first = coordinator.fail(lease["shard_id"], "w1", "boom")
        assert first["state"] == "PENDING"

        lease = coordinator.claim("w2")
        assert lease["attempts"] == 2
        second = coordinator.fail(lease["shard_id"], "w2", "boom again")
        assert second["state"] == "FAILED"
        status = coordinator.plan_status(response["plan_id"])
        assert status["state"] == "failed"
        (shard,) = status["shards"]
        assert "retry budget exhausted (2/2 attempts)" in shard["last_error"]

    def test_fail_from_a_zombie_worker_is_rejected(self, coordinator):
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("w1")
        with pytest.raises(TransitionError, match="held by 'w1', not 'w2'"):
            coordinator.fail(lease["shard_id"], "w2", "not mine")


class TestPlanStatus:
    def test_counts_every_state(self, coordinator):
        response = coordinator.submit(tiny_plan(shapes=2).to_json(), 3)
        coordinator.claim("w1")
        assert coordinator.plan_status(response["plan_id"])["counts"] == {
            "PENDING": 2,
            "ACTIVE": 1,
            "COMPLETED": 0,
            "FAILED": 0,
        }


class TestWorkerIds:
    @pytest.mark.parametrize("worker", ["", None, 7])
    def test_every_lease_call_refuses_a_malformed_worker_id(
        self, coordinator, job_store, worker
    ):
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        with pytest.raises(ServiceError, match="worker id must be"):
            coordinator.claim(worker)
        lease = coordinator.claim("w1")
        shard_id = lease["shard_id"]
        for call in (
            lambda: coordinator.heartbeat(shard_id, worker),
            lambda: coordinator.complete(shard_id, worker, "{}"),
            lambda: coordinator.fail(shard_id, worker, "boom"),
        ):
            with pytest.raises(ServiceError, match="worker id must be"):
                call()
        row = job_store.get_shard(shard_id)
        assert (row.state, row.worker_id) == (ShardState.ACTIVE, "w1")


def race_before_release(monkeypatch, store, race):
    """Run ``race`` once, in the last window another thread has before a
    release lands: after a row read outside the store's step
    (``get_shard``), or else just before the step (``release_shard``)."""
    pending = [race]

    def run_race():
        while pending:
            pending.pop()()

    get_shard, release_shard = store.get_shard, store.release_shard

    def read_then_race(*args, **kwargs):
        row = get_shard(*args, **kwargs)
        run_race()
        return row

    def race_then_release(*args, **kwargs):
        run_race()
        return release_shard(*args, **kwargs)

    monkeypatch.setattr(store, "get_shard", read_then_race)
    monkeypatch.setattr(store, "release_shard", race_then_release)


class TestLeaseRule:
    """The store checks the lease in the step that moves the shard."""

    def test_a_caller_without_the_lease_writes_nothing(
        self, coordinator, job_store
    ):
        """A's heartbeat after the reaper re-queued its shard, and B's
        after its own shard sealed, are refused and leave the rows as
        they were."""
        coordinator.submit(tiny_plan(shapes=1).to_json(), 2)
        lease_a = coordinator.claim("A")
        lease_b = coordinator.claim("B")
        coordinator.complete(lease_b["shard_id"], "B", run_shard(lease_b))
        assert coordinator.reap(now=lease_a["lease_deadline"] + 1.0) == [
            (lease_a["shard_id"], "PENDING")
        ]
        for lease, worker, match in (
            (lease_a, "A", "PENDING"),
            (lease_b, "B", "sealed"),
        ):
            before = job_store.get_shard(lease["shard_id"])
            with pytest.raises(TransitionError, match=match):
                coordinator.heartbeat(lease["shard_id"], worker, 1, 4)
            assert job_store.get_shard(lease["shard_id"]) == before
        row = job_store.get_shard(lease_a["shard_id"])
        assert row.state is ShardState.PENDING
        assert (row.lease_deadline, row.progress_completed) == (None, None)
        assert job_store.get_shard(lease_b["shard_id"]).lease_deadline is None

    def test_a_late_fail_never_releases_the_next_holders_lease(
        self, coordinator, job_store, monkeypatch
    ):
        """A's fail races its lease expiring and B claiming the shard."""
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("A")
        shard_id = lease["shard_id"]

        def expire_and_reclaim():
            assert coordinator.reap(now=lease["lease_deadline"] + 1.0) == [
                (shard_id, "PENDING")
            ]
            assert coordinator.claim("B")["shard_id"] == shard_id

        race_before_release(monkeypatch, job_store, expire_and_reclaim)
        with pytest.raises(TransitionError, match="held by 'B', not 'A'"):
            coordinator.fail(shard_id, "A", "boom")
        row = job_store.get_shard(shard_id)
        assert (row.state, row.worker_id, row.attempts) == (
            ShardState.ACTIVE, "B", 2
        )
        assert coordinator.complete(shard_id, "B", run_shard(lease))["done"]
        assert job_store.get_shard(shard_id).state is ShardState.COMPLETED

    def test_a_heartbeat_during_the_reap_pass_keeps_the_shard(
        self, coordinator, job_store, monkeypatch
    ):
        """A heartbeat lands after reap() read the expired list; the other
        expired shard is still released in the same pass."""
        coordinator.submit(tiny_plan(shapes=1).to_json(), 2)
        lease_a = coordinator.claim("A")
        lease_b = coordinator.claim("B")
        now = max(lease_a["lease_deadline"], lease_b["lease_deadline"]) + 1.0
        expired_shards = job_store.expired_shards

        def read_then_heartbeat(when):
            expired = expired_shards(when)
            job_store.heartbeat_shard(lease_a["shard_id"], "A", 10.0, now=when)
            return expired

        monkeypatch.setattr(job_store, "expired_shards", read_then_heartbeat)
        assert coordinator.reap(now=now) == [(lease_b["shard_id"], "PENDING")]
        row = job_store.get_shard(lease_a["shard_id"])
        assert (row.state, row.worker_id, row.lease_deadline) == (
            ShardState.ACTIVE, "A", now + 10.0
        )
        assert job_store.get_shard(lease_b["shard_id"]).state is (
            ShardState.PENDING
        )


class TestReaper:
    def test_reap_requeues_expired_leases(self, coordinator):
        """A dead worker's shard flows back into the queue at deadline."""
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("w1")
        assert coordinator.reap(now=lease["lease_deadline"] - 1.0) == []
        outcomes = coordinator.reap(now=lease["lease_deadline"] + 1.0)
        assert outcomes == [(lease["shard_id"], "PENDING")]
        again = coordinator.claim("w2")
        assert again["shard_id"] == lease["shard_id"]
        assert again["attempts"] == 2

    def test_reap_seals_after_the_budget(self, coordinator, job_store):
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("w1")
        coordinator.reap(now=lease["lease_deadline"] + 1.0)
        lease = coordinator.claim("w1")  # attempt 2 of 2
        outcomes = coordinator.reap(now=lease["lease_deadline"] + 1.0)
        assert outcomes == [(lease["shard_id"], "FAILED")]
        shard = job_store.get_shard(lease["shard_id"])
        assert shard.state is ShardState.FAILED
        assert "lease expired" in shard.last_error

    def test_heartbeat_holds_off_the_reaper(self, coordinator, job_store):
        coordinator.submit(tiny_plan(shapes=1).to_json(), 1)
        lease = coordinator.claim("w1")
        beat = coordinator.heartbeat(lease["shard_id"], "w1")
        assert beat["shard_id"] == lease["shard_id"]
        # Extend the lease far out (store-level, injectable clock): the
        # reaper must respect the *heartbeated* deadline, not the original.
        job_store.heartbeat_shard(
            lease["shard_id"], "w1", 10.0, now=lease["lease_deadline"] + 100.0
        )
        assert coordinator.reap(now=lease["lease_deadline"] + 1.0) == []
