"""Job-store tests: the lifecycle matrix, leases, and durability."""

from __future__ import annotations

import itertools
import sqlite3

import pytest

from repro.errors import ServiceLookupError, TransitionError
from repro.service import (
    JobStore,
    LEGAL_TRANSITIONS,
    ShardState,
    TERMINAL_STATES,
    check_transition,
)

PLAN_JSON = '{"designs":["baseline"],"format":1}'  # stores don't parse plans


def submit(store: JobStore, shards: int = 2, text: str = PLAN_JSON):
    row, created = store.submit_plan(text, shards, now=100.0)
    return row


class TestTransitionMatrix:
    """Every one of the 16 (old, new) pairs, checked against the matrix."""

    @pytest.mark.parametrize(
        "old,new", list(itertools.product(ShardState, ShardState))
    )
    def test_every_pair(self, old, new):
        if new in LEGAL_TRANSITIONS[old]:
            check_transition(old, new)  # must not raise
        else:
            with pytest.raises(TransitionError, match=f"{old.value} -> {new.value}"):
                check_transition(old, new)

    def test_exactly_four_legal_edges(self):
        legal = [
            (old, new)
            for old in ShardState
            for new in LEGAL_TRANSITIONS[old]
        ]
        assert sorted((o.value, n.value) for o, n in legal) == [
            ("ACTIVE", "COMPLETED"),
            ("ACTIVE", "FAILED"),
            ("ACTIVE", "PENDING"),
            ("PENDING", "ACTIVE"),
        ]

    def test_self_transitions_all_illegal(self):
        for state in ShardState:
            with pytest.raises(TransitionError):
                check_transition(state, state)

    def test_terminal_states_are_sealed(self):
        assert TERMINAL_STATES == {ShardState.COMPLETED, ShardState.FAILED}
        with pytest.raises(TransitionError, match="sealed"):
            check_transition(ShardState.COMPLETED, ShardState.PENDING)


class TestPlans:
    def test_submit_is_idempotent(self, job_store):
        first, created_first = job_store.submit_plan(PLAN_JSON, 2, now=1.0)
        second, created_second = job_store.submit_plan(PLAN_JSON, 2, now=2.0)
        assert (created_first, created_second) == (True, False)
        assert first.plan_id == second.plan_id
        assert len(job_store.shards(first.plan_id)) == 2

    def test_different_fanout_is_a_different_plan(self, job_store):
        one, _ = job_store.submit_plan(PLAN_JSON, 1, now=1.0)
        two, _ = job_store.submit_plan(PLAN_JSON, 2, now=1.0)
        assert one.plan_id != two.plan_id

    def test_unknown_ids_raise_lookup_errors(self, job_store):
        with pytest.raises(ServiceLookupError, match="unknown plan"):
            job_store.get_plan("nope")
        with pytest.raises(ServiceLookupError, match="unknown shard"):
            job_store.get_shard(77)
        with pytest.raises(ServiceLookupError):
            job_store.store_plan_report("nope", "{}")

    def test_wal_mode_is_on(self, job_store):
        mode = job_store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"


class TestLeaseProtocol:
    def test_claim_hands_out_oldest_pending_and_counts_attempts(self, job_store):
        plan = submit(job_store, shards=2)
        first = job_store.claim_shard("w1", lease_seconds=30.0, now=10.0)
        second = job_store.claim_shard("w2", lease_seconds=30.0, now=10.0)
        assert (first.shard_index, second.shard_index) == (0, 1)
        assert first.state is ShardState.ACTIVE
        assert first.attempts == 1
        assert first.worker_id == "w1"
        assert first.lease_deadline == 40.0
        assert job_store.claim_shard("w3", 30.0, now=10.0) is None  # queue dry
        assert plan.plan_id == first.plan_id

    def test_heartbeat_extends_the_lease(self, job_store):
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 30.0, now=0.0)
        deadline = job_store.heartbeat_shard(shard.shard_id, "w1", 30.0, now=25.0)
        assert deadline == 55.0
        assert job_store.get_shard(shard.shard_id).lease_deadline == 55.0

    def test_zombie_worker_is_rejected(self, job_store):
        """A worker that lost its lease cannot heartbeat or complete."""
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 1.0, now=0.0)
        job_store.release_shard(shard.shard_id, "lease expired", max_attempts=3)
        job_store.claim_shard("w2", 30.0, now=5.0)  # re-assigned
        with pytest.raises(TransitionError, match="held by 'w2', not 'w1'"):
            job_store.heartbeat_shard(shard.shard_id, "w1", 30.0, now=6.0)
        with pytest.raises(TransitionError, match="held by 'w2', not 'w1'"):
            job_store.complete_shard(shard.shard_id, "w1", "{}")

    def test_expired_shards_only_past_deadline(self, job_store):
        submit(job_store, shards=2)
        job_store.claim_shard("w1", 10.0, now=0.0)  # deadline 10
        job_store.claim_shard("w2", 50.0, now=0.0)  # deadline 50
        expired = job_store.expired_shards(now=20.0)
        assert [s.worker_id for s in expired] == ["w1"]
        assert job_store.expired_shards(now=5.0) == []


class TestShardTransitionsViaStore:
    def test_complete_seals_and_clears_the_lease(self, job_store):
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 30.0, now=0.0)
        done = job_store.complete_shard(shard.shard_id, "w1", '{"r":1}')
        assert done.state is ShardState.COMPLETED
        assert done.report_json == '{"r":1}'
        assert done.worker_id is None
        assert done.lease_deadline is None
        with pytest.raises(TransitionError, match="sealed"):
            job_store.complete_shard(shard.shard_id, "w1", "{}")

    def test_requeue_then_reclaim(self, job_store):
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 30.0, now=0.0)
        back = job_store.release_shard(shard.shard_id, "worker died", max_attempts=3)
        assert back.state is ShardState.PENDING
        assert back.worker_id is None
        assert back.last_error == "worker died; re-queued"
        again = job_store.claim_shard("w2", 30.0, now=1.0)
        assert again.shard_id == shard.shard_id
        assert again.attempts == 2

    def test_cannot_requeue_pending_or_complete_pending(self, job_store):
        plan = submit(job_store, shards=1)
        shard = job_store.shards(plan.plan_id)[0]
        with pytest.raises(TransitionError, match="PENDING -> PENDING"):
            job_store.release_shard(shard.shard_id, None, max_attempts=3)
        with pytest.raises(TransitionError, match="PENDING -> COMPLETED"):
            job_store.complete_shard(shard.shard_id, "w1", "{}")
        with pytest.raises(TransitionError, match="PENDING -> FAILED"):
            job_store.release_shard(shard.shard_id, "boom", max_attempts=0)

    def test_failed_is_terminal_and_never_reclaimed(self, job_store):
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 30.0, now=0.0)
        dead = job_store.release_shard(shard.shard_id, "budget spent", max_attempts=1)
        assert dead.state is ShardState.FAILED
        assert dead.last_error == (
            "budget spent; retry budget exhausted (1/1 attempts)"
        )
        assert job_store.claim_shard("w2", 30.0, now=1.0) is None
        with pytest.raises(TransitionError, match="sealed"):
            job_store.release_shard(shard.shard_id, None, max_attempts=3)


class TestPriorityScheduling:
    """Plan priority steers the claim queue without entering identity."""

    def test_higher_priority_plan_drains_first(self, job_store):
        low, _ = job_store.submit_plan('{"p":"low"}', 2, now=1.0, priority=0)
        high, _ = job_store.submit_plan('{"p":"high"}', 2, now=2.0, priority=7)
        order = [
            job_store.claim_shard(f"w{i}", 30.0, now=3.0).plan_id
            for i in range(4)
        ]
        assert order == [high.plan_id] * 2 + [low.plan_id] * 2

    def test_equal_priority_is_submission_order(self, job_store):
        first, _ = job_store.submit_plan('{"p":"a"}', 1, now=1.0, priority=3)
        second, _ = job_store.submit_plan('{"p":"b"}', 1, now=2.0, priority=3)
        assert job_store.claim_shard("w1", 30.0, now=3.0).plan_id == first.plan_id
        assert job_store.claim_shard("w2", 30.0, now=3.0).plan_id == second.plan_id

    def test_negative_priority_yields_to_default(self, job_store):
        back, _ = job_store.submit_plan('{"p":"bg"}', 1, now=1.0, priority=-5)
        normal, _ = job_store.submit_plan('{"p":"n"}', 1, now=2.0)
        assert job_store.claim_shard("w1", 30.0, now=3.0).plan_id == normal.plan_id

    def test_priority_is_not_identity(self, job_store):
        """Resubmitting at a new priority is idempotent and keeps the old."""
        first, created = job_store.submit_plan(PLAN_JSON, 2, now=1.0, priority=4)
        again, created_again = job_store.submit_plan(
            PLAN_JSON, 2, now=2.0, priority=99
        )
        assert (created, created_again) == (True, False)
        assert again.plan_id == first.plan_id
        assert again.priority == 4

    def test_retried_shard_rejoins_at_its_plan_priority(self, job_store):
        """A re-queued high-priority shard outranks pending low-priority work."""
        job_store.submit_plan('{"p":"low"}', 1, now=1.0, priority=0)
        high, _ = job_store.submit_plan('{"p":"high"}', 1, now=2.0, priority=5)
        shard = job_store.claim_shard("w1", 30.0, now=3.0)
        assert shard.plan_id == high.plan_id
        job_store.release_shard(shard.shard_id, "lease expired", max_attempts=3)
        assert job_store.claim_shard("w2", 30.0, now=4.0).plan_id == high.plan_id


class TestProgressHeartbeats:
    def test_heartbeat_records_progress(self, job_store):
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 30.0, now=0.0)
        assert (shard.progress_completed, shard.progress_total) == (None, None)
        job_store.heartbeat_shard(
            shard.shard_id, "w1", 30.0, now=5.0, completed=3, total=12
        )
        row = job_store.get_shard(shard.shard_id)
        assert (row.progress_completed, row.progress_total) == (3, 12)

    def test_plain_heartbeat_keeps_last_progress(self, job_store):
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 30.0, now=0.0)
        job_store.heartbeat_shard(
            shard.shard_id, "w1", 30.0, now=5.0, completed=3, total=12
        )
        deadline = job_store.heartbeat_shard(shard.shard_id, "w1", 30.0, now=9.0)
        assert deadline == 39.0
        row = job_store.get_shard(shard.shard_id)
        assert (row.progress_completed, row.progress_total) == (3, 12)

    def test_requeue_resets_progress(self, job_store):
        """A fresh claim must not inherit the dead worker's progress."""
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 30.0, now=0.0)
        job_store.heartbeat_shard(
            shard.shard_id, "w1", 30.0, now=5.0, completed=9, total=12
        )
        back = job_store.release_shard(shard.shard_id, "lease expired", max_attempts=3)
        assert (back.progress_completed, back.progress_total) == (None, None)

    def test_zombie_progress_report_is_rejected(self, job_store):
        submit(job_store, shards=1)
        shard = job_store.claim_shard("w1", 1.0, now=0.0)
        job_store.release_shard(shard.shard_id, "lease expired", max_attempts=3)
        job_store.claim_shard("w2", 30.0, now=5.0)
        with pytest.raises(TransitionError, match="held by 'w2'"):
            job_store.heartbeat_shard(
                shard.shard_id, "w1", 30.0, now=6.0, completed=1, total=2
            )


class TestSchemaMigration:
    def test_v1_store_gains_priority_and_progress_columns(self, tmp_path):
        """Opening a pre-priority DB migrates it in place, data intact."""
        path = tmp_path / "v1.db"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE plans (
                plan_id TEXT PRIMARY KEY, plan_json TEXT NOT NULL,
                shard_count INTEGER NOT NULL, submitted_at REAL NOT NULL,
                report_json TEXT
            );
            CREATE TABLE shards (
                shard_id INTEGER PRIMARY KEY AUTOINCREMENT,
                plan_id TEXT NOT NULL, shard_index INTEGER NOT NULL,
                state TEXT NOT NULL DEFAULT 'PENDING',
                attempts INTEGER NOT NULL DEFAULT 0,
                worker_id TEXT, lease_deadline REAL,
                report_json TEXT, last_error TEXT,
                UNIQUE (plan_id, shard_index)
            );
            """
        )
        conn.execute(
            "INSERT INTO plans VALUES ('old-plan', '{}', 1, 5.0, NULL)"
        )
        conn.execute(
            "INSERT INTO shards (plan_id, shard_index) VALUES ('old-plan', 0)"
        )
        conn.commit()
        conn.close()

        store = JobStore(path)
        plan = store.get_plan("old-plan")
        assert plan.priority == 0
        shard = store.shards("old-plan")[0]
        assert (shard.progress_completed, shard.progress_total) == (None, None)
        claimed = store.claim_shard("w1", 30.0, now=6.0)
        assert claimed.plan_id == "old-plan"
        store.heartbeat_shard(
            claimed.shard_id, "w1", 30.0, now=7.0, completed=1, total=1
        )
        assert store.get_shard(claimed.shard_id).progress_completed == 1
        store.close()

    def test_migration_is_idempotent_across_reopens(self, tmp_path):
        path = tmp_path / "twice.db"
        JobStore(path).close()
        store = JobStore(path)  # second open must not re-add columns
        store.submit_plan(PLAN_JSON, 1, now=1.0, priority=2)
        store.close()


class TestDurability:
    def test_reopen_resumes_exact_states(self, tmp_path):
        """Crash-resume: a new process over the same file sees everything."""
        path = tmp_path / "service.db"
        store = JobStore(path)
        plan = submit(store, shards=2)
        shard = store.claim_shard("w1", 30.0, now=0.0)
        store.complete_shard(shard.shard_id, "w1", '{"r":1}')
        store.store_plan_report(plan.plan_id, '{"merged":1}')
        store.close()  # the coordinator "dies" here

        reopened = JobStore(path)
        assert reopened.get_plan(plan.plan_id).report_json == '{"merged":1}'
        states = [s.state for s in reopened.shards(plan.plan_id)]
        assert states == [ShardState.COMPLETED, ShardState.PENDING]
        # ...and the queue keeps serving where it left off.
        nxt = reopened.claim_shard("w2", 30.0, now=1.0)
        assert nxt.shard_index == 1
        reopened.close()

    def test_active_lease_survives_restart_for_the_reaper(self, tmp_path):
        path = tmp_path / "service.db"
        store = JobStore(path)
        submit(store, shards=1)
        store.claim_shard("w1", 10.0, now=0.0)
        store.close()

        reopened = JobStore(path)
        expired = reopened.expired_shards(now=99.0)
        assert [s.worker_id for s in expired] == ["w1"]
        reopened.close()
