"""Durable SQLite job store behind the sweep service.

One coordinator process owns one :class:`JobStore`.  The store holds the
submitted plans (their canonical :meth:`repro.runtime.plan.SweepPlan.to_json`
text), one row per shard of each plan, and the full lifecycle of every
shard as an **explicit legal-transition matrix**:

.. code-block:: text

    PENDING   → ACTIVE       (claim: a worker leases the shard)
    ACTIVE    → PENDING      (retry: worker-reported failure or lease expiry,
                              while the retry budget lasts)
    ACTIVE    → COMPLETED    (the worker streamed back its shard report)
    ACTIVE    → FAILED       (retry budget exhausted)

``COMPLETED`` and ``FAILED`` are terminal and sealed — every transition out
of them (and every other pair not listed) raises
:class:`repro.errors.TransitionError`.

Every change to a shard row is one step, :meth:`JobStore._step`: under the
store lock and in one transaction it reads the row, checks the transition
(:func:`check_transition`) and the **lease rule** — the shard is ACTIVE
and the caller holds its lease, else ``TransitionError`` — and writes one
UPDATE.  So a worker whose lease was reaped, re-assigned or sealed writes
nothing and can never corrupt a shard another worker owns, and the
reaper's release re-checks, in that step, the expiry it read earlier.

Durability is SQLite in WAL mode: every transition commits before the call
returns, so a coordinator that dies mid-run restarts with the exact shard
states it last acknowledged.  ``ACTIVE`` rows whose worker died simply keep
their lease deadline; the reaper releases them once the deadline passes.

Concurrency model: the store is single-process (HTTP handler threads plus
the reaper thread inside the coordinator), serialized by one lock around
the shared connection.  Workers on other hosts go through the HTTP API,
never the file.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import sqlite3
import threading
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.errors import ServiceLookupError, TransitionError


class ShardState(enum.Enum):
    """Lifecycle states of one shard of one submitted plan."""

    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"


#: The full legal-transition matrix.  Anything not listed here is illegal;
#: terminal states map to the empty set (sealed).
LEGAL_TRANSITIONS: Dict[ShardState, FrozenSet[ShardState]] = {
    ShardState.PENDING: frozenset({ShardState.ACTIVE}),
    ShardState.ACTIVE: frozenset(
        {ShardState.PENDING, ShardState.COMPLETED, ShardState.FAILED}
    ),
    ShardState.COMPLETED: frozenset(),
    ShardState.FAILED: frozenset(),
}

#: States no transition leaves.
TERMINAL_STATES: FrozenSet[ShardState] = frozenset(
    state for state, targets in LEGAL_TRANSITIONS.items() if not targets
)


def check_transition(old: ShardState, new: ShardState) -> None:
    """Raise :class:`TransitionError` unless ``old → new`` is in the matrix.

    Self-transitions are illegal too — every legal edge changes state, so a
    repeated ``complete`` (or a double claim) always surfaces as an error
    instead of silently rewriting a row.
    """
    if new not in LEGAL_TRANSITIONS[old]:
        sealed = " (terminal states are sealed)" if old in TERMINAL_STATES else ""
        raise TransitionError(
            f"illegal shard transition {old.value} -> {new.value}{sealed}"
        )


@dataclasses.dataclass(frozen=True)
class PlanRow:
    """One submitted plan: identity, canonical JSON, and shard fan-out.

    ``priority`` orders competing plans in the claim queue (higher first;
    ties fall back to shard id, i.e. submission order).  It is scheduling
    policy, not work identity — it is deliberately *not* part of
    :func:`plan_identity`, so resubmitting the same plan at a different
    priority is still idempotent.
    """

    plan_id: str
    plan_json: str
    shard_count: int
    submitted_at: float
    report_json: Optional[str] = None
    priority: int = 0


@dataclasses.dataclass(frozen=True)
class ShardRow:
    """One shard's lifecycle row.

    ``progress_completed``/``progress_total`` are the worker's last
    heartbeat-reported distinct-point progress (``None`` until the first
    report, and reset on requeue — a fresh claim starts from an honest
    blank slate).
    """

    shard_id: int
    plan_id: str
    shard_index: int
    shard_count: int
    state: ShardState
    attempts: int
    worker_id: Optional[str]
    lease_deadline: Optional[float]
    report_json: Optional[str]
    last_error: Optional[str]
    progress_completed: Optional[int] = None
    progress_total: Optional[int] = None


def plan_identity(plan_json: str, shard_count: int) -> str:
    """Deterministic plan id: hash of (canonical plan JSON, shard count).

    Submitting the same plan with the same fan-out twice is idempotent —
    the second submit returns the existing job instead of duplicating the
    work queue.
    """
    blob = f"{shard_count}:{plan_json}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


_SCHEMA = """
CREATE TABLE IF NOT EXISTS plans (
    plan_id      TEXT PRIMARY KEY,
    plan_json    TEXT NOT NULL,
    shard_count  INTEGER NOT NULL,
    submitted_at REAL NOT NULL,
    report_json  TEXT,
    priority     INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS shards (
    shard_id           INTEGER PRIMARY KEY AUTOINCREMENT,
    plan_id            TEXT NOT NULL REFERENCES plans(plan_id),
    shard_index        INTEGER NOT NULL,
    state              TEXT NOT NULL DEFAULT 'PENDING',
    attempts           INTEGER NOT NULL DEFAULT 0,
    worker_id          TEXT,
    lease_deadline     REAL,
    report_json        TEXT,
    last_error         TEXT,
    progress_completed INTEGER,
    progress_total     INTEGER,
    UNIQUE (plan_id, shard_index)
);
CREATE INDEX IF NOT EXISTS shards_by_state ON shards(state);
"""

#: One shard row with its plan's fan-out; every shard read starts here.
_SELECT_SHARD = (
    "SELECT s.*, p.shard_count FROM shards s"
    " JOIN plans p ON p.plan_id = s.plan_id"
)

#: What a step writes: the new state (``None`` keeps it) and the other
#: columns, or ``None`` to leave the row alone.
_Change = Optional[Tuple[Optional[ShardState], Dict[str, object]]]

#: Columns added after the v1 schema shipped; an existing store file gains
#: them in place on open (SQLite ``ALTER TABLE ADD COLUMN`` is metadata-only,
#: so migration is cheap and idempotent).
_MIGRATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("plans", "priority", "INTEGER NOT NULL DEFAULT 0"),
    ("shards", "progress_completed", "INTEGER"),
    ("shards", "progress_total", "INTEGER"),
)


class JobStore:
    """SQLite-backed plan/shard store with the lifecycle matrix enforced.

    Every public method is one atomic, committed step; reopening the same
    path resumes exactly where the previous process stopped.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            for table, column, decl in _MIGRATIONS:
                present = {
                    info["name"]
                    for info in self._conn.execute(f"PRAGMA table_info({table})")
                }
                if column not in present:
                    self._conn.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {decl}"
                    )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plans ---------------------------------------------------------------------

    def submit_plan(
        self, plan_json: str, shard_count: int, now: float, priority: int = 0
    ) -> Tuple[PlanRow, bool]:
        """Insert a plan and its shard rows; idempotent on the plan identity.

        Returns ``(row, created)`` — ``created`` is ``False`` when the very
        same (plan, shard count) was already submitted.  ``priority`` orders
        the claim queue (higher first) but is not part of the identity;
        resubmitting an existing plan keeps its original priority.  The
        coordinator checks both numbers before they get here.
        """
        plan_id = plan_identity(plan_json, shard_count)
        with self._lock, self._conn:
            existing = self._conn.execute(
                "SELECT * FROM plans WHERE plan_id = ?", (plan_id,)
            ).fetchone()
            if existing is not None:
                return _plan_row(existing), False
            self._conn.execute(
                "INSERT INTO plans"
                " (plan_id, plan_json, shard_count, submitted_at, priority)"
                " VALUES (?, ?, ?, ?, ?)",
                (plan_id, plan_json, shard_count, now, priority),
            )
            self._conn.executemany(
                "INSERT INTO shards (plan_id, shard_index, state) VALUES (?, ?, ?)",
                [
                    (plan_id, index, ShardState.PENDING.value)
                    for index in range(shard_count)
                ],
            )
        return (
            PlanRow(
                plan_id=plan_id,
                plan_json=plan_json,
                shard_count=shard_count,
                submitted_at=now,
                priority=priority,
            ),
            True,
        )

    def get_plan(self, plan_id: str) -> PlanRow:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM plans WHERE plan_id = ?", (plan_id,)
            ).fetchone()
        if row is None:
            raise ServiceLookupError(f"unknown plan {plan_id!r}")
        return _plan_row(row)

    def list_plans(self) -> List[PlanRow]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM plans ORDER BY submitted_at, plan_id"
            ).fetchall()
        return [_plan_row(row) for row in rows]

    def store_plan_report(self, plan_id: str, report_json: str) -> None:
        """Persist the merged report of a fully completed plan."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE plans SET report_json = ? WHERE plan_id = ?",
                (report_json, plan_id),
            )
        if cursor.rowcount != 1:
            raise ServiceLookupError(f"unknown plan {plan_id!r}")

    # -- shard reads ----------------------------------------------------------------

    def shards(self, plan_id: str) -> List[ShardRow]:
        self.get_plan(plan_id)  # raises ServiceLookupError on unknown ids
        with self._lock:
            rows = self._conn.execute(
                f"{_SELECT_SHARD} WHERE s.plan_id = ? ORDER BY s.shard_index",
                (plan_id,),
            ).fetchall()
        return [_shard_row(row) for row in rows]

    def get_shard(self, shard_id: int) -> ShardRow:
        with self._lock:
            row = self._fetch_shard(shard_id)
        return _shard_row(row)

    def check_lease(self, shard_id: int, worker_id: str) -> ShardRow:
        """The shard's row if ``worker_id`` holds its ACTIVE lease, else
        :class:`TransitionError` (the lease rule every step applies)."""
        with self._lock:
            row = self._fetch_shard(shard_id)
        _check_lease(row, worker_id)
        return _shard_row(row)

    def expired_shards(self, now: float) -> List[ShardRow]:
        """Every ACTIVE shard whose lease deadline has passed."""
        with self._lock:
            rows = self._conn.execute(
                f"{_SELECT_SHARD} WHERE s.state = ? AND s.lease_deadline < ?"
                " ORDER BY s.shard_id",
                (ShardState.ACTIVE.value, now),
            ).fetchall()
        return [_shard_row(row) for row in rows]

    # -- shard transitions -----------------------------------------------------------

    def claim_shard(
        self, worker_id: str, lease_seconds: float, now: float
    ) -> Optional[ShardRow]:
        """Lease the best PENDING shard: PENDING → ACTIVE, attempts += 1.

        "Best" means highest plan priority first, then lowest shard id
        (submission order) as the tie-break, so equal-priority plans drain
        first-come-first-served.  Returns ``None`` when nothing is pending
        (terminal and leased shards are never handed out).
        """
        return self._step(None, lambda row: (ShardState.ACTIVE, {
            "attempts": row["attempts"] + 1,
            "worker_id": worker_id,
            "lease_deadline": now + lease_seconds,
        }))

    def heartbeat_shard(
        self,
        shard_id: int,
        worker_id: str,
        lease_seconds: float,
        now: float,
        completed: Optional[int] = None,
        total: Optional[int] = None,
    ) -> float:
        """Extend the lease ``worker_id`` holds; returns the new deadline.

        When the worker reports progress (``completed`` distinct points out
        of ``total``) it is recorded on the shard row for ``repro status``;
        a heartbeat without progress leaves the last report in place.
        """
        deadline = now + lease_seconds
        columns: Dict[str, object] = {"lease_deadline": deadline}
        if completed is not None:
            columns.update(progress_completed=completed, progress_total=total)
        self._step(shard_id, lambda row: (None, columns), holder=worker_id)
        return deadline

    def complete_shard(
        self, shard_id: int, worker_id: str, report_json: str
    ) -> ShardRow:
        """ACTIVE → COMPLETED with the shard's report attached."""
        row = self._step(shard_id, lambda row: (ShardState.COMPLETED, {
            "report_json": report_json,
            "last_error": None,
            "worker_id": None,
            "lease_deadline": None,
        }), holder=worker_id)
        assert row is not None  # a holder's step writes or raises
        return row

    def release_shard(
        self,
        shard_id: int,
        error: str,
        max_attempts: int,
        worker_id: Optional[str] = None,
        expired_before: Optional[float] = None,
    ) -> Optional[ShardRow]:
        """ACTIVE → PENDING, or → FAILED once claimed ``max_attempts`` times.

        ``error`` is recorded with the outcome appended.  A worker's release
        (``worker_id``) needs the lease rule; the reaper's (``expired_before``)
        releases only a lease still past that time, else returns ``None``.
        """

        def change(row: sqlite3.Row) -> _Change:
            if expired_before is not None and not (
                row["state"] == ShardState.ACTIVE.value
                and row["lease_deadline"] < expired_before
            ):
                return None
            freed: Dict[str, object] = {"worker_id": None, "lease_deadline": None}
            if row["attempts"] >= max_attempts:
                return ShardState.FAILED, dict(freed, last_error=(
                    f"{error}; retry budget exhausted "
                    f"({row['attempts']}/{max_attempts} attempts)"
                ))
            return ShardState.PENDING, dict(
                freed,
                last_error=f"{error}; re-queued",
                progress_completed=None,
                progress_total=None,
            )

        return self._step(shard_id, change, holder=worker_id)

    # -- internals -----------------------------------------------------------------

    def _step(
        self,
        shard_id: Optional[int],
        change: Callable[[sqlite3.Row], _Change],
        holder: Optional[str] = None,
    ) -> Optional[ShardRow]:
        """The one way a shard row changes, in one locked transaction.

        Reads the row (``shard_id=None``: the best PENDING shard, for a
        claim), asks ``change`` what to write, checks the transition and,
        for a ``holder``, the lease rule, then writes one UPDATE.  Returns
        the new row, or ``None`` if there is nothing to claim or ``change``
        leaves the row alone.
        """
        with self._lock, self._conn:
            if shard_id is None:
                row = self._conn.execute(
                    f"{_SELECT_SHARD} WHERE s.state = ?"
                    " ORDER BY p.priority DESC, s.shard_id LIMIT 1",
                    (ShardState.PENDING.value,),
                ).fetchone()
            else:
                row = self._fetch_shard(shard_id)
            step = None if row is None else change(row)
            if step is None:
                return None
            new, columns = step
            if new is not None:
                check_transition(ShardState(row["state"]), new)
                columns = dict(columns, state=new.value)
            if holder is not None:
                _check_lease(row, holder)
            self._conn.execute(
                f"UPDATE shards SET {', '.join(f'{name} = ?' for name in columns)}"
                " WHERE shard_id = ?",
                (*columns.values(), row["shard_id"]),
            )
            return _shard_row(self._fetch_shard(row["shard_id"]))

    def _fetch_shard(self, shard_id: int) -> sqlite3.Row:
        """Caller holds the lock (or tolerates a read-only race)."""
        row = self._conn.execute(
            f"{_SELECT_SHARD} WHERE s.shard_id = ?", (shard_id,)
        ).fetchone()
        if row is None:
            raise ServiceLookupError(f"unknown shard {shard_id!r}")
        return row


def _check_lease(row: sqlite3.Row, worker_id: str) -> None:
    """The lease rule: the shard is ACTIVE and ``worker_id`` holds it."""
    state = ShardState(row["state"])
    if state is not ShardState.ACTIVE:
        sealed = " (terminal states are sealed)" if state in TERMINAL_STATES else ""
        raise TransitionError(
            f"shard {row['shard_id']} is {state.value}{sealed}, so "
            f"{worker_id!r} holds no lease on it"
        )
    if row["worker_id"] != worker_id:
        raise TransitionError(
            f"shard {row['shard_id']} lease is held by "
            f"{row['worker_id']!r}, not {worker_id!r}; the lease expired "
            "and was re-assigned"
        )


def _plan_row(row: sqlite3.Row) -> PlanRow:
    return PlanRow(
        plan_id=row["plan_id"],
        plan_json=row["plan_json"],
        shard_count=row["shard_count"],
        submitted_at=row["submitted_at"],
        report_json=row["report_json"],
        priority=row["priority"],
    )


def _shard_row(row: sqlite3.Row) -> ShardRow:
    return ShardRow(
        shard_id=row["shard_id"],
        plan_id=row["plan_id"],
        shard_index=row["shard_index"],
        shard_count=row["shard_count"],
        state=ShardState(row["state"]),
        attempts=row["attempts"],
        worker_id=row["worker_id"],
        lease_deadline=row["lease_deadline"],
        report_json=row["report_json"],
        last_error=row["last_error"],
        progress_completed=row["progress_completed"],
        progress_total=row["progress_total"],
    )
