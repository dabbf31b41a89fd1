"""The crash-survival end-to-end test (satellite of the service tentpole).

Submit a real table1 plan, point worker *subprocesses* at the service,
SIGKILL one mid-shard, and assert that (a) the lease reaper re-queues the
orphaned shard and (b) the final merged report is byte-identical to an
unsharded ``Session.run`` of the same plan.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.plan import SweepPlan
from repro.runtime.session import Session


def table1_plan() -> SweepPlan:
    from repro.cli import _sweep_shapes

    shapes = _sweep_shapes("table1")
    return SweepPlan(
        designs=("baseline", "rasa-dmdb-wls"),
        workloads=tuple(list(shapes.items())[:4]),
        scale=16,
    )


def spawn_worker(url, cache_dir, *extra):
    """A real ``repro worker`` process (what SIGKILL actually kills)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in (env.get("PYTHONPATH"),) if p] + ["src"]
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--url", url, "--jobs", "1", "--poll", "0.1",
            "--cache-dir", str(cache_dir), *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_until(predicate, timeout, what):
    start = time.monotonic()
    while time.monotonic() - start < timeout:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    pytest.fail(f"timed out after {timeout}s waiting for {what}")


@pytest.mark.slow
def test_sigkilled_worker_is_reaped_and_the_report_is_bit_identical(
    live_service, tmp_path
):
    client = live_service.client
    plan = table1_plan()
    response = client.submit(plan, 2)
    assert response["shard_count"] == 2
    plan_id = response["plan_id"]

    # A worker that claims a shard and then hangs forever: stall_seconds
    # parks it between claim and simulate, exactly where SIGKILL lands.
    victim = spawn_worker(
        live_service.url, tmp_path / "cache",
        "--stall-seconds", "600", "--max-shards", "1", "--worker-id", "victim",
    )
    try:
        claimed = wait_until(
            lambda: [
                shard
                for shard in client.plan_status(plan_id)["shards"]
                if shard["state"] == "ACTIVE" and shard["worker_id"] == "victim"
            ],
            timeout=60.0,
            what="the victim to claim a shard",
        )
        victim.kill()  # SIGKILL: no cleanup, no fail() call, heartbeats stop
        victim.wait(timeout=30.0)
        assert victim.returncode == -signal.SIGKILL

        # The reaper must notice the silent lease and re-queue the shard.
        requeued = wait_until(
            lambda: [
                shard
                for shard in client.plan_status(plan_id)["shards"]
                if shard["shard_id"] == claimed[0]["shard_id"]
                and shard["state"] == "PENDING"
            ],
            timeout=60.0,
            what="the reaper to re-queue the orphaned shard",
        )
        assert requeued[0]["attempts"] == 1
        assert "lease expired" in requeued[0]["last_error"]
        assert "'victim'" in requeued[0]["last_error"]
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30.0)

    # Two healthy workers drain the queue, orphaned shard included.
    rescuers = [
        spawn_worker(live_service.url, tmp_path / "cache", "--idle-exit", "2")
        for _ in range(2)
    ]
    try:
        for process in rescuers:
            out, _ = process.communicate(timeout=300.0)
            assert process.returncode == 0, out
    finally:
        for process in rescuers:
            if process.poll() is None:
                process.kill()

    status = client.plan_status(plan_id)
    assert status["state"] == "completed", status
    retried = [s for s in status["shards"] if s["shard_id"] == claimed[0]["shard_id"]]
    assert retried[0]["attempts"] == 2  # the SIGKILLed claim plus the retry

    with Session(cache=None, workers=1) as session:
        single_shot = session.run(plan).to_json()
    assert client.plan_report(plan_id) == single_shot
