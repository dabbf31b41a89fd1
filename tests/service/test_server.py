"""HTTP API tests: routes, error-status mapping, verbatim report bytes."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError, ServiceLookupError, TransitionError
from repro.runtime.session import Session

from tests.service.conftest import tiny_plan


def http(url, method="GET", payload=None):
    """Raw request, returning (status, parsed body) without raising."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestRoutes:
    def test_healthz(self, live_service):
        assert live_service.client.healthz() == {"status": "ok"}

    def test_full_flow_over_http(self, live_service):
        """submit -> claim -> complete -> merged report, all through HTTP."""
        client = live_service.client
        plan = tiny_plan()
        response = client.submit(plan, 2)
        assert response["created"] is True

        while (lease := client.claim("w1")) is not None:
            from repro.runtime.plan import SweepPlan

            shard_plan = SweepPlan.from_json(lease["plan"]).shard(
                lease["shard_index"], lease["shard_count"]
            )
            with Session(cache=None, workers=1) as session:
                client.complete(
                    lease["shard_id"], "w1", session.run(shard_plan).to_json()
                )

        status = client.plan_status(response["plan_id"])
        assert status["state"] == "completed"
        with Session(cache=None, workers=1) as session:
            assert client.plan_report(response["plan_id"]) == (
                session.run(plan).to_json()
            )

    def test_plan_accepts_inline_json_object(self, live_service):
        """POST /plans takes the plan as an embedded object, not only text."""
        plan_doc = json.loads(tiny_plan().to_json())
        status, body = http(
            f"{live_service.url}/plans",
            method="POST",
            payload={"plan": plan_doc, "shards": 2},
        )
        assert status == 200
        assert body["shard_count"] == 2

    def test_claim_on_a_dry_queue_returns_null(self, live_service):
        assert live_service.client.claim("w1") is None

    def test_list_plans(self, live_service):
        assert live_service.client.list_plans() == []
        response = live_service.client.submit(tiny_plan(), 2)
        (entry,) = live_service.client.list_plans()
        assert entry["plan_id"] == response["plan_id"]
        assert entry["state"] == "running"
        assert entry["priority"] == 0

    def test_priority_round_trips_over_http(self, live_service):
        client = live_service.client
        response = client.submit(tiny_plan(), 2, priority=4)
        assert response["priority"] == 4
        assert client.plan_status(response["plan_id"])["priority"] == 4

    def test_heartbeat_carries_progress_over_http(self, live_service):
        client = live_service.client
        response = client.submit(tiny_plan(), 1)
        lease = client.claim("w1")
        client.heartbeat(lease["shard_id"], "w1", completed=1, total=4)
        shard = client.plan_status(response["plan_id"])["shards"][0]
        assert (shard["progress_completed"], shard["progress_total"]) == (1, 4)


class TestErrorMapping:
    def test_unknown_plan_is_404(self, live_service):
        with pytest.raises(ServiceLookupError, match="unknown plan"):
            live_service.client.plan_status("nope")

    def test_unknown_route_is_404(self, live_service):
        status, body = http(f"{live_service.url}/frobnicate")
        assert status == 404
        assert "no such route" in body["error"]

    def test_malformed_plan_is_400(self, live_service):
        with pytest.raises(ServiceError) as excinfo:
            live_service.client.submit("{not json", 2)
        assert not isinstance(excinfo.value, (ServiceLookupError, TransitionError))

    def test_unknown_fidelity_is_400_and_enqueues_nothing(self, live_service):
        # Refused at submission, not when a worker first simulates it.
        document = json.loads(tiny_plan().to_json())
        document["plan"]["fidelity"] = "fsat"
        status, body = http(
            f"{live_service.url}/plans", method="POST",
            payload={"plan": json.dumps(document), "shards": 2},
        )
        assert status == 400
        assert "unknown fidelity 'fsat'" in body["error"]
        assert live_service.coordinator.list_plans() == []
        assert live_service.client.claim("w1") is None

    def test_unknown_submit_field_is_400_and_enqueues_nothing(self, live_service):
        # A "shard" typo for "shards" must not submit one shard.
        status, body = http(
            f"{live_service.url}/plans", method="POST",
            payload={"plan": tiny_plan().to_json(), "shard": 4},
        )
        assert status == 400
        assert "unknown field(s) shard" in body["error"]
        assert live_service.coordinator.list_plans() == []
        assert live_service.client.claim("w1") is None

    def test_unknown_claim_field_is_400_and_leases_nothing(self, live_service):
        response = live_service.client.submit(tiny_plan(shapes=1), 1)
        status, body = http(
            f"{live_service.url}/shards/claim", method="POST",
            payload={"worker": "w1", "wrker": "w1"},
        )
        assert status == 400
        assert "unknown field(s) wrker" in body["error"]
        (shard,) = live_service.client.plan_status(response["plan_id"])["shards"]
        assert (shard["state"], shard["attempts"]) == ("PENDING", 0)

    def test_unknown_heartbeat_field_is_400_and_records_nothing(
        self, live_service
    ):
        # "complete" and "totl" for "completed" and "total".
        client = live_service.client
        response = client.submit(tiny_plan(shapes=1), 1)
        lease = client.claim("w1")
        status, body = http(
            f"{live_service.url}/shards/{lease['shard_id']}/heartbeat",
            method="POST",
            payload={"worker": "w1", "complete": 5, "totl": 9},
        )
        assert status == 400
        assert "unknown field(s) complete, totl" in body["error"]
        (shard,) = client.plan_status(response["plan_id"])["shards"]
        assert (shard["progress_completed"], shard["progress_total"]) == (
            None, None
        )
        assert shard["lease_deadline"] == lease["lease_deadline"]

    def test_unknown_complete_field_is_400_and_keeps_the_lease(
        self, live_service
    ):
        client = live_service.client
        response = client.submit(tiny_plan(shapes=1), 1)
        lease = client.claim("w1")
        status, body = http(
            f"{live_service.url}/shards/{lease['shard_id']}/complete",
            method="POST",
            payload={"worker": "w1", "report": "{}", "reprot": "{}"},
        )
        assert status == 400
        assert "unknown field(s) reprot" in body["error"]
        (shard,) = client.plan_status(response["plan_id"])["shards"]
        assert (shard["state"], shard["worker_id"]) == ("ACTIVE", "w1")

    def test_unknown_fail_field_is_400_and_keeps_the_lease(self, live_service):
        # An "eror" typo must not release the shard with a generic message.
        client = live_service.client
        response = client.submit(tiny_plan(shapes=1), 1)
        lease = client.claim("w1")
        status, body = http(
            f"{live_service.url}/shards/{lease['shard_id']}/fail",
            method="POST",
            payload={"worker": "w1", "eror": "out of memory"},
        )
        assert status == 400
        assert "unknown field(s) eror" in body["error"]
        (shard,) = client.plan_status(response["plan_id"])["shards"]
        assert (shard["state"], shard["worker_id"]) == ("ACTIVE", "w1")
        assert shard["last_error"] is None

    def test_heartbeat_without_the_lease_is_409(self, live_service):
        client = live_service.client
        client.submit(tiny_plan(shapes=1), 1)
        lease = client.claim("w1")
        live_service.store.release_shard(lease["shard_id"], "expired", max_attempts=3)
        status, body = http(
            f"{live_service.url}/shards/{lease['shard_id']}/heartbeat",
            method="POST",
            payload={"worker": "w1"},
        )
        assert status == 409
        assert "holds no lease" in body["error"]

    def test_bad_priority_is_400(self, live_service):
        status, body = http(
            f"{live_service.url}/plans",
            method="POST",
            payload={"plan": tiny_plan().to_json(), "priority": "urgent"},
        )
        assert status == 400
        assert "priority" in body["error"]

    def test_bad_progress_is_400(self, live_service):
        client = live_service.client
        client.submit(tiny_plan(shapes=1), 1)
        lease = client.claim("w1")
        status, body = http(
            f"{live_service.url}/shards/{lease['shard_id']}/heartbeat",
            method="POST",
            payload={"worker": "w1", "completed": -1, "total": 4},
        )
        assert status == 400
        assert "completed" in body["error"]

    def test_non_json_body_is_400(self, live_service):
        status, body = http(
            f"{live_service.url}/shards/claim", method="POST", payload=None
        )
        assert status == 400  # empty body has no "worker"
        assert "worker" in body["error"]

    def test_zombie_complete_is_409(self, live_service):
        client = live_service.client
        client.submit(tiny_plan(shapes=1), 1)
        lease = client.claim("w1")
        live_service.store.release_shard(lease["shard_id"], "expired", max_attempts=3)
        client.claim("w2")
        with pytest.raises(TransitionError, match="held by 'w2'"):
            client.complete(lease["shard_id"], "w1", "{}")

    def test_sealed_transition_is_409_over_http(self, live_service):
        client = live_service.client
        client.submit(tiny_plan(shapes=1), 1)
        lease = client.claim("w1")
        from repro.runtime.plan import SweepPlan

        with Session(cache=None, workers=1) as session:
            report = session.run(SweepPlan.from_json(lease["plan"])).to_json()
        client.complete(lease["shard_id"], "w1", report)
        status, body = http(
            f"{live_service.url}/shards/{lease['shard_id']}/fail",
            method="POST",
            payload={"worker": "w1", "error": "too late"},
        )
        assert status == 409
        assert "sealed" in body["error"]
