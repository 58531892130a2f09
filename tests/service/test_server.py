"""End-to-end service tests: real sockets, real HTTP, real simulations."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core import SystemSpec, run_experiment
from repro.observability.trace import (
    JOB_ACCEPTED,
    JOB_DONE,
    JOB_PROGRESS,
    JOB_START,
)
from repro.service.server import _MAX_BODY_BYTES

from .conftest import SLOW_SPEC, SMALL_SPEC, run, running_server, small_payload


class TestLifecycleEndpoints:
    def test_health_and_stats(self):
        async def scenario():
            async with running_server() as (_, client):
                assert await client.health()
                stats = await client.stats()
                assert stats["jobs"]["done"] == 0
                assert stats["pool"]["live_children"] == 0
                assert stats["closing"] is False

        run(scenario())

    def test_submit_poll_lifecycle(self):
        async def scenario():
            async with running_server() as (_, client):
                status, body = await client.submit(small_payload(label="hello"))
                assert status == 202
                assert body == {"job": "job-1", "status": "queued"}
                final = await client.wait("job-1")
                assert final["status"] == "done"
                assert final["label"] == "hello"
                assert final["replications"] >= 2
                assert final["executed"] == final["replications"]
                assert final["error"] is None
                assert set(final["metrics"]) >= {
                    "vcpu_availability",
                    "pcpu_utilization",
                    "vcpu_utilization",
                }

        run(scenario())

    def test_unknown_job_and_route_are_404(self):
        async def scenario():
            async with running_server() as (_, client):
                status, _, body = await client.request("GET", "/v1/jobs/job-9")
                assert status == 404
                assert body["error"] == "ServiceError"
                status, _, _ = await client.request("GET", "/nope")
                assert status == 404

        run(scenario())

    def test_wrong_method_is_405(self):
        async def scenario():
            async with running_server() as (_, client):
                status, _, _ = await client.request("POST", "/v1/jobs/j/events")
                assert status == 405

        run(scenario())


class TestValidationErrors:
    @pytest.mark.parametrize(
        "body",
        [
            {"speck": {}},  # unknown key
            {"spec": dict(SMALL_SPEC), "min_replications": 1},  # bad budget
            {"spec": {"vms": [], "pcpus": 0}},  # invalid system
            {"spec": dict(SMALL_SPEC), "engine": "warp"},  # unknown engine
        ],
    )
    def test_malformed_payload_is_structured_400(self, body):
        async def scenario():
            async with running_server() as (_, client):
                status, response = await client.submit(body)
                assert status == 400
                assert response["error"] == "ServiceError"
                assert "\n" not in response["message"]

        run(scenario())

    def test_non_json_body_is_400(self):
        async def scenario():
            async with running_server() as (server, _):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                payload = b"this is not json"
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b" 400 " in raw.split(b"\r\n", 1)[0]
                body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
                assert body["error"] == "ServiceError"
                assert "not JSON" in body["message"]

        run(scenario())

    def test_oversized_request_is_413(self):
        # Refused from its Content-Length alone: the body is never read.
        async def scenario():
            async with running_server() as (server, client):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n" % (_MAX_BODY_BYTES + 1)
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b" 413 Payload Too Large" in raw.split(b"\r\n", 1)[0]
                body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
                assert body["error"] == "ServiceError"
                assert str(_MAX_BODY_BYTES) in body["message"]
                assert await client.health()

        run(scenario())


class TestAdmissionControl:
    def test_quota_exhaustion_is_429_with_retry_after(self):
        async def scenario():
            async with running_server(quota_rate=0.0, quota_burst=2) as (
                server,
                client,
            ):
                for _ in range(2):
                    status, _ = await client.submit(small_payload(tenant="acme"))
                    assert status == 202
                status, headers, body = await client.request(
                    "POST", "/v1/jobs", body=small_payload(tenant="acme")
                )
                assert status == 429
                assert body["error"] == "ServiceError"
                assert "acme" in body["message"]
                assert "retry-after" in headers
                # other tenants are unaffected
                status, _ = await client.submit(small_payload(tenant="zeta"))
                assert status == 202

        run(scenario())

    def test_full_queue_is_503(self):
        async def scenario():
            async with running_server(queue_limit=1) as (_, client):
                slow = small_payload(
                    spec=dict(SLOW_SPEC), min_replications=30, max_replications=30
                )
                status, first = await client.submit(slow)
                assert status == 202
                status, body = await client.submit(small_payload())
                assert status == 503
                assert "full" in body["message"]
                await client.cancel(first["job"])
                await client.wait(first["job"])

        run(scenario())


class TestResults:
    def test_results_exactly_equal_serial_run_experiment(self):
        async def scenario():
            async with running_server() as (_, client):
                return await client.submit_and_wait(
                    small_payload(min_replications=3, max_replications=4, root_seed=11)
                )

        body = run(scenario())
        serial = run_experiment(
            SystemSpec.from_dict(SMALL_SPEC),
            min_replications=3,
            max_replications=4,
            root_seed=11,
        )
        assert body["replications"] == serial.replications
        assert set(body["metrics"]) == set(serial.estimates)
        for name, entry in body["metrics"].items():
            assert entry["mean"] == serial.estimates[name].mean
            assert entry["half_width"] == serial.estimates[name].half_width
            assert entry["n"] == serial.estimates[name].n

    def test_warm_identical_query_executes_zero_replications(self, tmp_path):
        async def scenario():
            async with running_server(cache_dir=str(tmp_path)) as (_, client):
                cold = await client.submit_and_wait(small_payload())
                warm = await client.submit_and_wait(small_payload())
                return cold, warm

        cold, warm = run(scenario())
        assert cold["executed"] == cold["replications"] > 0
        assert warm["executed"] == 0
        assert warm["cache_hits"] == warm["replications"] == cold["replications"]
        cold_metrics = dict(cold["metrics"])
        assert warm["metrics"] == cold_metrics

    def test_concurrent_identical_submissions_are_bit_identical(self, tmp_path):
        async def scenario():
            async with running_server(cache_dir=str(tmp_path)) as (_, client):
                payload = small_payload(root_seed=3)
                bodies = await asyncio.gather(
                    *[client.submit_and_wait(payload) for _ in range(6)]
                )
                return bodies

        bodies = run(scenario())
        serial = run_experiment(
            SystemSpec.from_dict(SMALL_SPEC),
            min_replications=2,
            max_replications=3,
            root_seed=3,
        )
        reference = bodies[0]["metrics"]
        for body in bodies:
            assert body["status"] == "done"
            assert body["metrics"] == reference
        for name, entry in reference.items():
            assert entry["mean"] == serial.estimates[name].mean
            assert entry["half_width"] == serial.estimates[name].half_width
        # the first execution seeds the cache; later jobs warm-hit it
        executed = sorted(body["executed"] for body in bodies)
        assert executed[0] == 0
        assert executed[-1] > 0

    def test_tenant_and_label_do_not_change_the_numbers(self, tmp_path):
        async def scenario():
            async with running_server(cache_dir=str(tmp_path)) as (_, client):
                a = await client.submit_and_wait(
                    small_payload(tenant="alpha", label="a")
                )
                b = await client.submit_and_wait(
                    small_payload(tenant="beta", label="b")
                )
                return a, b

        a, b = run(scenario())
        assert a["metrics"] == b["metrics"]
        assert b["executed"] == 0  # identity ignores tenant/label -> warm hit


class TestStreaming:
    def test_event_stream_is_ordered_trace_records(self):
        async def scenario():
            async with running_server() as (_, client):
                status, body = await client.submit(small_payload())
                assert status == 202
                return [r async for r in client.stream_events(body["job"])]

        records = run(scenario())
        kinds = [record.kind for record in records]
        assert kinds[0] == JOB_ACCEPTED
        assert kinds[1] == JOB_START
        assert kinds[-1] == JOB_DONE
        assert JOB_PROGRESS in kinds[2:-1]
        assert [record.seq for record in records] == list(range(len(records)))
        assert all(
            a.t <= b.t for a, b in zip(records, records[1:])
        ), "event times must be nondecreasing"
        progress = [r for r in records if r.kind == JOB_PROGRESS]
        assert {r.get("event") for r in progress} == {"dispatch", "resolved"}
        done = records[-1]
        assert done.get("status") == "done"
        assert done.get("executed") == done.get("replications") > 0

    def test_stream_of_unknown_job_is_404(self):
        async def scenario():
            async with running_server() as (_, client):
                with pytest.raises(Exception, match="404"):
                    async for _ in client.stream_events("job-77"):
                        pass

        run(scenario())


class TestCancellation:
    def test_cancel_running_job_aborts_cooperatively(self):
        async def scenario():
            async with running_server() as (_, client):
                slow = small_payload(
                    spec=dict(SLOW_SPEC), min_replications=30, max_replications=30
                )
                status, body = await client.submit(slow)
                assert status == 202
                job_id = body["job"]
                # wait for it to actually start executing
                while (await client.job(job_id))["status"] == "queued":
                    await asyncio.sleep(0.01)
                response = await client.cancel(job_id)
                assert response["cancelled"] is True
                final = await client.wait(job_id)
                assert final["status"] == "cancelled"
                assert "cancel" in final["error"]
                # the server is still healthy and runs the next job fine
                follow_up = await client.submit_and_wait(small_payload())
                assert follow_up["status"] == "done"

        run(scenario())

    def test_cancel_queued_job_never_runs(self):
        async def scenario():
            async with running_server() as (_, client):
                slow = small_payload(
                    spec=dict(SLOW_SPEC), min_replications=30, max_replications=30
                )
                _, first = await client.submit(slow)
                _, second = await client.submit(small_payload())
                response = await client.cancel(second["job"])
                assert response["status"] == "cancelled"
                await client.cancel(first["job"])
                final = await client.wait(second["job"])
                assert final["status"] == "cancelled"
                done = await client.wait(first["job"])
                assert done["status"] == "cancelled"

        run(scenario())
