"""Regression suite: graceful shutdown leaks nothing.

Extends the PR-7 ``_AffinityPool.close()`` guarantees to the whole
service lifecycle: after ``shutdown()`` there must be zero live child
processes (even with a multi-process pool) and no orphaned worker
threads, accepted jobs must have been drained to terminal states, and
the cycle must be repeatable within one interpreter.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading

from repro.service import ServiceConfig, SimulationServer

from .conftest import SLOW_SPEC, run, running_server, small_payload


def _service_threads() -> list:
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-job")
    ]


def _child_pids() -> set:
    return {child.pid for child in multiprocessing.active_children()}


def _new_children(preexisting: set) -> list:
    # Gate on children *these* scenarios create: the chaos/timeout suites
    # deliberately abandon stalled workers that exit on their own schedule,
    # and under one shared pytest process those stragglers are visible here.
    return [
        child
        for child in multiprocessing.active_children()
        if child.pid not in preexisting
    ]


class TestGracefulShutdown:
    def test_inline_pool_shutdown_leaves_nothing(self):
        async def scenario():
            async with running_server() as (server, client):
                for _ in range(3):
                    status, _ = await client.submit(small_payload())
                    assert status == 202
                return server

        before = _child_pids()
        server = run(scenario())
        assert _new_children(before) == []
        assert server.pool.closed
        assert server.pool.live_children() == []
        assert _service_threads() == []
        # every accepted job was drained to a terminal state
        assert all(job.done for job in server.queue.jobs())
        assert server.queue.counts()["done"] == 3

    def test_process_pool_shutdown_leaves_zero_children(self):
        async def scenario():
            async with running_server(jobs=2) as (server, client):
                assert len(server.pool.live_children()) == 2
                body = await client.submit_and_wait(small_payload())
                assert body["status"] == "done"
                return server

        before = _child_pids()
        server = run(scenario())
        for child in _new_children(before):
            child.join(timeout=2.0)
        assert _new_children(before) == []
        assert server.pool.live_children() == []
        assert _service_threads() == []

    def test_shutdown_drains_queued_jobs(self):
        async def scenario():
            server = SimulationServer(ServiceConfig(port=0))
            await server.start()
            from repro.service import ServiceClient

            client = ServiceClient("127.0.0.1", server.port)
            ids = []
            for _ in range(3):
                status, body = await client.submit(small_payload())
                assert status == 202
                ids.append(body["job"])
            # immediate shutdown: the 202s were promises, all must finish
            await server.shutdown()
            return server, ids

        server, ids = run(scenario())
        for job_id in ids:
            assert server.queue.get(job_id).status == "done"

    def test_submit_while_draining_is_503(self):
        async def scenario():
            async with running_server() as (server, client):
                server._closing = True
                status, body = await client.submit(small_payload())
                assert status == 503
                assert "shutting down" in body["message"]

        run(scenario())

    def test_shutdown_is_idempotent(self):
        async def scenario():
            server = SimulationServer(ServiceConfig(port=0))
            await server.start()
            await server.shutdown()
            await server.shutdown()

        before = _child_pids()
        run(scenario())
        assert _new_children(before) == []

    def test_repeated_start_shutdown_cycles_do_not_leak(self):
        async def cycle():
            async with running_server(jobs=2) as (_, client):
                body = await client.submit_and_wait(small_payload())
                assert body["status"] == "done"

        baseline = len(threading.enumerate())
        before = _child_pids()
        for _ in range(3):
            run(cycle())
        for child in _new_children(before):
            child.join(timeout=2.0)
        assert _new_children(before) == []
        assert _service_threads() == []
        assert len(threading.enumerate()) <= baseline + 1


class TestClientDisconnect:
    def test_client_disconnect_mid_ndjson_stream(self):
        # The stream's reader vanishes after the first record: the job
        # still runs to done, the server keeps serving, and shutdown
        # leaves no pool child behind.
        async def scenario():
            async with running_server(jobs=2) as (server, client):
                status, body = await client.submit(
                    small_payload(
                        spec=dict(SLOW_SPEC),
                        min_replications=6,
                        max_replications=6,
                    )
                )
                assert status == 202
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    f"GET /v1/jobs/{body['job']}/events HTTP/1.1\r\n\r\n".encode()
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b" 200 " in head.split(b"\r\n", 1)[0]
                assert await reader.readline()  # the first NDJSON record
                writer.transport.abort()
                final = await client.wait(body["job"])
                assert final["status"] == "done"
                assert final["replications"] == 6
                assert await client.health()
                return server

        before = _child_pids()
        server = run(scenario())
        for child in _new_children(before):
            child.join(timeout=2.0)
        assert _new_children(before) == []
        assert server.pool.live_children() == []
        assert _service_threads() == []
