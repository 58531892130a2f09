"""The simulation service: an asyncio JSON-over-HTTP job server.

One long-lived process owns a shared :class:`~repro.core.SweepPool`
(paying worker spin-up and compiled-model warm-up once), a persistent
result cache, and a bounded job queue; clients submit experiment
payloads over plain HTTP/1.1 and either poll for the finished table or
stream typed progress records as NDJSON.  Everything is stdlib — the
HTTP layer is a deliberately minimal ``asyncio.start_server`` parser,
not a framework.

Endpoints (all JSON; errors are one-line structured objects
``{"error": "<Type>", "message": "<one line>"}``):

* ``GET  /healthz`` — liveness probe.
* ``GET  /v1/stats`` — queue counts, cache traffic, quota balances,
  pool state.
* ``POST /v1/jobs`` — submit a :class:`SimulationPayload`; 202 with the
  job id, 400 on malformed payloads, 413 on a body over the size cap,
  429 (+ ``Retry-After``) when the tenant is over quota, 503 when the
  queue is full or the server is draining.
* ``GET  /v1/jobs/{id}`` — the job's status / finished
  :class:`SimulationOutput`.
* ``GET  /v1/jobs/{id}/events`` — NDJSON stream of the job's
  :class:`~repro.observability.trace.TraceRecord` events (the PR-3
  trace schema as wire format), ending when the job reaches a terminal
  state.
* ``POST /v1/jobs/{id}/cancel`` — cooperative cancellation: a queued
  job is dropped immediately, a running one aborts at its next
  progress event.

Jobs execute one at a time on a single worker thread, each as a
one-point :func:`~repro.core.run_interleaved_sweep` borrowing the
shared pool — so results are bit-identical to the serial
``run_experiment`` path, and a warm repeat of a cached experiment
executes zero replications.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.sweeps import SweepPool, run_interleaved_sweep
from ..errors import ReproError, ServiceError
from ..observability.trace import (
    JOB_ACCEPTED,
    JOB_DONE,
    JOB_PROGRESS,
    JOB_START,
    to_wire,
)
from ..resilience.executor import ResilienceConfig
from ..resilience.result_cache import shared_cache
from .queue import Job, JobQueue, QueueFull
from .quotas import QuotaManager
from .schemas import SimulationPayload, SimulationOutput

#: How often pollers (worker idle loop, event streamers) re-check, s.
_POLL_INTERVAL = 0.02

#: Request parsing caps — far above any legitimate payload.
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _JobCancelled(Exception):
    """Raised from the progress callback to abort a cancelled job."""


class _PayloadTooLarge(Exception):
    """Raised by request parsing for a body over ``_MAX_BODY_BYTES``."""


@dataclass
class ServiceConfig:
    """Server knobs (all have service-grade defaults).

    Attributes:
        host / port: bind address; ``port=0`` lets the OS pick (the
            bound port is readable as ``server.port`` after start).
        jobs: sweep-pool worker processes; 1 without a timeout runs
            replications on the worker thread itself (zero children).
        queue_limit: max queued-or-running jobs before submits get 503.
        quota_rate: per-tenant admitted jobs per second (``None``
            disables quotas).
        quota_burst: per-tenant token-bucket capacity.
        cache_dir: persistent result-cache directory (``None`` disables
            warm hits).
        timeout: per-replication wall-clock budget; forces process
            workers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 1
    queue_limit: int = 64
    quota_rate: Optional[float] = None
    quota_burst: float = 10.0
    cache_dir: Optional[str] = None
    timeout: Optional[float] = None

    def validate(self) -> None:
        if self.jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {self.jobs}")
        if self.queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.quota_rate is not None and self.quota_rate < 0:
            raise ServiceError(f"quota_rate must be >= 0, got {self.quota_rate}")
        if self.quota_burst <= 0:
            raise ServiceError(f"quota_burst must be > 0, got {self.quota_burst}")
        if self.timeout is not None and self.timeout <= 0:
            raise ServiceError(f"timeout must be > 0, got {self.timeout}")


class SimulationServer:
    """The long-lived job server; one instance per process.

    Example (in-process, as the tests use it)::

        server = SimulationServer(ServiceConfig())
        await server.start()
        ...  # talk to it on 127.0.0.1:server.port
        await server.shutdown()
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.config.validate()
        self.queue = JobQueue(self.config.queue_limit)
        self.quotas = QuotaManager(self.config.quota_rate, self.config.quota_burst)
        self.pool = SweepPool(jobs=self.config.jobs, timeout=self.config.timeout)
        self.cache = (
            shared_cache(self.config.cache_dir) if self.config.cache_dir else None
        )
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-job"
        )
        self._wake = asyncio.Event()
        self._closing = False
        self._running: Optional[Job] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the job worker."""
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_task = asyncio.create_task(self._worker())

    async def shutdown(self) -> None:
        """Drain and stop: finish accepted jobs, leave zero children.

        New submissions are refused with 503 the moment this is called;
        already-accepted jobs (running *and* queued — their 202 was a
        promise) run to completion, then the worker thread, the pool
        workers, and the listening socket are all torn down.  Idempotent.
        """
        self._closing = True
        self._wake.set()
        if self._worker_task is not None:
            await self._worker_task
            self._worker_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)
        self.pool.close()

    async def serve_forever(self) -> None:
        """Block until cancelled; then shut down gracefully."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.shutdown()

    # -- the job worker ----------------------------------------------------

    async def _worker(self) -> None:
        """Run queued jobs one at a time on the executor thread."""
        loop = asyncio.get_running_loop()
        while True:
            job = self.queue.next_runnable()
            if job is None:
                if self._closing:
                    return
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), _POLL_INTERVAL * 5)
                except asyncio.TimeoutError:
                    pass
                continue
            self._running = job
            try:
                await loop.run_in_executor(self._executor, self._run_job, job)
            finally:
                self._running = None

    def _run_job(self, job: Job) -> None:
        """Execute one job (worker thread; never raises)."""
        job.status = "running"
        job.emit(JOB_START, job=job.id)
        started = time.monotonic()
        try:
            payload = job.payload
            spec = payload.validate()
            resilience = ResilienceConfig(
                jobs=self.config.jobs,
                timeout=self.config.timeout,
                retries=2,  # a job rides out transient replication faults
                engine=payload.engine,
                cache_dir=self.config.cache_dir,
            )

            def progress(event: Dict[str, Any]) -> None:
                if job.cancel.is_set():
                    raise _JobCancelled()
                job.emit(
                    JOB_PROGRESS,
                    job=job.id,
                    event=event["event"],
                    point=event.get("point"),
                    replication=event.get("replication"),
                    ok=event.get("ok"),
                )

            outcome = run_interleaved_sweep(
                [({}, spec)],
                label=payload.label,
                min_replications=payload.min_replications,
                max_replications=payload.max_replications,
                confidence=payload.confidence,
                target_half_width=payload.target_half_width,
                root_seed=payload.root_seed,
                extra_probes=payload.extra_probes,
                resilience=resilience,
                pool=self.pool,
                progress=progress,
            )
            output = SimulationOutput.from_result(
                job.id,
                outcome.results[0],
                executed=outcome.stats.executed,
                cache_hits=outcome.stats.cache_hits,
                elapsed=time.monotonic() - started,
            )
            job.finish("done", output)
        except _JobCancelled:
            job.finish("cancelled", error="cancelled by client")
        except ReproError as exc:
            job.finish("failed", error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 — a job must never kill the worker
            job.finish("failed", error=f"{type(exc).__name__}: {exc}")
        finally:
            output = job.output
            job.emit(
                JOB_DONE,
                job=job.id,
                status=job.status,
                replications=output.replications if output else 0,
                executed=output.executed if output else 0,
                cache_hits=output.cache_hits if output else 0,
            )

    # -- HTTP --------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except _PayloadTooLarge as exc:
                await self._respond_error(writer, 413, str(exc))
                return
            if request is None:
                await self._respond_error(writer, 400, "malformed HTTP request")
                return
            method, path, body = request
            await self._route(writer, method, path, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        if len(head) > _MAX_HEADER_BYTES:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                try:
                    length = int(line.split(":", 1)[1].strip())
                except ValueError:
                    return None
        if length < 0:
            return None
        if length > _MAX_BODY_BYTES:
            raise _PayloadTooLarge(
                f"body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], body

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
        elif path == "/v1/stats" and method == "GET":
            await self._respond(writer, 200, self.stats())
        elif path == "/v1/jobs" and method == "POST":
            await self._submit(writer, body)
        elif path.startswith("/v1/jobs/") and path.endswith("/events"):
            if method != "GET":
                await self._respond_error(writer, 405, f"{method} not allowed here")
                return
            await self._stream_events(writer, path[len("/v1/jobs/") : -len("/events")])
        elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
            if method != "POST":
                await self._respond_error(writer, 405, f"{method} not allowed here")
                return
            await self._cancel(writer, path[len("/v1/jobs/") : -len("/cancel")])
        elif path.startswith("/v1/jobs/") and method == "GET":
            await self._describe(writer, path[len("/v1/jobs/") :])
        else:
            await self._respond_error(writer, 404, f"no route for {method} {path}")

    async def _submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        if self._closing:
            await self._respond_error(writer, 503, "server is shutting down")
            return
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            await self._respond_error(writer, 400, f"body is not JSON: {exc}")
            return
        try:
            payload = SimulationPayload.from_dict(raw)
            payload.validate()
        except ServiceError as exc:
            await self._respond_error(writer, 400, str(exc))
            return
        retry_after = self.quotas.admit(payload.tenant)
        if retry_after is not None:
            await self._respond_error(
                writer,
                429,
                f"tenant {payload.tenant!r} is over quota",
                headers={
                    "Retry-After": (
                        f"{retry_after:.3f}"
                        if retry_after != float("inf")
                        else "3600"
                    )
                },
            )
            return
        try:
            job = self.queue.submit(payload)
        except QueueFull as exc:
            await self._respond_error(writer, 503, str(exc))
            return
        job.emit(JOB_ACCEPTED, job=job.id, tenant=payload.tenant)
        self._wake.set()
        await self._respond(writer, 202, {"job": job.id, "status": job.status})

    async def _describe(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        try:
            job = self.queue.get(job_id)
        except ServiceError as exc:
            await self._respond_error(writer, 404, str(exc))
            return
        await self._respond(writer, 200, job.describe())

    async def _cancel(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        try:
            job = self.queue.get(job_id)
        except ServiceError as exc:
            await self._respond_error(writer, 404, str(exc))
            return
        was_live = job.request_cancel()
        await self._respond(
            writer, 200, {"job": job.id, "status": job.status, "cancelled": was_live}
        )

    async def _stream_events(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        try:
            job = self.queue.get(job_id)
        except ServiceError as exc:
            await self._respond_error(writer, 404, str(exc))
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        cursor = 0
        while True:
            records = job.events(since=cursor)
            cursor += len(records)
            for record in records:
                writer.write(to_wire(record).encode("utf-8") + b"\n")
            await writer.drain()
            if job.done and not job.events(since=cursor):
                return
            await asyncio.sleep(_POLL_INTERVAL)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` body (also handy for in-process asserts)."""
        return {
            "jobs": self.queue.counts(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "quotas": self.quotas.snapshot(),
            "pool": {
                "jobs": self.pool.jobs,
                "timeout": self.pool.timeout,
                "live_children": len(self.pool.live_children()),
            },
            "closing": self._closing,
        }

    # -- response plumbing -------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()

    async def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
        error: str = "ServiceError",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """One-line structured error: ``{"error": type, "message": line}``."""
        await self._respond(
            writer,
            status,
            {"error": error, "message": " ".join(str(message).split())},
            headers=headers,
        )
