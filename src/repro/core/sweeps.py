"""The replication driver: one scheduler for every experiment and sweep.

The paper's whole evaluation is sweep-shaped — every figure is a
parameter sweep whose points replicate until their 95% CI half-width
drops below 0.1.  Every replicated run in this package, from a single
``run_experiment`` (a one-point sweep) and ``compare_schedulers`` (a
two-point one) to a 36-point figure grid or a service job, is driven by
the :class:`_SweepScheduler` here, one :class:`_Point` per sweep point,
built from three pieces:

* **Shared-pool interleaved scheduling** — one worker pool serves the
  entire sweep.  Replication tasks from *all* points share a single
  dispatch path with spec-affinity placement: replications of the same
  spec prefer workers that already hold its compiled model in the
  per-process :data:`~repro.core.framework._MODEL_CACHE`, so the
  build/lower cost is paid once per (spec, worker) instead of once per
  task.
* **Adaptive cross-point budget allocation** — floors first: every
  point is entitled to its ``min_replications``, granted point-major
  (all of point 0's floor before point 1's) as grouped tasks — one
  parent/worker round trip for up to :data:`_FLOOR_GROUP_CAP`
  replications, split finely enough that every worker gets a share.
  With a single worker each point instead runs to its stopping rule
  before the next starts, so an in-process sweep builds each spec's
  model once.  After every completed replication the point's CI
  half-widths are recomputed incrementally (one-pass
  :class:`~repro.metrics.stats.ConvergenceMonitor`), and the next
  speculative grant goes to the point *furthest* from the half-width
  target.  Beyond its floor each point keeps at most one speculative
  replication in flight, so on a clean run the engine executes exactly
  the convergence cut — no parallel over-run at all.  Worker processes
  therefore parallelise floors and points, not the speculative
  replications of one point.
* **Reproducible stopping** — each grant is appended to an allocation
  log (and emitted as a ``sweep.dispatch`` trace record), so the
  scheduling decisions behind a result table can be replayed and
  audited.

Determinism: a replication's value depends only on (spec, replication
index, root seed, attempt) — never on which worker ran it or when — and
convergence is judged over contiguous resolved prefixes in replication
order, so the metric tables are exactly ``==`` a plain
``simulate_once`` loop that stops at the monitor's cut, for any
``jobs`` (asserted by ``tests/core/test_sweeps.py``).  The persistent
result cache (:mod:`repro.resilience.result_cache`) plugs in underneath:
a warm rerun of a finished sweep executes zero replications, and a
rerun of an interrupted one executes only what it lacks.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import queue as _queue
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReplicationError
from ..metrics.stats import ConvergenceMonitor
from ..observability import trace as _trace
from ..resilience.executor import (
    ExecutionOutcome,
    ReplicationOutcome,
    ResilienceConfig,
    _execute_task,
    _Task,
    bind_cache,
    retry_seed,
)
from ..resilience.failures import FailureKind, ReplicationFailure, failure_summary
from ..san.compiled import resolve_engine
from .config import SystemSpec
from .framework import _reuse_key
from .results import ExperimentResult

# Dispatch reasons recorded in the allocation log.
REASON_FLOOR = "floor"
REASON_ADAPTIVE = "adaptive"
REASON_RETRY = "retry"

#: Per-worker warm-spec LRU size — mirrors the model cache's _REUSE_CAP.
_WARM_CAP = 8

#: Most floor replications one grouped task carries.  A failed group
#: re-runs every member as a single task, and a stalled group is
#: abandoned only at its deadline (``timeout`` × width), so the cap
#: bounds both the work redone after a failure and how late a stall is
#: noticed.
_FLOOR_GROUP_CAP = 8


@dataclass
class SweepStats:
    """What the engine did, beyond the result tables."""

    points: int
    executed: int  # replication attempts actually simulated
    cache_hits: int  # replications satisfied from the result cache
    dispatches: int  # grants issued (== allocation log length)
    executed_per_point: List[int] = field(default_factory=list)
    allocation_log: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class SweepOutcome:
    """Results (point order) plus the engine's accounting."""

    results: List[ExperimentResult]
    stats: SweepStats


# -- the worker pools -------------------------------------------------------
#
# The scheduler drives either pool through one contract.  ``workers`` is
# the slot count and ``idle()`` says whether one is free.
# ``submit(task, key)`` hands the task to a free slot and returns its
# ``(dispatch_id, worker)``; dispatch ids are unique for the pool's
# lifetime, so a late result from an earlier run on a shared pool never
# collides with a fresh one.  ``poll(timeout)`` returns the next
# ``(dispatch_id, payload)`` and frees its slot, whether the scheduler
# still waits for it or not.  On process workers ``replace(worker)``
# abandons a stalled worker and spawns its successor.


def _worker_main(task_queue: Any, result_queue: Any) -> None:
    """Worker loop: execute tasks until the ``None`` sentinel arrives.

    ``_execute_task`` never raises, so every dequeued task produces
    exactly one result tuple; the per-process model cache inside
    ``simulate_once`` is what spec-affinity placement banks on.
    """
    while True:
        item = task_queue.get()
        if item is None:
            return
        dispatch_id, task = item
        result_queue.put((dispatch_id, _execute_task(task)))


class _WorkerSlot:
    def __init__(self, process: Any, tasks: Any) -> None:
        self.process = process
        self.tasks = tasks
        self.busy: Optional[int] = None  # dispatch id in flight
        self.warm: "OrderedDict[str, None]" = OrderedDict()


class _AffinityPool:
    """A process pool with per-worker queues for affinity placement.

    A pool fed from one shared queue cannot route a task to the worker
    whose model cache is already warm; this pool gives every worker its
    own task queue and a parent-side mirror of which specs it has
    recently executed.  Workers are daemonic: a
    stalled worker is *abandoned* (replaced, its late result dropped by
    dispatch-id dedup) rather than killed mid-write, which could corrupt
    the shared result pipe.
    """

    def __init__(self, jobs: int) -> None:
        self._ctx = multiprocessing.get_context()
        self._results = self._ctx.Queue()
        self._slots: Dict[int, _WorkerSlot] = {}
        self._abandoned: List[_WorkerSlot] = []
        self._next_worker = 0
        self._dispatch_ids = itertools.count()
        self.workers = jobs
        for _ in range(jobs):
            self._spawn()

    def _spawn(self) -> None:
        tasks = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main, args=(tasks, self._results), daemon=True
        )
        process.start()
        self._slots[self._next_worker] = _WorkerSlot(process, tasks)
        self._next_worker += 1

    def idle(self) -> bool:
        return any(slot.busy is None for slot in self._slots.values())

    def submit(self, task: _Task, affinity_key: Optional[str]) -> Tuple[int, int]:
        """Hand the task to an idle worker, warm one preferred.

        A ``None`` key (a model the cache never holds) prefers none.
        """
        idle = [w for w, slot in self._slots.items() if slot.busy is None]
        worker = next(
            (w for w in idle if affinity_key in self._slots[w].warm), idle[0]
        )
        slot = self._slots[worker]
        slot.busy = dispatch_id = next(self._dispatch_ids)
        if affinity_key is not None:
            slot.warm[affinity_key] = None
            slot.warm.move_to_end(affinity_key)
            while len(slot.warm) > _WARM_CAP:
                slot.warm.popitem(last=False)
        slot.tasks.put((dispatch_id, task))
        return dispatch_id, worker

    def poll(self, timeout: Optional[float]) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The next result, its slot freed; None when ``timeout`` passes.

        A worker that died holding a dispatch is replaced, and its
        dispatch answers with a worker-crash failure.
        """
        for worker, slot in self._slots.items():
            if slot.busy is not None and not slot.process.is_alive():
                dispatch_id = slot.busy
                self.replace(worker)
                return dispatch_id, {
                    "ok": False,
                    "kind": FailureKind.WORKER_CRASH,
                    "error": "worker process died",
                }
        try:
            dispatch_id, payload = self._results.get(timeout=timeout)
        except _queue.Empty:
            return None
        for slot in self._slots.values():
            if slot.busy == dispatch_id:
                slot.busy = None
                break
        return dispatch_id, payload

    def replace(self, worker: int) -> None:
        """Stop using a stalled or dead worker; spawn its replacement."""
        self._abandoned.append(self._slots.pop(worker))
        self._spawn()

    def drain_stale(self) -> int:
        dropped = 0
        while self.poll(0) is not None:
            dropped += 1
        return dropped

    def live_processes(self) -> List[Any]:
        """Every worker process still alive, including abandoned ones."""
        return [
            slot.process
            for slot in list(self._slots.values()) + self._abandoned
            if slot.process.is_alive()
        ]

    def close(self) -> None:
        """Shut every worker down and release every queue fd.

        Sequence: sentinel -> join -> terminate -> join -> close queues
        -> join the feeder threads of the workers that took their
        sentinel.
        Abandoned workers get the same treatment as live slots — they
        never received a sentinel when they were replaced, and a
        terminated process that is never joined stays a zombie (and its
        queue feeder keeps two pipe fds open) for the life of the
        parent, which leaks across repeated sweeps in one process.
        """
        slots = list(self._slots.values()) + self._abandoned
        for slot in slots:
            try:
                slot.tasks.put(None)
            except Exception:  # noqa: BLE001 — shutdown is best-effort
                pass
        deadline = time.monotonic() + 1.0
        for slot in slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for slot in slots:
            if slot.process.is_alive():
                # Safe now: nothing reads the result queue after close().
                slot.process.terminate()
        deadline = time.monotonic() + 1.0
        for slot in slots:
            if slot.process.is_alive():
                slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for slot in slots:
            try:
                slot.tasks.close()
                if slot.process.exitcode == 0:
                    # It returned on its sentinel, so the feeder thread
                    # has flushed everything: wait for it to exit.
                    slot.tasks.join_thread()
                else:
                    # Terminated or crashed: its pipe may hold unread
                    # data the feeder would block on forever.
                    slot.tasks.cancel_join_thread()
            except Exception:  # noqa: BLE001
                pass
            try:
                slot.process.close()
            except Exception:  # noqa: BLE001 — still alive after SIGTERM
                pass
        try:
            self._results.close()
            self._results.cancel_join_thread()
        except Exception:  # noqa: BLE001
            pass
        self._slots.clear()
        self._abandoned.clear()


class _InlineExecutor:
    """The same contract on one slot and zero processes.

    ``jobs=1`` without a timeout runs replications in-process — the
    scheduling and allocation logic is identical, only the transport
    differs, so the differential tests exercise the real scheduler
    without fork overhead.  ``submit`` only parks the task and ``poll``
    runs it, so a dispatch is recorded before its replications start,
    as on the process pool.
    """

    workers = 1

    def __init__(self) -> None:
        self._pending: Optional[Tuple[int, _Task]] = None
        self._dispatch_ids = itertools.count()

    def idle(self) -> bool:
        return self._pending is None

    def submit(self, task: _Task, affinity_key: Optional[str]) -> Tuple[int, int]:
        self._pending = (next(self._dispatch_ids), task)
        return self._pending[0], 0

    def poll(self, timeout: Optional[float]) -> Optional[Tuple[int, Dict[str, Any]]]:
        if self._pending is None:
            return None
        (dispatch_id, task), self._pending = self._pending, None
        return dispatch_id, _execute_task(task)

    def drain_stale(self) -> int:
        dropped = int(self._pending is not None)
        self._pending = None
        return dropped


class SweepPool:
    """A long-lived shared worker pool, reusable across sweep calls.

    ``run_interleaved_sweep`` normally builds and tears its pool down
    per call; a service that answers many experiment jobs wants to pay
    worker spin-up (and per-worker compiled-model warm-up) once.  Create
    one ``SweepPool`` and pass it as ``pool=`` to any number of
    sequential ``run_interleaved_sweep`` calls; close it (or use it as a
    context manager) when the service drains.

    Args:
        jobs: worker processes.  ``jobs=1`` without a timeout runs
            replications in the calling thread (no child processes).
        timeout: per-replication wall-clock budget the pool must be able
            to enforce; any non-``None`` value forces process workers.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"SweepPool jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(
                f"SweepPool timeout must be > 0, got {timeout}"
            )
        self.jobs = jobs
        self.timeout = timeout
        self.closed = False
        if jobs == 1 and timeout is None:
            self._impl: Any = _InlineExecutor()
        else:
            self._impl = _AffinityPool(jobs)

    def drain_stale(self) -> int:
        """Drop what abandoned runs left behind; free their slots.

        On process workers that is their buffered results; in-process,
        the tasks they queued but never ran.  Returns how many were
        dropped.  Called by ``run_interleaved_sweep`` before every
        borrowed-pool run so a cancelled predecessor cannot bleed
        results into it.
        """
        return self._impl.drain_stale()

    def live_children(self) -> List[Any]:
        """Worker processes still alive (empty for the in-process pool)."""
        if isinstance(self._impl, _AffinityPool):
            return self._impl.live_processes()
        return []

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if isinstance(self._impl, _AffinityPool) and not self.closed:
            self._impl.close()
        self.closed = True

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Progress events (plain dicts) handed to a sweep ``progress`` callback:
#: ``{"event": "dispatch" | "resolved", "point": i, "replication": r, ...}``.
#: Raising from the callback aborts the sweep — the cooperative
#: cancellation hook the service layer uses.
ProgressCallback = Callable[[Dict[str, Any]], None]


# -- one sweep point ---------------------------------------------------------


#: Failure kinds that depend on the wall clock and the host, not on the
#: replication's identity: an outcome carrying one is never stored.
_HOST_DEPENDENT = (FailureKind.TIMEOUT, FailureKind.WORKER_CRASH)


class _Point:
    """One sweep point: its budget, its resolved replications and the
    scheduler's view of what it still owes.

    Fresh replication indices go out in order (``next_index``), skipping
    what the result cache already holds; retries of failed attempts
    wait in ``ready``.  The point is ``done`` once its contiguous
    resolved prefix converges or its budget is spent.
    """

    def __init__(
        self,
        index: int,
        spec: SystemSpec,
        config: ResilienceConfig,
        monitor: ConvergenceMonitor,
        root_seed: int,
        extra_probes: bool,
        min_replications: int,
        max_replications: int,
    ) -> None:
        self.index = index
        self.spec = spec
        self.config = config
        self.monitor = monitor
        self.root_seed = root_seed
        self.extra_probes = extra_probes
        self.min_replications = min_replications
        self.max_replications = max_replications
        self.cache = bind_cache(spec, config, root_seed, extra_probes)
        self.executed = 0
        self.cache_hits = 0
        self.resolved: Dict[int, ReplicationOutcome] = {}
        self._attempt_failures: Dict[int, List[ReplicationFailure]] = {}
        self.next_index = 0
        self.inflight = 0
        self.ready: Deque[_Task] = deque()  # retry tasks owed to this point
        self.done = False
        # The model cache's own key: tasks of one key share a built model.
        self.affinity_key = _reuse_key(
            spec, resolve_engine(config.engine), extra_probes
        )
        # Most replications per floor grant.  Guarded and chaos runs stay
        # single: their guard and chaos state is defined per attempt.
        guarded = config.guard is not None or config.chaos is not None
        self.group_cap = 1 if guarded else _FLOOR_GROUP_CAP

    def prime(self) -> None:
        """Preload every replication the result cache already holds."""
        if self.cache is None:
            return
        for replication in range(self.max_replications):
            outcome = self.cache.load(replication, self.config.retries)
            if outcome is None:
                continue
            self.resolved[replication] = outcome
            self.cache_hits += 1
            tracer = _trace._ACTIVE
            if tracer is not None:
                tracer.emit(
                    _trace.CACHE_HIT,
                    scope=f"point{self.index}",
                    replication=replication,
                    key=self.cache.key(replication),
                )

    # -- what goes out next -------------------------------------------------

    def peek_fresh(self) -> Optional[int]:
        """Next never-dispatched replication index, skipping resolved ones."""
        while (
            self.next_index < self.max_replications
            and self.next_index in self.resolved
        ):
            self.next_index += 1
        if self.next_index >= self.max_replications:
            return None
        return self.next_index

    def floor_left(self) -> int:
        """Floor replications not yet granted (nor resolved)."""
        return sum(
            1
            for index in range(self.next_index, self.min_replications)
            if index not in self.resolved
        )

    def take(self, width: int = 1) -> _Task:
        """The next fresh replication, plus up to ``width - 1`` more of
        the floor.

        Floor replications (< ``min_replications``) execute no matter
        what the convergence monitor later says, so grouping them into
        one dispatch never over-runs the budget an in-order loop would
        spend.  Speculative (adaptive) grants stay single so
        ``executed == cut`` is preserved.
        """
        first = self.peek_fresh()
        assert first is not None  # the caller saw a fresh index
        group = [first]
        self.next_index += 1
        while len(group) < width:
            index = self.peek_fresh()
            if index is None or index >= self.min_replications:
                break
            group.append(index)
            self.next_index += 1
        return _Task(
            spec=self.spec,
            replications=tuple(group),
            attempt=0,
            root_seed=self.root_seed,
            extra_probes=self.extra_probes,
            guard=self.config.guard,
            chaos=self.config.chaos,
            engine=self.config.engine,
        )

    # -- what came back -----------------------------------------------------

    def resolve_success(self, task: _Task, payload: Dict[str, Any]) -> None:
        """Record each member's run, in the task's replication order."""
        for replication, run in zip(task.replications, payload["runs"]):
            self.executed += 1
            tick_failures = [ReplicationFailure.from_dict(f) for f in run["failures"]]
            _stamp(tick_failures, replication, task.attempt)
            earlier = self._attempt_failures.pop(replication, [])
            outcome = ReplicationOutcome(
                replication=replication,
                metrics=dict(run["metrics"]),
                attempt=task.attempt,
                completions=run["completions"],
                degraded=run["degraded"],
                failures=earlier + tick_failures,
            )
            self.resolved[replication] = outcome
            if self.cache is not None and not any(
                f.kind in _HOST_DEPENDENT for f in outcome.failures
            ):
                self.cache.store(outcome)

    def fail(self, task: _Task, payload: Dict[str, Any]) -> None:
        """A dispatch failed, or was lost to a stall or a dead worker.

        One bad lane (or one group timeout) must not sink its whole
        group's accounting, so each member of a floor group re-queues as
        an ordinary attempt-0 task and takes the standard retry/timeout
        machinery from there.  A single task's failure is recorded and
        retried under its reseed while the budget lasts.
        """
        if len(task.replications) > 1:
            for replication in task.replications:
                self.ready.append(dataclasses.replace(task, replications=(replication,)))
            return
        failure = ReplicationFailure(
            kind=payload.get("kind", FailureKind.EXCEPTION),
            message=payload["error"],
            scheduler=self.spec.scheduler,
        )
        self.executed += 1
        _stamp([failure], task.replication, task.attempt)
        bucket = self._attempt_failures.setdefault(task.replication, [])
        bucket.append(failure)
        if task.attempt < self.config.retries:
            retry = dataclasses.replace(task, attempt=task.attempt + 1)
            tracer = _trace._ACTIVE
            if tracer is not None:
                tracer.emit(
                    _trace.EXECUTOR_RETRY,
                    replication=retry.replication,
                    attempt=retry.attempt,
                    seed=retry_seed(retry.root_seed, retry.replication, retry.attempt),
                )
            self.ready.append(retry)
            return
        # Retries exhausted: the replication is permanently failed.
        bucket.append(
            ReplicationFailure(
                kind=FailureKind.RETRIES_EXHAUSTED,
                message=(
                    f"replication {task.replication} failed "
                    f"{task.attempt + 1} attempt(s): {failure_summary(bucket)}"
                ),
                replication=task.replication,
                attempt=task.attempt,
                scheduler=failure.scheduler,
            )
        )
        if not self.config.keep_partial:
            raise ReplicationError(
                f"replication {task.replication} failed after "
                f"{task.attempt + 1} attempt(s) "
                f"({failure_summary(bucket[:-1])}); last error: {failure.message}. "
                "Pass keep_partial=True to continue with surviving replications."
            )
        self.resolved[task.replication] = ReplicationOutcome(
            replication=task.replication,
            metrics=None,
            attempt=task.attempt,
            failures=self._attempt_failures.pop(task.replication),
        )

    # -- convergence over the contiguous resolved prefix --------------------

    def _contiguous_prefix(self) -> int:
        prefix = 0
        while prefix < self.max_replications and prefix in self.resolved:
            prefix += 1
        return prefix

    def _surviving(self, prefix: int) -> List[ReplicationOutcome]:
        return [self.resolved[i] for i in range(prefix) if self.resolved[i].ok]

    def converged_cut(self) -> Optional[int]:
        """Smallest sample count >= min that converges over the resolved
        prefix in replication order; None if not converged yet.

        Feeds the monitor only the samples it has not seen.  Each prefix
        is judged exactly once, which is sound because a prefix's
        samples never change after the fact.
        """
        surviving = self._surviving(self._contiguous_prefix())
        for outcome in surviving[self.monitor.n :]:
            self.monitor.push(outcome.metrics)
        return self.monitor.cut

    def refresh_done(self) -> None:
        """Re-derive the finished flag from the point's current state."""
        if self.done:
            return
        if self.converged_cut() is not None:
            self.done = True
        elif not self.ready and self.inflight == 0 and self.peek_fresh() is None:
            self.done = True  # budget exhausted

    def assemble(self) -> ExecutionOutcome:
        prefix = self._contiguous_prefix()
        surviving = self._surviving(prefix)
        cut = self.converged_cut()
        included = surviving[: cut if cut is not None else len(surviving)]
        if cut is not None and included:
            boundary = included[-1].replication
        else:
            boundary = prefix - 1  # budget exhausted: report the whole prefix
        failures: List[ReplicationFailure] = []
        for index in range(boundary + 1):
            outcome = self.resolved.get(index)
            if outcome is not None:
                failures.extend(outcome.failures)
        failures.sort(key=lambda f: (f.replication, f.attempt, f.sim_time or 0.0))
        return ExecutionOutcome(
            samples=[o.metrics for o in included],
            replications=len(included),
            failures=failures,
            degraded=any(o.degraded for o in included),
        )


def _stamp(failures: List[ReplicationFailure], replication: int, attempt: int) -> None:
    """Label records that do not yet know their replication and attempt."""
    for failure in failures:
        if failure.replication < 0:
            failure.replication = replication
            failure.attempt = attempt


# -- the engine ------------------------------------------------------------


class _SweepScheduler:
    def __init__(
        self,
        points: List[_Point],
        pool: Any,
        timeout: Optional[float],
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.points = points
        self.pool = pool
        self.timeout = timeout
        self.progress = progress
        # dispatch id -> (point, task, worker, deadline)
        self.outstanding: Dict[int, Tuple[_Point, _Task, int, Optional[float]]] = {}
        self.allocation_log: List[Dict[str, Any]] = []

    def _notify(self, event: str, point: _Point, task: _Task, **extra: Any) -> None:
        if self.progress is not None:
            self.progress(
                {
                    "event": event,
                    "point": point.index,
                    "replication": task.replication,
                    "attempt": task.attempt,
                    "batch": len(task.replications),
                    **extra,
                }
            )

    # -- admission ---------------------------------------------------------

    def _floor_width(self, point: _Point) -> int:
        """Replications in ``point``'s next floor grant.

        The point's cap, but no more than an even share of the floor
        still ungranted across the sweep per worker — so a one-point
        run still spreads its floor over every worker, while a wide
        sweep sends each point's floor as one task.
        """
        if point.group_cap == 1:
            return 1
        ungranted = sum(p.floor_left() for p in self.points if not p.done)
        share = -(-ungranted // self.pool.workers)
        return max(1, min(point.group_cap, share))

    def _next_in_point_order(self) -> Optional[Tuple[_Point, _Task, str]]:
        """One worker: run each point to its stopping rule in turn.

        A point's cut depends only on its own replication prefix, so the
        results are those of any other order, and each spec's model is
        built once instead of being evicted from the model cache by
        later points' floors and rebuilt for its adaptive grants.
        """
        for point in self.points:
            if point.done:
                continue
            if point.ready:
                return point, point.ready.popleft(), REASON_RETRY
            fresh = point.peek_fresh()
            if fresh is None:
                continue
            if fresh < point.min_replications:
                return point, point.take(self._floor_width(point)), REASON_FLOOR
            return point, point.take(), REASON_ADAPTIVE
        return None

    def _next_choice(self) -> Optional[Tuple[_Point, _Task, str]]:
        if self.pool.workers == 1:
            return self._next_in_point_order()
        # 1. Retries are owed work: point order, oldest first.
        for point in self.points:
            if point.ready:
                return point, point.ready.popleft(), REASON_RETRY
        # 2. Floors: every point is entitled to min_replications
        #    concurrently (they execute whatever the monitor says),
        #    granted point-major so consecutive grants share a spec and
        #    the per-process model cache builds each spec once.
        for point in self.points:
            fresh = None if point.done else point.peek_fresh()
            if fresh is not None and fresh < point.min_replications:
                return point, point.take(self._floor_width(point)), REASON_FLOOR
        # 3. Adaptive: one speculative grant at a time per unconverged
        #    point, to whichever is furthest from the half-width target.
        #    The one-in-flight cap is what makes executed == cut.
        candidates = [
            point
            for point in self.points
            if not point.done
            and point.inflight == 0
            and point.peek_fresh() is not None
        ]
        if candidates:
            point = max(candidates, key=lambda p: (p.monitor.distance(), -p.index))
            return point, point.take(), REASON_ADAPTIVE
        return None

    def _dispatch(self, point: _Point, task: _Task, reason: str) -> None:
        # The log's "seq" stays 0-based per sweep; the pool-scoped
        # dispatch id (which may have served earlier runs) routes results.
        dispatch_id, worker = self.pool.submit(task, point.affinity_key)
        deadline = None
        if self.timeout is not None:
            # A group runs its members back to back: each gets the budget.
            deadline = time.monotonic() + self.timeout * len(task.replications)
        self.outstanding[dispatch_id] = (point, task, worker, deadline)
        point.inflight += 1
        distance = point.monitor.distance()
        entry = {
            "seq": len(self.allocation_log),
            "point": point.index,
            "replication": task.replication,
            "attempt": task.attempt,
            "worker": worker,
            "reason": reason,
            "batch": len(task.replications),
            "distance": None if distance == float("inf") else distance,
        }
        self.allocation_log.append(entry)
        tracer = _trace._ACTIVE
        if tracer is not None:
            # Not **entry: the log's "seq" would shadow the tracer's own
            # sequence number in the flat JSONL form.
            tracer.emit(
                _trace.SWEEP_DISPATCH,
                **{k: v for k, v in entry.items() if k != "seq"},
            )
        self._notify("dispatch", point, task, reason=reason, worker=worker)

    def _fill(self) -> None:
        while self.pool.idle():
            choice = self._next_choice()
            if choice is None:
                return
            self._dispatch(*choice)

    # -- result handling ----------------------------------------------------

    def _handle_result(self, dispatch_id: int, payload: Dict[str, Any]) -> None:
        """Resolve one dispatch: a result, or a failure payload for one
        lost to a stall or a dead worker."""
        dispatch = self.outstanding.pop(dispatch_id, None)
        if dispatch is None:
            # Late result from an abandoned worker or an earlier
            # scheduler on a shared pool: the pool freed its slot.
            return
        point, task, _worker, _deadline = dispatch
        point.inflight -= 1
        if payload["ok"]:
            point.resolve_success(task, payload)
        else:
            point.fail(task, payload)
        point.refresh_done()
        self._notify("resolved", point, task, ok=bool(payload["ok"]), done=point.done)

    def _expire_timeouts(self) -> None:
        now = time.monotonic()
        expired = [
            (dispatch_id, worker)
            for dispatch_id, (_point, _task, worker, deadline) in self.outstanding.items()
            if deadline is not None and now >= deadline
        ]
        for dispatch_id, worker in expired:
            self.pool.replace(worker)
            self._handle_result(
                dispatch_id,
                {
                    "ok": False,
                    "kind": FailureKind.TIMEOUT,
                    "error": (
                        f"replication attempt exceeded the "
                        f"{self.timeout:g}s wall-clock timeout"
                    ),
                },
            )

    # -- main loop ----------------------------------------------------------

    def drive(self) -> None:
        for point in self.points:
            point.refresh_done()  # a warm cache may finish points
        while not all(point.done for point in self.points):
            self._fill()
            if not self.outstanding and self.pool.idle():
                # Nothing in flight and nothing dispatchable: every
                # remaining point must be finishable right now (a point
                # is only non-done while it has retries, fresh budget,
                # or work in flight).
                for point in self.points:
                    point.refresh_done()
                if not all(point.done for point in self.points):
                    raise RuntimeError(
                        "sweep scheduler stalled with undispatchable points"
                    )
                return
            # With nothing of ours in flight, every slot is held by an
            # earlier run's abandoned work (shared pool): polling frees
            # them as their late results surface.
            deadlines = [
                entry[3] for entry in self.outstanding.values() if entry[3] is not None
            ]
            if deadlines:
                budget = max(0.0, min(deadlines) - time.monotonic())
            else:
                budget = 0.2  # bounded, to notice dead workers promptly
            result = self.pool.poll(budget)
            while result is not None:
                self._handle_result(*result)
                # Drain whatever else is already buffered, without blocking.
                result = self.pool.poll(0)
            self._expire_timeouts()


def run_interleaved_sweep(
    points: Sequence[Tuple[Dict[str, Any], SystemSpec]],
    label: Optional[str] = None,
    watch_metrics: Optional[Sequence[str]] = None,
    min_replications: int = 5,
    max_replications: int = 30,
    confidence: float = None,  # type: ignore[assignment]
    target_half_width: float = None,  # type: ignore[assignment]
    root_seed: int = 0,
    extra_probes: bool = False,
    resilience: Optional[ResilienceConfig] = None,
    engine: Optional[str] = None,
    pool: Optional[SweepPool] = None,
    progress: Optional[ProgressCallback] = None,
) -> SweepOutcome:
    """Run a resolved sweep through the shared-pool adaptive engine.

    Same parameters and semantics as
    :func:`~repro.core.experiment.run_experiment`, applied across every
    point at once; ``points`` comes from
    :func:`~repro.core.experiment.resolve_sweep_points`.  Returns the
    per-point results (point order — order is preserved no matter how
    execution interleaved) plus the engine's accounting.

    An explicit ``engine`` replaces the ``resilience`` config's own
    field.  Every point's spec is validated before anything runs, so a
    bad point leaves the result cache untouched.

    ``pool`` borrows a long-lived :class:`SweepPool` instead of building
    one from the config's ``jobs`` and ``timeout`` per call (the pool is
    *not* closed afterwards, and its own ``jobs`` apply); ``progress``
    receives one plain-dict event per dispatch and per resolution —
    raising from it aborts the sweep, which is how the service layer
    implements cooperative job cancellation.
    """
    from .experiment import (  # local: experiment imports us lazily too
        DEFAULT_CONFIDENCE,
        DEFAULT_TARGET_HALF_WIDTH,
        DEFAULT_WATCH_METRICS,
        result_from_execution,
        validate_protocol,
    )

    if confidence is None:
        confidence = DEFAULT_CONFIDENCE
    if target_half_width is None:
        target_half_width = DEFAULT_TARGET_HALF_WIDTH
    validate_protocol(min_replications, max_replications)
    if watch_metrics is None:
        watch_metrics = list(DEFAULT_WATCH_METRICS)
    if resilience is None:
        resilience = ResilienceConfig()
    if engine is not None:
        resilience = dataclasses.replace(resilience, engine=engine)
    resilience.validate()
    if pool is not None:
        if pool.closed:
            raise ConfigurationError("the borrowed SweepPool is already closed")
        if resilience.timeout is not None and pool.timeout is None:
            raise ConfigurationError(
                "a per-replication timeout needs process workers: build the "
                "shared pool with SweepPool(jobs=..., timeout=...)"
            )

    points = list(points)
    for _params, spec in points:
        spec.validate()
    states = [
        _Point(
            index,
            spec,
            resilience,
            ConvergenceMonitor(
                watch_metrics,
                confidence=confidence,
                target_half_width=target_half_width,
                min_replications=min_replications,
            ),
            root_seed=root_seed,
            extra_probes=extra_probes,
            min_replications=min_replications,
            max_replications=max_replications,
        )
        for index, (_params, spec) in enumerate(points)
    ]
    for state in states:
        state.prime()
    owned = pool is None
    if owned:
        pool = SweepPool(resilience.jobs, resilience.timeout)
    else:
        pool.drain_stale()
    scheduler = _SweepScheduler(states, pool._impl, resilience.timeout, progress)
    try:
        scheduler.drive()
    finally:
        if owned:
            pool.close()

    results: List[ExperimentResult] = []
    for (params, spec), state in zip(points, states):
        result = result_from_execution(spec, label, state.assemble(), confidence)
        result.parameters.update(params)
        results.append(result)
    executed_per_point = [state.executed for state in states]
    stats = SweepStats(
        points=len(states),
        executed=sum(executed_per_point),
        cache_hits=sum(state.cache_hits for state in states),
        dispatches=len(scheduler.allocation_log),
        executed_per_point=executed_per_point,
        allocation_log=scheduler.allocation_log,
    )
    return SweepOutcome(results=results, stats=stats)
