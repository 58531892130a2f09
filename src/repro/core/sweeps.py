"""The replication driver: one scheduler for every experiment and sweep.

The paper's whole evaluation is sweep-shaped — every figure is a
parameter sweep whose points replicate until their 95% CI half-width
drops below 0.1.  Every replicated run in this package, from a single
``run_experiment`` (a one-point sweep) to a 36-point figure grid or a
service job, is driven by the :class:`_SweepScheduler` here, built from
three pieces:

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

from ..errors import ConfigurationError
from ..metrics.stats import ConvergenceMonitor
from ..observability import trace as _trace
from ..resilience.executor import (
    ResilienceConfig,
    _execute_task,
    _Run,
    _Task,
)
from ..resilience.failures import FailureKind, ReplicationFailure
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


# -- the shared worker pool ------------------------------------------------


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
        # Dispatch ids are unique for the *pool's* lifetime, not per
        # scheduler run: a long-lived shared pool (see SweepPool) may
        # serve many sequential schedulers, and a late result from an
        # earlier run must never collide with a fresh dispatch id.
        self._dispatch_ids = itertools.count()
        for _ in range(jobs):
            self._spawn()

    def next_dispatch_id(self) -> int:
        return next(self._dispatch_ids)

    def _spawn(self) -> int:
        worker = self._next_worker
        self._next_worker += 1
        tasks = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main, args=(tasks, self._results), daemon=True
        )
        process.start()
        self._slots[worker] = _WorkerSlot(process, tasks)
        return worker

    def workers(self) -> int:
        return len(self._slots)

    def idle_workers(self) -> List[int]:
        return [w for w, slot in self._slots.items() if slot.busy is None]

    def submit(
        self, dispatch_id: int, task: _Task, affinity_key: Optional[str]
    ) -> int:
        """Hand the task to an idle worker, warm one preferred.

        A ``None`` key (a model the cache never holds) prefers none.
        """
        idle = self.idle_workers()
        worker = next(
            (w for w in idle if affinity_key in self._slots[w].warm), idle[0]
        )
        slot = self._slots[worker]
        slot.busy = dispatch_id
        if affinity_key is not None:
            slot.warm[affinity_key] = None
            slot.warm.move_to_end(affinity_key)
            while len(slot.warm) > _WARM_CAP:
                slot.warm.popitem(last=False)
        slot.tasks.put((dispatch_id, task))
        return worker

    def release(self, worker: int) -> None:
        slot = self._slots.get(worker)
        if slot is not None:
            slot.busy = None

    def release_by_dispatch(self, dispatch_id: int) -> None:
        """Free whichever slot holds this dispatch (stale-result path).

        A scheduler that stopped early (cooperative job cancellation)
        leaves dispatches in flight; when their results surface under a
        *later* scheduler on the same shared pool, that scheduler knows
        only the dispatch id — this lets it still return the worker to
        service instead of leaking the slot as busy forever.
        """
        for slot in self._slots.values():
            if slot.busy == dispatch_id:
                slot.busy = None
                return

    def drain_stale(self) -> int:
        """Drop buffered results of abandoned runs; free their slots."""
        dropped = 0
        while True:
            item = self.poll(0)
            if item is None:
                return dropped
            self.release_by_dispatch(item[0])
            dropped += 1

    def busy_count(self) -> int:
        return sum(1 for slot in self._slots.values() if slot.busy is not None)

    def live_processes(self) -> List[Any]:
        """Every worker process still alive, including abandoned ones."""
        return [
            slot.process
            for slot in list(self._slots.values()) + self._abandoned
            if slot.process.is_alive()
        ]

    def poll(self, timeout: Optional[float]) -> Optional[Tuple[int, Dict[str, Any]]]:
        try:
            return self._results.get(timeout=timeout)
        except _queue.Empty:
            return None

    def abandon(self, worker: int) -> None:
        """Stop using a stalled worker; spawn its replacement."""
        slot = self._slots.pop(worker, None)
        if slot is not None:
            self._abandoned.append(slot)
        self._spawn()

    def dead_workers(self) -> List[int]:
        """Workers that died while holding a dispatch (result never comes)."""
        return [
            w
            for w, slot in self._slots.items()
            if slot.busy is not None and not slot.process.is_alive()
        ]

    def replace_dead(self, worker: int) -> None:
        slot = self._slots.pop(worker, None)
        if slot is not None:
            self._abandoned.append(slot)
        self._spawn()

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
    """Same interface as :class:`_AffinityPool`, zero processes.

    ``jobs=1`` without a timeout runs replications in-process — the
    scheduling and allocation logic is identical, only the transport
    differs, so the differential tests exercise the real scheduler
    without fork overhead.  ``submit`` only queues the task and ``poll``
    runs it, so a dispatch is recorded before its replications start,
    as on the process pool.
    """

    def __init__(self) -> None:
        self._pending: Deque[Tuple[int, _Task]] = deque()
        self._dispatch_ids = itertools.count()

    def next_dispatch_id(self) -> int:
        return next(self._dispatch_ids)

    def drain_stale(self) -> int:
        """Drop the tasks an aborted run queued but never polled for."""
        dropped = len(self._pending)
        self._pending.clear()
        return dropped

    def release_by_dispatch(self, dispatch_id: int) -> None:
        pass  # poll already popped the task off the one slot

    def busy_count(self) -> int:
        return len(self._pending)

    def live_processes(self) -> List[Any]:
        return []

    def workers(self) -> int:
        return 1

    def idle_workers(self) -> List[int]:
        return [] if self._pending else [0]

    def submit(
        self, dispatch_id: int, task: _Task, affinity_key: Optional[str]
    ) -> int:
        self._pending.append((dispatch_id, task))
        return 0

    def release(self, worker: int) -> None:
        pass

    def poll(self, timeout: Optional[float]) -> Optional[Tuple[int, Dict[str, Any]]]:
        if not self._pending:
            return None
        dispatch_id, task = self._pending.popleft()
        return dispatch_id, _execute_task(task)

    def abandon(self, worker: int) -> None:  # pragma: no cover — no timeouts inline
        self._pending.clear()

    def dead_workers(self) -> List[int]:
        return []

    def replace_dead(self, worker: int) -> None:  # pragma: no cover
        pass

    def close(self) -> None:
        pass


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
        return self._impl.live_processes()

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if not self.closed:
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


# -- per-point scheduling state -------------------------------------------


class _PointState:
    """One sweep point: its executor run plus the scheduler's view of it."""

    def __init__(self, index: int, run: _Run) -> None:
        self.index = index
        self.run = run
        self.min_replications = run.min_replications
        self.max_replications = run.max_replications
        self.next_index = 0
        self.inflight = 0
        self.ready: Deque[_Task] = deque()  # retry tasks owed to this point
        self.done = False
        # The model cache's own key: tasks of one key share a built model.
        self.affinity_key = _reuse_key(
            run.spec, resolve_engine(run.config.engine), run.extra_probes
        )

    def peek_fresh(self) -> Optional[int]:
        """Next never-dispatched replication index, skipping resolved ones."""
        while (
            self.next_index < self.max_replications
            and self.next_index in self.run.resolved
        ):
            self.next_index += 1
        if self.next_index >= self.max_replications:
            return None
        return self.next_index

    def group_cap(self) -> int:
        """Most replications per floor grant (1 = grouping off here).

        Guarded and chaos runs stay single: their guard and chaos state
        is defined per replication attempt.
        """
        config = self.run.config
        if config.guard is not None or config.chaos is not None:
            return 1
        return _FLOOR_GROUP_CAP

    def floor_left(self) -> int:
        """Floor replications not yet granted (nor resolved)."""
        resolved = self.run.resolved
        return sum(
            1
            for index in range(self.next_index, self.min_replications)
            if index not in resolved
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
        return self.run.task(tuple(group))

    def distance(self) -> float:
        return self.run.monitor.distance()

    def refresh_done(self) -> None:
        """Re-derive the finished flag from the run's current state."""
        if self.done:
            return
        if self.run.converged_cut() is not None:
            self.done = True
        elif not self.ready and self.inflight == 0 and self.peek_fresh() is None:
            self.done = True  # budget exhausted


# -- the engine ------------------------------------------------------------


class _SweepScheduler:
    def __init__(
        self,
        states: List[_PointState],
        pool: Any,
        timeout: Optional[float],
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.states = states
        self.pool = pool
        self.timeout = timeout
        self.progress = progress
        self.outstanding: Dict[int, Tuple[_PointState, _Task, int, Optional[float]]] = {}
        self.allocation_log: List[Dict[str, Any]] = []

    def _notify(self, event: str, state: _PointState, task: _Task, **extra: Any) -> None:
        if self.progress is not None:
            self.progress(
                {
                    "event": event,
                    "point": state.index,
                    "replication": task.replication,
                    "attempt": task.attempt,
                    "batch": len(task.replications),
                    **extra,
                }
            )

    # -- admission ---------------------------------------------------------

    def _floor_width(self, state: _PointState) -> int:
        """Replications in ``state``'s next floor grant.

        The point's cap, but no more than an even share of the floor
        still ungranted across the sweep per worker — so a one-point
        run still spreads its floor over every worker, while a wide
        sweep sends each point's floor as one task.
        """
        cap = state.group_cap()
        if cap == 1:
            return 1
        ungranted = sum(s.floor_left() for s in self.states if not s.done)
        share = -(-ungranted // self.pool.workers())
        return max(1, min(cap, share))

    def _next_in_point_order(self) -> Optional[Tuple[_PointState, _Task, str]]:
        """One worker: run each point to its stopping rule in turn.

        A point's cut depends only on its own replication prefix, so the
        results are those of any other order, and each spec's model is
        built once instead of being evicted from the model cache by
        later points' floors and rebuilt for its adaptive grants.
        """
        for state in self.states:
            if state.done:
                continue
            if state.ready:
                return state, state.ready.popleft(), REASON_RETRY
            fresh = state.peek_fresh()
            if fresh is None:
                continue
            if fresh < state.min_replications:
                return state, state.take(self._floor_width(state)), REASON_FLOOR
            return state, state.take(), REASON_ADAPTIVE
        return None

    def _next_choice(self) -> Optional[Tuple[_PointState, _Task, str]]:
        if self.pool.workers() == 1:
            return self._next_in_point_order()
        # 1. Retries are owed work: point order, oldest first.
        for state in self.states:
            if state.ready:
                return state, state.ready.popleft(), REASON_RETRY
        # 2. Floors: every point is entitled to min_replications
        #    concurrently (they execute whatever the monitor says),
        #    granted point-major so consecutive grants share a spec and
        #    the per-process model cache builds each spec once.
        for state in self.states:
            fresh = None if state.done else state.peek_fresh()
            if fresh is not None and fresh < state.min_replications:
                return state, state.take(self._floor_width(state)), REASON_FLOOR
        # 3. Adaptive: one speculative grant at a time per unconverged
        #    point, to whichever is furthest from the half-width target.
        #    The one-in-flight cap is what makes executed == cut.
        candidates = [
            state
            for state in self.states
            if not state.done
            and state.inflight == 0
            and state.peek_fresh() is not None
        ]
        if candidates:
            state = max(candidates, key=lambda s: (s.distance(), -s.index))
            return state, state.take(), REASON_ADAPTIVE
        return None

    def _dispatch(self, state: _PointState, task: _Task, reason: str) -> None:
        # The log's "seq" stays 0-based per sweep; the pool-scoped
        # dispatch id (which may have served earlier runs) routes results.
        dispatch_id = self.pool.next_dispatch_id()
        worker = self.pool.submit(dispatch_id, task, state.affinity_key)
        deadline = None
        if self.timeout is not None:
            # A group runs its members back to back: each gets the budget.
            deadline = time.monotonic() + self.timeout * len(task.replications)
        self.outstanding[dispatch_id] = (state, task, worker, deadline)
        state.inflight += 1
        distance = state.distance()
        entry = {
            "seq": len(self.allocation_log),
            "point": state.index,
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
        self._notify("dispatch", state, task, reason=reason, worker=worker)

    def _fill(self) -> None:
        while self.pool.idle_workers():
            choice = self._next_choice()
            if choice is None:
                return
            self._dispatch(*choice)

    # -- result handling ----------------------------------------------------

    def _handle_result(self, dispatch_id: int, payload: Dict[str, Any]) -> None:
        dispatch = self.outstanding.pop(dispatch_id, None)
        if dispatch is None:
            # Late result from an abandoned worker or an earlier
            # scheduler on a shared pool: drop it, but free its slot.
            self.pool.release_by_dispatch(dispatch_id)
            return
        state, task, worker, _deadline = dispatch
        self.pool.release(worker)
        state.inflight -= 1
        if payload["ok"]:
            state.run.resolve_success(task, payload)
        else:
            self._fail_dispatch(state, task, payload)
        state.refresh_done()
        self._notify("resolved", state, task, ok=bool(payload["ok"]), done=state.done)

    def _fail_dispatch(
        self,
        state: _PointState,
        task: _Task,
        payload: Dict[str, Any],
        kind: Optional[str] = None,
    ) -> None:
        """A dispatch failed: floor groups degrade to single attempts.

        One bad lane (or one group timeout) must not sink its whole
        group's accounting, so each member re-queues as an ordinary
        attempt-0 task and takes the standard retry/timeout machinery
        from there; single tasks go straight to ``fail_attempt``.
        """
        if len(task.replications) > 1:
            for replication in task.replications:
                state.ready.append(
                    dataclasses.replace(task, replications=(replication,))
                )
            return
        self._fail(state, task, payload, kind)

    def _fail(
        self,
        state: _PointState,
        task: _Task,
        payload: Dict[str, Any],
        kind: Optional[str] = None,
    ) -> None:
        retry = state.run.fail_attempt(
            task,
            ReplicationFailure(
                kind=kind or payload.get("kind", FailureKind.EXCEPTION),
                message=payload["error"],
                scheduler=getattr(state.run.spec, "scheduler", ""),
            ),
        )
        if retry is not None:
            state.ready.append(retry)

    def _expire_timeouts(self) -> None:
        now = time.monotonic()
        expired = [
            (dispatch_id, entry)
            for dispatch_id, entry in self.outstanding.items()
            if entry[3] is not None and now >= entry[3]
        ]
        for dispatch_id, (state, task, worker, _deadline) in expired:
            del self.outstanding[dispatch_id]
            self.pool.abandon(worker)
            state.inflight -= 1
            self._fail_dispatch(
                state,
                task,
                {
                    "error": (
                        f"replication attempt exceeded the "
                        f"{self.timeout:g}s wall-clock timeout"
                    )
                },
                kind=FailureKind.TIMEOUT,
            )
            state.refresh_done()
            self._notify("resolved", state, task, ok=False, done=state.done)

    def _reap_dead(self) -> None:
        for worker in self.pool.dead_workers():
            lost = [
                (dispatch_id, entry)
                for dispatch_id, entry in self.outstanding.items()
                if entry[2] == worker
            ]
            self.pool.replace_dead(worker)
            for dispatch_id, (state, task, _worker, _deadline) in lost:
                del self.outstanding[dispatch_id]
                state.inflight -= 1
                self._fail_dispatch(
                    state,
                    task,
                    {"error": "worker process died"},
                    kind=FailureKind.WORKER_CRASH,
                )
                state.refresh_done()
                self._notify("resolved", state, task, ok=False, done=state.done)

    # -- main loop ----------------------------------------------------------

    def drive(self) -> None:
        for state in self.states:
            state.refresh_done()  # a warm cache may finish points
        while not all(state.done for state in self.states):
            self._fill()
            if not self.outstanding:
                if self.pool.busy_count():
                    # Every slot is held by an earlier run's abandoned
                    # work (shared pool): wait for those late results to
                    # surface and free workers, then try to fill again.
                    stale = self.pool.poll(0.2)
                    if stale is not None:
                        self._handle_result(*stale)
                    self._reap_dead()
                    continue
                # Nothing in flight and nothing dispatchable: every
                # remaining point must be finishable right now (a point
                # is only non-done while it has retries, fresh budget,
                # or work in flight).
                for state in self.states:
                    state.refresh_done()
                if not all(state.done for state in self.states):
                    raise RuntimeError(
                        "sweep scheduler stalled with undispatchable points"
                    )
                break
            deadlines = [
                entry[3] for entry in self.outstanding.values() if entry[3] is not None
            ]
            if deadlines:
                budget = max(0.0, min(deadlines) - time.monotonic())
            else:
                budget = 0.2  # bounded, to notice dead workers promptly
            result = self.pool.poll(budget)
            if result is not None:
                self._handle_result(*result)
                # Drain whatever else is already buffered, without blocking.
                while True:
                    more = self.pool.poll(0)
                    if more is None:
                        break
                    self._handle_result(*more)
            self._expire_timeouts()
            self._reap_dead()


def drive_runs(
    runs: Sequence[_Run],
    jobs: int,
    timeout: Optional[float],
    pool: Optional[SweepPool] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Dict[str, Any]]:
    """Drive primed runs (one per point) to their stopping rule.

    Runs in-process when ``jobs == 1`` and no timeout must be enforced,
    otherwise on ``jobs`` worker processes; a borrowed ``pool`` is used
    as it is and left open.  Returns the allocation log.
    """
    owned = pool is None
    if owned:
        pool = SweepPool(jobs, timeout)
    else:
        pool.drain_stale()
    scheduler = _SweepScheduler(
        [_PointState(index, run) for index, run in enumerate(runs)],
        pool._impl,
        timeout,
        progress,
    )
    try:
        scheduler.drive()
    finally:
        if owned:
            pool.close()
    return scheduler.allocation_log


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
    sweep_jobs: Optional[int] = None,
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
    field, as ``sweep_jobs`` replaces its ``jobs``.  Every point's spec
    is validated before anything runs, so a bad point leaves the result
    cache untouched.

    ``pool`` borrows a long-lived :class:`SweepPool` instead of building
    one per call (the pool is *not* closed afterwards, and ``sweep_jobs``
    is ignored); ``progress`` receives one plain-dict event per dispatch
    and per resolution — raising from it aborts the sweep, which is how
    the service layer implements cooperative job cancellation.
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
        # In-process, one attempt, fail on the first error.
        resilience = ResilienceConfig(jobs=1, timeout=None, retries=0)
    if engine is not None:
        resilience = dataclasses.replace(resilience, engine=engine)
    resilience.validate()
    jobs = sweep_jobs if sweep_jobs is not None else resilience.jobs
    if jobs < 1:
        raise ConfigurationError(f"sweep_jobs must be >= 1, got {jobs}")
    if pool is not None:
        if pool.closed:
            raise ConfigurationError("the borrowed SweepPool is already closed")
        if resilience.timeout is not None and pool.timeout is None:
            raise ConfigurationError(
                "a per-replication timeout needs process workers: build the "
                "shared pool with SweepPool(jobs=..., timeout=...)"
            )

    points = list(points)
    for _point, spec in points:
        spec.validate()
    runs: List[_Run] = []
    for index, (_point, spec) in enumerate(points):
        run = _Run(
            spec=spec,
            root_seed=root_seed,
            extra_probes=extra_probes,
            min_replications=min_replications,
            max_replications=max_replications,
            config=resilience,
            scope=f"point{index}",
            monitor=ConvergenceMonitor(
                watch_metrics,
                confidence=confidence,
                target_half_width=target_half_width,
                min_replications=min_replications,
            ),
        )
        run.prime()
        runs.append(run)
    allocation_log = drive_runs(
        runs, jobs=jobs, timeout=resilience.timeout, pool=pool, progress=progress
    )

    results: List[ExperimentResult] = []
    for (point, spec), run in zip(points, runs):
        result = result_from_execution(spec, label, run.assemble(), confidence)
        result.parameters.update(point)
        results.append(result)
    executed_per_point = [run.executed for run in runs]
    stats = SweepStats(
        points=len(runs),
        executed=sum(executed_per_point),
        cache_hits=sum(run.cache_hits for run in runs),
        dispatches=len(allocation_log),
        executed_per_point=executed_per_point,
        allocation_log=allocation_log,
    )
    return SweepOutcome(results=results, stats=stats)
