"""The resilient replication executor: the shared vocabulary of runs.

The paper replicates every configuration until each watched metric's
95% CI half-width drops below 0.1.  This module holds what one such
replicated experiment is made of, and what survives faults:

* **timeouts** — each replication attempt gets a wall-clock budget; a
  stalled worker is abandoned (replaced, its late result dropped) and
  the attempt is treated as failed;
* **retry with reseed** — a failed attempt re-runs under a fresh seed
  drawn deterministically from the same seed family
  (:func:`retry_seed`), so results are reproducible and independent of
  which other replications ran or failed;
* **checkpointing** — every resolved replication streams to a JSONL
  :class:`~repro.resilience.checkpoint.CheckpointStore`, so an
  interrupted run resumes without recomputation;
* **result caching** — clean first attempts are memoized in the
  persistent :class:`~repro.resilience.result_cache.ResultCache`.

:class:`_Run` is one experiment's state; *which* replication runs next,
on which worker, and when the experiment stops is decided by one
driver only, the sweep scheduler in :mod:`repro.core.sweeps`.
:func:`run_replications` drives a single experiment there as a
one-point sweep, exactly as the simulation service runs its jobs.

Determinism contract: replication *r*, attempt 0 uses exactly the
streams :func:`~repro.core.framework.simulate_once` uses for *r*, and
the convergence decision is taken over samples in replication order —
so ``jobs=8`` produces the same
:class:`~repro.core.results.ExperimentResult` as ``jobs=1``, and a
killed-then-resumed run the same tables as an uninterrupted one.
Replications computed beyond the convergence cut are discarded, never
mixed in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..des.random_streams import derive_seed
from ..errors import ConfigurationError, ReplicationError
from ..metrics.stats import ConvergenceMonitor
from ..observability import trace as _trace
from ..san.compiled import ENGINES, resolve_engine
from .chaos import ChaosSpec
from .checkpoint import CheckpointStore, fingerprint
from .failures import FailureKind, ReplicationFailure, failure_summary
from .guard import GuardPolicy
from .result_cache import ResultCache, cacheable_spec_payload, shared_cache


@dataclass
class ResilienceConfig:
    """Knobs of the resilient executor (all opt-in; defaults are safe).

    Attributes:
        jobs: worker processes of the sweep scheduler (1 = run
            in-process).  Workers take floor replications (the first
            ``min_replications`` of every point) and different points
            in parallel; past its floor a point keeps at most one
            speculative replication in flight, so a single point's
            adaptive replications run one at a time at any ``jobs``.
        timeout: wall-clock seconds per replication attempt (``None``
            disables; setting it forces process workers even at
            ``jobs=1`` so a stall can actually be abandoned).  A grouped
            floor task gets ``timeout`` per member.
        retries: extra attempts per replication after the first.
        backoff: base of the exponential retry backoff in seconds
            (attempt *a* sleeps ``backoff * 2**a``).
        checkpoint: JSONL checkpoint path (``None`` disables).
        resume: load the checkpoint instead of starting fresh.
        checkpoint_scope: namespace inside the checkpoint file
            (``run_sweep`` gives every point its own scope).
        guard: decision-guard policy applied around the scheduler
            (``None`` = unguarded, exactly the legacy behavior).
        chaos: deterministic fault-injection plan (testing only).
        keep_partial: when a replication exhausts its retries, record
            the failure and continue with the surviving replications
            instead of raising :class:`~repro.errors.ReplicationError`.
        engine: enablement engine for every replication —
            ``"compiled"`` (the default, ``None``), ``"rescan"`` or
            ``"batch"``; results are bit-identical across all three.
            On a spec, ``"batch"`` is the compiled engine run as a
            one-lane :func:`~repro.san.compiled.run_lanes`.  On every
            engine the sweep scheduler dispatches a point's clean
            (unguarded, chaos-free) floor replications as grouped
            tasks, which a worker runs as a ``simulate_once`` loop.
        reuse: reuse the built (and, for compiled, lowered) model across
            replications of the same spec — once per process, so each
            pool worker compiles once and resets thereafter.
        cache_dir: persistent result-cache directory (``None`` disables).
            Clean replication results are memoized across invocations,
            keyed by (spec JSON, engine, root seed, replication index)
            under the current code fingerprint; guard/chaos runs and
            non-serializable specs are never cached.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    checkpoint: Optional[str] = None
    resume: bool = False
    checkpoint_scope: str = "experiment"
    guard: Optional[GuardPolicy] = None
    chaos: Optional[ChaosSpec] = None
    keep_partial: bool = False
    engine: Optional[str] = None
    reuse: bool = True
    cache_dir: Optional[str] = None

    def validate(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff}")
        if self.resume and not self.checkpoint:
            raise ConfigurationError("resume=True requires a checkpoint path")
        if self.guard is not None:
            self.guard.validate()
        if self.chaos is not None:
            self.chaos.validate()
        if self.engine is not None and self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )


def retry_seed(root_seed: int, replication: int, attempt: int) -> int:
    """The seed-family member for one replication attempt.

    Attempt 0 keeps the experiment's root seed (bit-identical to
    ``simulate_once(spec, replication, root_seed)``); retries derive a
    fresh root from ``(root_seed, replication, attempt)`` alone, so the
    reseed is deterministic and independent of execution order or of
    which other replications failed.
    """
    if attempt == 0:
        return root_seed
    return derive_seed(root_seed, f"retry:{replication}", attempt)


@dataclass
class ReplicationOutcome:
    """One resolved replication: its sample, or its permanent failure."""

    replication: int
    metrics: Optional[Dict[str, float]]
    attempt: int = 0
    completions: int = 0
    degraded: bool = False
    failures: List[ReplicationFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.metrics is not None

    def to_payload(self) -> Dict[str, Any]:
        """Checkpoint-record body (JSON-safe)."""
        return {
            "ok": self.ok,
            "metrics": self.metrics,
            "attempt": self.attempt,
            "completions": self.completions,
            "degraded": self.degraded,
            "failures": [f.to_dict() for f in self.failures],
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ReplicationOutcome":
        return cls(
            replication=int(record["replication"]),
            metrics=record.get("metrics") if record.get("ok") else None,
            attempt=int(record.get("attempt", 0)),
            completions=int(record.get("completions", 0)),
            degraded=bool(record.get("degraded", False)),
            failures=[
                ReplicationFailure.from_dict(f) for f in record.get("failures", [])
            ],
        )


@dataclass
class ExecutionOutcome:
    """What the executor hands back to ``run_experiment``."""

    samples: List[Dict[str, float]]  # included samples, replication order
    replications: int  # number of included samples
    failures: List[ReplicationFailure]
    degraded: bool
    executed: int = 0  # replication attempts actually simulated
    cache_hits: int = 0  # replications satisfied from the result cache


@dataclass
class _Task:
    """Replication attempts of one spec, picklable for the process pool.

    The worker runs ``replications`` in order at ``attempt`` and answers
    with one payload per member, in the same order.  A task of several
    members is a point's floor group, always at attempt 0.
    """

    spec: Any  # SystemSpec (kept loose: no core import at module level)
    replications: Tuple[int, ...]
    attempt: int
    root_seed: int
    extra_probes: bool
    guard: Optional[GuardPolicy]
    chaos: Optional[ChaosSpec]
    engine: Optional[str] = None
    reuse: bool = True

    @property
    def replication(self) -> int:
        """The first member: the task's index in logs and progress events."""
        return self.replications[0]


def _run_payload(run: Any) -> Dict[str, Any]:
    return {
        "ok": True,
        "metrics": run.metrics,
        "completions": run.completions,
        "degraded": run.degraded,
        "failures": [f.to_dict() for f in run.failures],
    }


def _execute_task(task: _Task) -> Dict[str, Any]:
    """Worker entry: run the task's members, never raise across the boundary.

    A fault in any member fails the whole task.
    """
    from ..core import framework  # local: break the core <-> resilience cycle

    try:
        # framework.simulate_once is looked up per call, so a wrapper
        # installed on the module (a completion counter) sees every run.
        runs = [
            framework.simulate_once(
                task.spec,
                replication=replication,
                root_seed=retry_seed(task.root_seed, replication, task.attempt),
                extra_probes=task.extra_probes,
                guard=task.guard,
                chaos=task.chaos,
                attempt=task.attempt,
                engine=task.engine,
                reuse=task.reuse,
            )
            for replication in task.replications
        ]
    except Exception as exc:  # noqa: BLE001 — every fault becomes a record
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "runs": [_run_payload(run) for run in runs]}


def spec_payload(spec: Any) -> Any:
    """A spec's JSON-able identity for checkpoint fingerprinting."""
    try:
        return spec.to_dict()
    except Exception:  # live Distribution instances do not round-trip
        return repr(spec)


def scope_fingerprint(
    spec: Any, root_seed: int, extra_probes: bool, config: ResilienceConfig
) -> str:
    """The checkpoint-scope fingerprint of one experiment (sweep point).

    Resuming refuses a scope whose fingerprint differs, so a checkpoint
    can never feed samples into a different experiment.
    """
    return fingerprint(
        {
            "spec": spec_payload(spec),
            "root_seed": root_seed,
            "extra_probes": extra_probes,
            "guard": config.guard.to_dict() if config.guard else None,
            "chaos": config.chaos.to_dict() if config.chaos else None,
            "version": 1,
        }
    )


class CacheBinding:
    """A :class:`ResultCache` bound to one experiment's identity.

    Collapses the five-part cache key down to "which replication index",
    which is all one run ever varies.
    """

    def __init__(
        self,
        cache: ResultCache,
        spec_payload: Any,
        engine: str,
        root_seed: int,
        extra_probes: bool,
    ) -> None:
        self.cache = cache
        self._spec_payload = spec_payload
        self._engine = engine
        self._root_seed = root_seed
        self._extra_probes = extra_probes

    def key(self, replication: int) -> str:
        return self.cache.key(
            self._spec_payload,
            self._engine,
            self._root_seed,
            replication,
            self._extra_probes,
        )

    def load(self, replication: int) -> Optional[Dict[str, Any]]:
        return self.cache.load(self.key(replication))

    def store(self, replication: int, payload: Dict[str, Any]) -> None:
        self.cache.store(self.key(replication), payload)


def bind_cache(
    spec: Any, config: ResilienceConfig, root_seed: int, extra_probes: bool
) -> Optional[CacheBinding]:
    """The result cache for one experiment, or None when ineligible.

    Caching silently disables when no ``cache_dir`` is configured, when
    a guard or chaos plan makes results not a function of the cache key,
    or when the spec has no canonical JSON form.
    """
    if not config.cache_dir:
        return None
    if config.guard is not None or config.chaos is not None:
        return None
    payload = cacheable_spec_payload(spec)
    if payload is None:
        return None
    engine = resolve_engine(config.engine)
    return CacheBinding(
        shared_cache(config.cache_dir), payload, engine, root_seed, extra_probes
    )


class _Run:
    """State of one replicated experiment (one sweep point)."""

    def __init__(
        self,
        spec: Any,
        root_seed: int,
        extra_probes: bool,
        min_replications: int,
        max_replications: int,
        config: ResilienceConfig,
        checkpoint: Optional[CheckpointStore],
        monitor: ConvergenceMonitor,
    ) -> None:
        self.spec = spec
        self.root_seed = root_seed
        self.extra_probes = extra_probes
        self.min_replications = min_replications
        self.max_replications = max_replications
        self.config = config
        self.checkpoint = checkpoint
        self.monitor = monitor
        self.cache = bind_cache(spec, config, root_seed, extra_probes)
        self.executed = 0
        self.cache_hits = 0
        self.resolved: Dict[int, ReplicationOutcome] = {}
        self._attempt_failures: Dict[int, List[ReplicationFailure]] = {}

    # -- shared bookkeeping -------------------------------------------------

    def task(self, replications: Tuple[int, ...]) -> _Task:
        return _Task(
            spec=self.spec,
            replications=replications,
            attempt=0,
            root_seed=self.root_seed,
            extra_probes=self.extra_probes,
            guard=self.config.guard,
            chaos=self.config.chaos,
            engine=self.config.engine,
            reuse=self.config.reuse,
        )

    def resolve_success(self, task: _Task, payload: Dict[str, Any]) -> None:
        """Record each member's run, in the task's replication order."""
        for replication, run in zip(task.replications, payload["runs"]):
            self.executed += 1
            tick_failures = [
                ReplicationFailure.from_dict(f) for f in run.get("failures", [])
            ]
            self._stamp(tick_failures, replication, task.attempt)
            earlier = self._attempt_failures.pop(replication, [])
            outcome = ReplicationOutcome(
                replication=replication,
                metrics=dict(run["metrics"]),
                attempt=task.attempt,
                completions=int(run.get("completions", 0)),
                degraded=bool(run.get("degraded", False)),
                failures=earlier + tick_failures,
            )
            self.resolved[replication] = outcome
            self._record(replication)
            if (
                self.cache is not None
                and task.attempt == 0
                and not outcome.degraded
                and not outcome.failures
            ):
                # Only clean first-attempt results are memoized — a hit
                # must be exactly what a fresh attempt 0 would compute.
                self.cache.store(replication, outcome.to_payload())

    @staticmethod
    def _stamp(
        failures: List[ReplicationFailure], replication: int, attempt: int
    ) -> None:
        for failure in failures:
            if failure.replication < 0:
                failure.replication = replication
                failure.attempt = attempt

    def fail_attempt(self, task: _Task, failure: ReplicationFailure) -> Optional[_Task]:
        """Register a failed attempt; return the retry task, if any."""
        self.executed += 1
        self._stamp([failure], task.replication, task.attempt)
        bucket = self._attempt_failures.setdefault(task.replication, [])
        bucket.append(failure)
        if task.attempt < self.config.retries:
            if self.config.backoff:
                time.sleep(self.config.backoff * (2 ** task.attempt))
            retry = replace(task, attempt=task.attempt + 1)
            tracer = _trace._ACTIVE
            if tracer is not None:
                tracer.emit(
                    _trace.EXECUTOR_RETRY,
                    replication=retry.replication,
                    attempt=retry.attempt,
                    seed=retry_seed(retry.root_seed, retry.replication, retry.attempt),
                )
            return retry
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
        self._record(task.replication)
        return None

    def _record(self, replication: int) -> None:
        if self.checkpoint is not None:
            self.checkpoint.record(
                self.config.checkpoint_scope,
                replication,
                self.resolved[replication].to_payload(),
            )

    def prime(self) -> None:
        """Resolve what is already known before anything executes.

        Opens this run's checkpoint scope (resuming its records when
        the store was opened with ``resume``), then fills the remaining
        replications from the persistent result cache.
        """
        scope = self.config.checkpoint_scope
        if self.checkpoint is not None:
            self.checkpoint.begin_scope(
                scope,
                scope_fingerprint(
                    self.spec, self.root_seed, self.extra_probes, self.config
                ),
            )
            for rep, record in self.checkpoint.replications(scope).items():
                if rep < self.max_replications:
                    self.resolved[rep] = ReplicationOutcome.from_record(record)
        if self.cache is None:
            return
        for replication in range(self.max_replications):
            if replication in self.resolved:
                continue
            payload = self.cache.load(replication)
            if payload is None:
                continue
            self.resolved[replication] = ReplicationOutcome.from_record(
                {**payload, "replication": replication}
            )
            self.cache_hits += 1
            self._record(replication)
            tracer = _trace._ACTIVE
            if tracer is not None:
                tracer.emit(
                    _trace.CACHE_HIT,
                    scope=scope,
                    replication=replication,
                    key=self.cache.key(replication),
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
            executed=self.executed,
            cache_hits=self.cache_hits,
        )


def run_replications(
    spec: Any,
    *,
    root_seed: int,
    extra_probes: bool,
    min_replications: int,
    max_replications: int,
    config: ResilienceConfig,
    monitor: ConvergenceMonitor,
) -> ExecutionOutcome:
    """Resolve replications until convergence or budget, resiliently.

    The experiment runs as a one-point sweep on the sweep scheduler
    (:func:`repro.core.sweeps.drive_runs`), so it shares every
    scheduling, retry and timeout decision with the sweep engine.

    Args:
        spec: the (validated) system spec.
        root_seed: seed-family root; attempt 0 of replication *r* is
            bit-identical to ``simulate_once(spec, r, root_seed)``.
        extra_probes: forwarded to ``simulate_once``.
        min_replications / max_replications: the replication protocol.
        config: executor knobs (parallelism, timeout, retries,
            checkpointing, guard, chaos, result cache).
        monitor: the one-pass :class:`ConvergenceMonitor` stopping
            rule; it must be fresh (never fed) per call.

    Returns:
        An :class:`ExecutionOutcome` with the included samples (in
        replication order), the failure records up to the convergence
        boundary, and the degraded flag.

    Raises:
        ReplicationError: a replication exhausted its retries and
            ``config.keep_partial`` is False.
        CheckpointError: resuming against a mismatched checkpoint.
    """
    from ..core.sweeps import drive_runs  # local: core imports this module

    config.validate()
    checkpoint: Optional[CheckpointStore] = None
    if config.checkpoint:
        checkpoint = CheckpointStore(config.checkpoint, resume=config.resume)
    run = _Run(
        spec=spec,
        root_seed=root_seed,
        extra_probes=extra_probes,
        min_replications=min_replications,
        max_replications=max_replications,
        config=config,
        checkpoint=checkpoint,
        monitor=monitor,
    )
    try:
        run.prime()
        drive_runs([run], jobs=config.jobs, timeout=config.timeout)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    return run.assemble()
