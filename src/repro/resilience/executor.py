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
* **result caching** — every replication that resolves with a
  sample is stored in the persistent
  :class:`~repro.resilience.result_cache.ResultCache` as it resolves,
  unless a timeout or a worker crash shaped it; rerunning an
  interrupted run with the same ``cache_dir`` resumes it, executing
  only what the store lacks.

:class:`_Run` is one experiment's state; *which* replication runs next,
on which worker, and when the experiment stops is decided by one
driver only, the sweep scheduler in :mod:`repro.core.sweeps`, which
runs a single experiment as a one-point sweep.

Determinism contract: replication *r*, attempt 0 uses exactly the
streams :func:`~repro.core.framework.simulate_once` uses for *r*, and
the convergence decision is taken over samples in replication order —
so ``jobs=8`` produces the same
:class:`~repro.core.results.ExperimentResult` as ``jobs=1``, and an
interrupted run rerun on its cache the same tables as an uninterrupted
one.
Replications computed beyond the convergence cut are discarded, never
mixed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..des.random_streams import derive_seed
from ..errors import ConfigurationError, ReplicationError
from ..metrics.stats import ConvergenceMonitor
from ..observability import trace as _trace
from ..san.compiled import ENGINES, resolve_engine
from .chaos import ChaosSpec
from .failures import (
    FailureKind,
    ReplicationFailure,
    _is_int,
    _is_number,
    failure_summary,
)
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
        retries: extra attempts per replication after the first; a
            retry is dispatched at once under its :func:`retry_seed`.
        guard: decision-guard policy applied around the scheduler
            (``None`` = unguarded, exactly the legacy behavior).
        chaos: deterministic fault-injection plan (testing only).
        keep_partial: when a replication exhausts its retries, record
            the failure and continue with the surviving replications
            instead of raising :class:`~repro.errors.ReplicationError`.
        engine: enablement engine for every replication —
            ``"compiled"`` (the default, ``None``) or ``"rescan"``;
            results are bit-identical across both.  On either engine
            the sweep scheduler dispatches a point's clean (unguarded,
            chaos-free) floor replications as grouped tasks, which a
            worker runs as a ``simulate_once`` loop over one model built
            (and, for compiled, lowered) once per process.
        cache_dir: persistent result-cache directory (``None`` disables).
            Every replication that resolves with a sample is stored as
            it resolves, keyed by (spec JSON, engine, root seed,
            replication index, probes, guard, chaos) under the current
            code fingerprint, so rerunning an interrupted run with the
            same directory resumes it.  Outcomes shaped by a timeout or
            a worker crash, permanent failures and specs without a JSON
            form are never stored.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    guard: Optional[GuardPolicy] = None
    chaos: Optional[ChaosSpec] = None
    keep_partial: bool = False
    engine: Optional[str] = None
    cache_dir: Optional[str] = None

    def validate(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
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
        """Result-cache entry body (JSON-safe); inverse of :meth:`from_payload`."""
        return {
            "ok": self.ok,
            "metrics": self.metrics,
            "attempt": self.attempt,
            "completions": self.completions,
            "degraded": self.degraded,
            "failures": [f.to_dict() for f in self.failures],
        }

    @classmethod
    def from_payload(
        cls, replication: int, payload: Dict[str, Any]
    ) -> "ReplicationOutcome":
        """A stored sample, read strictly.

        Raises:
            KeyError, TypeError or ValueError: a field is missing or
                mistyped.  ``metrics`` must be a non-empty dict of finite
                numbers, ``attempt`` and ``completions`` ints >= 0,
                ``degraded`` a bool and ``failures`` a list of complete
                records of known kinds.
        """
        metrics, attempt = payload["metrics"], payload["attempt"]
        completions, degraded = payload["completions"], payload["degraded"]
        failures = payload["failures"]
        if not (
            isinstance(metrics, dict)
            and metrics
            and all(
                isinstance(name, str) and _is_number(value) and math.isfinite(value)
                for name, value in metrics.items()
            )
            and _is_int(attempt)
            and attempt >= 0
            and _is_int(completions)
            and completions >= 0
            and isinstance(degraded, bool)
            and isinstance(failures, list)
        ):
            raise ValueError(f"malformed replication payload {payload!r}")
        return cls(
            replication=replication,
            metrics=dict(metrics),
            attempt=attempt,
            completions=completions,
            degraded=degraded,
            failures=[ReplicationFailure.from_dict(f) for f in failures],
        )


@dataclass
class ExecutionOutcome:
    """One run's included samples, assembled for its result table."""

    samples: List[Dict[str, float]]  # included samples, replication order
    replications: int  # number of included samples
    failures: List[ReplicationFailure]
    degraded: bool


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
                reuse=True,
            )
            for replication in task.replications
        ]
    except Exception as exc:  # noqa: BLE001 — every fault becomes a record
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "runs": [_run_payload(run) for run in runs]}


class CacheBinding:
    """A :class:`ResultCache` bound to one experiment's identity.

    Collapses the cache key down to "which replication index", which is
    all one run ever varies.
    """

    def __init__(
        self,
        cache: ResultCache,
        spec_payload: Any,
        engine: str,
        root_seed: int,
        extra_probes: bool,
        guard: Optional[GuardPolicy],
        chaos: Optional[ChaosSpec],
    ) -> None:
        self.cache = cache
        self._spec_payload = spec_payload
        self._engine = engine
        self._root_seed = root_seed
        self._extra_probes = extra_probes
        self._guard = guard.to_dict() if guard is not None else None
        self._chaos = chaos.to_dict() if chaos is not None else None

    def key(self, replication: int) -> str:
        return self.cache.key(
            self._spec_payload,
            self._engine,
            self._root_seed,
            replication,
            self._extra_probes,
            guard=self._guard,
            chaos=self._chaos,
        )

    def load(self, replication: int, retries: int) -> Optional[ReplicationOutcome]:
        """The stored outcome, or None.

        A malformed entry is a miss, and so is one resolved at an
        attempt past ``retries``: a run with that budget never gets
        there.
        """

        def parse(payload: Dict[str, Any]) -> ReplicationOutcome:
            outcome = ReplicationOutcome.from_payload(replication, payload)
            if outcome.attempt > retries:
                raise ValueError(f"attempt {outcome.attempt} > retries {retries}")
            return outcome

        return self.cache.load(self.key(replication), parse)

    def store(self, outcome: ReplicationOutcome) -> None:
        self.cache.store(self.key(outcome.replication), outcome.to_payload())


def bind_cache(
    spec: Any, config: ResilienceConfig, root_seed: int, extra_probes: bool
) -> Optional[CacheBinding]:
    """The result cache for one experiment, or None when ineligible.

    Caching silently disables when no ``cache_dir`` is configured or
    when the spec has no canonical JSON form.
    """
    if not config.cache_dir:
        return None
    payload = cacheable_spec_payload(spec)
    if payload is None:
        return None
    return CacheBinding(
        shared_cache(config.cache_dir),
        payload,
        resolve_engine(config.engine),
        root_seed,
        extra_probes,
        config.guard,
        config.chaos,
    )


#: Failure kinds that depend on the wall clock and the host, not on the
#: replication's identity: an outcome carrying one is never stored.
_HOST_DEPENDENT = (FailureKind.TIMEOUT, FailureKind.WORKER_CRASH)


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
        scope: str,
        monitor: ConvergenceMonitor,
    ) -> None:
        self.spec = spec
        self.root_seed = root_seed
        self.extra_probes = extra_probes
        self.min_replications = min_replications
        self.max_replications = max_replications
        self.config = config
        self.scope = scope  # this run's label in trace records
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
        )

    def resolve_success(self, task: _Task, payload: Dict[str, Any]) -> None:
        """Record each member's run, in the task's replication order."""
        for replication, run in zip(task.replications, payload["runs"]):
            self.executed += 1
            tick_failures = [ReplicationFailure.from_dict(f) for f in run["failures"]]
            self._stamp(tick_failures, replication, task.attempt)
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
        return None

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
                    scope=self.scope,
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
        )

