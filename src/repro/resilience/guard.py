"""The scheduler decision guard: fault isolation for plugged algorithms.

The paper invites users to plug in arbitrary scheduling functions; a
buggy one must not take the whole experiment down with it.  The guard
wraps every :meth:`SchedulingAlgorithm.schedule` call and

* converts raised exceptions and invalid decisions (double-assigned
  PCPU, out-of-range ids, schedule_in on a FAILED PCPU, ...) into
  structured :class:`~repro.resilience.failures.ReplicationFailure`
  records instead of lost tracebacks (its check is the
  ``Scheduling_Func`` gate's own rule and messages,
  ``resolve_decisions``, run against the state the views showed
  *before* the algorithm could rewrite them — the state the gate
  checks);
* in ``fail_fast`` mode (the default) re-raises as
  :class:`~repro.errors.SchedulingError` so the replication dies
  immediately — the executor then retries it under a fresh seed;
* in ``degrade`` mode (opt-in) discards the faulty tick's decisions
  (no model state is corrupted — validation runs *before* apply) and,
  after ``quarantine_after`` consecutive faults, quarantines the
  algorithm for the rest of the replication, falling back to plain
  round-robin so the system keeps making progress.  The replication's
  results are then flagged ``degraded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError, SchedulingError
from ..observability import trace as _trace
from ..schedulers.interface import (
    PCPUView,
    SchedulingAlgorithm,
    VCPUHostView,
    clear_decisions,
    resolve_decisions,
)
from ..schedulers.round_robin import RoundRobinScheduler
from .failures import FailureKind, ReplicationFailure

GUARD_MODES = ("fail_fast", "degrade")


@dataclass
class GuardPolicy:
    """How the guard reacts to scheduler faults.

    Attributes:
        mode: ``"fail_fast"`` (default — re-raise, let the executor
            retry the replication) or ``"degrade"`` (drop the faulty
            tick, quarantine after repeated faults).
        quarantine_after: consecutive faults before the inner algorithm
            is quarantined and round-robin takes over (degrade mode).
    """

    mode: str = "fail_fast"
    quarantine_after: int = 3

    def validate(self) -> None:
        if self.mode not in GUARD_MODES:
            raise ConfigurationError(
                f"guard mode must be one of {GUARD_MODES}, got {self.mode!r}"
            )
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"mode": self.mode, "quarantine_after": self.quarantine_after}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GuardPolicy":
        return cls(
            mode=payload.get("mode", "fail_fast"),
            quarantine_after=int(payload.get("quarantine_after", 3)),
        )


class GuardedScheduler(SchedulingAlgorithm):
    """Wraps an algorithm with fault isolation per :class:`GuardPolicy`.

    Attributes:
        failures: the tick-level faults observed so far this replication.
        quarantined: True once the inner algorithm has been benched and
            the round-robin fallback is driving.
    """

    def __init__(
        self, inner: SchedulingAlgorithm, policy: Optional[GuardPolicy] = None
    ) -> None:
        if not isinstance(inner, SchedulingAlgorithm):
            raise ConfigurationError(
                f"guard needs a SchedulingAlgorithm, got {type(inner).__name__}"
            )
        policy = policy if policy is not None else GuardPolicy()
        policy.validate()
        super().__init__(timeslice=inner.timeslice)
        self.name = f"guard({inner.name})"
        self.inner = inner
        self.policy = policy
        self.failures: List[ReplicationFailure] = []
        self.quarantined = False
        self._consecutive_faults = 0
        self._fallback = RoundRobinScheduler(timeslice=inner.timeslice)

    def reset(self) -> None:
        super().reset()
        self.inner.reset()
        self._fallback.reset()
        self.failures.clear()
        self.quarantined = False
        self._consecutive_faults = 0

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        if self.quarantined:
            return self._fallback.schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp)
        # The views mirror the gate's state only until the algorithm
        # runs, and it may rewrite them: check against a snapshot.
        held = {view.vcpu_id: view.pcpu for view in vcpus}
        states = [pcpus[i].state for i in range(num_pcpu)]
        try:
            decided = self.inner.schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp)
            resolve_decisions(
                vcpus, held, states, self.inner.timeslice, self.inner.name
            )
        except Exception as exc:  # noqa: BLE001 — isolating arbitrary user code
            return self._on_fault(exc, vcpus, num_vcpu, pcpus, num_pcpu, timestamp)
        self._consecutive_faults = 0
        return bool(decided)

    def _on_fault(
        self,
        exc: Exception,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        kind = (
            FailureKind.INVALID_DECISION
            if isinstance(exc, SchedulingError)
            else FailureKind.EXCEPTION
        )
        self.failures.append(
            ReplicationFailure(
                kind=kind,
                message=f"{type(exc).__name__}: {exc}",
                scheduler=self.inner.name,
                sim_time=timestamp,
            )
        )
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.emit(
                _trace.GUARD_FAULT,
                time=timestamp,
                scheduler=self.inner.name,
                fault_kind=kind,
                message=f"{type(exc).__name__}: {exc}"[:200],
            )
        if self.policy.mode == "fail_fast":
            raise SchedulingError(
                f"{self.inner.name} faulted at t={timestamp:g}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        # Degrade mode: the faulty tick's decisions are discarded whole —
        # validation ran before any state was touched, so the model is
        # still consistent and this tick simply makes no decision.
        clear_decisions(vcpus)
        self._consecutive_faults += 1
        if self._consecutive_faults >= self.policy.quarantine_after:
            self.quarantined = True
            if tracer is not None:
                tracer.emit(
                    _trace.GUARD_QUARANTINE,
                    time=timestamp,
                    scheduler=self.inner.name,
                    faults=len(self.failures),
                )
            self._fallback.reset()
            return self._fallback.schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp)
        return False

    def __repr__(self) -> str:
        state = "quarantined" if self.quarantined else self.policy.mode
        return f"GuardedScheduler({self.inner!r}, {state})"
