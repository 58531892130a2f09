"""The scheduler decision guard: fault isolation for plugged algorithms.

The paper invites users to plug in arbitrary scheduling functions; a
buggy one must not take the whole experiment down with it.  The guard
lives in the ``Scheduling_Func`` gate: a replication run with a
:class:`GuardPolicy` puts a :class:`GuardState` on the scheduler model,
and the gate, which checks every tick's decisions against the marking
with ``resolve_decisions``, then

* converts an exception raised by the algorithm and an invalid decision
  (double-assigned PCPU, out-of-range id, schedule_in on a FAILED PCPU,
  ...) into a structured
  :class:`~repro.resilience.failures.ReplicationFailure` record instead
  of a lost traceback, and applies nothing of that tick;
* in ``fail_fast`` mode (the default) re-raises as
  :class:`~repro.errors.SchedulingError` so the replication dies
  immediately — the executor then retries it under a fresh seed;
* in ``degrade`` mode (opt-in) drops the faulty tick and, after
  ``quarantine_after`` consecutive faults, quarantines the algorithm for
  the rest of the replication: plain round-robin decides from then on,
  starting on that same tick from views rebuilt from the marking, so the
  system keeps making progress.  The replication's results are then
  flagged ``degraded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError, SchedulingError
from ..observability import trace as _trace
from ..schedulers.interface import SchedulingAlgorithm
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
        quarantine_after: consecutive faults before the plugged algorithm
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


class GuardState:
    """One replication's guard, on the scheduler model as ``model.guard``.

    The ``Scheduling_Func`` gate reports every faulty tick to :meth:`fault`.

    Attributes:
        policy: the :class:`GuardPolicy` in force.
        failures: the tick-level faults observed so far this replication.
        consecutive_faults: faulty ticks since the last clean one.
        fallback: the round-robin algorithm that drives once the plugged
            one is quarantined; ``None`` until then.
    """

    def __init__(self, policy: GuardPolicy) -> None:
        policy.validate()
        self.policy = policy
        self.failures: List[ReplicationFailure] = []
        self.consecutive_faults = 0
        self.fallback: Optional[SchedulingAlgorithm] = None

    @property
    def quarantined(self) -> bool:
        """True once the round-robin fallback drives."""
        return self.fallback is not None

    def fault(
        self, exc: Exception, algorithm: SchedulingAlgorithm, timestamp: float
    ) -> bool:
        """Record one faulty tick of ``algorithm``; nothing of it applies.

        Raises:
            SchedulingError: in ``fail_fast`` mode.

        Returns:
            True when this fault quarantines the algorithm: the gate then
            runs :attr:`fallback` on views rebuilt from the marking.
        """
        kind = (
            FailureKind.INVALID_DECISION
            if isinstance(exc, SchedulingError)
            else FailureKind.EXCEPTION
        )
        message = f"{type(exc).__name__}: {exc}"
        name = algorithm.name
        self.failures.append(
            ReplicationFailure(kind, message, scheduler=name, sim_time=timestamp)
        )
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.emit(
                _trace.GUARD_FAULT,
                time=timestamp,
                scheduler=name,
                fault_kind=kind,
                message=message[:200],
            )
        if self.policy.mode == "fail_fast":
            raise SchedulingError(
                f"{name} faulted at t={timestamp:g}: {message}"
            ) from exc
        self.consecutive_faults += 1
        if self.consecutive_faults < self.policy.quarantine_after:
            return False
        self.fallback = RoundRobinScheduler(timeslice=algorithm.timeslice)
        if tracer is not None:
            tracer.emit(
                _trace.GUARD_QUARANTINE,
                time=timestamp,
                scheduler=name,
                faults=len(self.failures),
            )
        return True
