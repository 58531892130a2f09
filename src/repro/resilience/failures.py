"""Structured failure records for the resilient experiment engine.

Every fault the resilience layer observes — a scheduler raising, an
invalid decision, a replication timing out, a worker process dying —
becomes one :class:`ReplicationFailure` instead of a lost traceback.
Records ride on :class:`~repro.core.framework.RunResult` (tick-level
faults caught by the decision guard) and are aggregated onto
:class:`~repro.core.results.ExperimentResult` so partial results are
reported honestly.

Records are plain data and round-trip through dicts, so they survive
process boundaries and persist in result-cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional


class FailureKind:
    """The closed set of failure categories the resilience layer emits."""

    EXCEPTION = "exception"  # the scheduler (or model) raised
    INVALID_DECISION = "invalid-decision"  # decisions failed validation
    TIMEOUT = "timeout"  # replication exceeded its wall-clock budget
    WORKER_CRASH = "worker-crash"  # the worker process died
    RETRIES_EXHAUSTED = "retries-exhausted"  # every attempt failed
    DEGRADATION = "degradation"  # degradation layer misconfiguration
    MAINTENANCE = "maintenance"  # maintenance policy misconfiguration

    ALL = (
        EXCEPTION,
        INVALID_DECISION,
        TIMEOUT,
        WORKER_CRASH,
        RETRIES_EXHAUSTED,
        DEGRADATION,
        MAINTENANCE,
    )


@dataclass
class ReplicationFailure:
    """One observed fault, localized to a replication attempt.

    Attributes:
        kind: one of :class:`FailureKind`.
        message: human-readable one-liner (``TypeName: text``).
        replication: replication index the fault belongs to (-1 until
            the executor stamps it — the decision guard does not know
            which replication it is running in).
        attempt: retry attempt the fault occurred on (0 = first run).
        scheduler: name of the algorithm that faulted, if known.
        sim_time: simulated clock when a tick-level fault hit (``None``
            for replication-level faults such as timeouts).
    """

    kind: str
    message: str
    replication: int = -1
    attempt: int = 0
    scheduler: str = ""
    sim_time: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        return {
            "kind": self.kind,
            "message": self.message,
            "replication": self.replication,
            "attempt": self.attempt,
            "scheduler": self.scheduler,
            "sim_time": self.sim_time,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReplicationFailure":
        """Inverse of :meth:`to_dict`; strict, as it reads persisted data.

        Raises:
            KeyError: a field is missing.
            ValueError: a field is mistyped, or the kind is outside the
                closed set.
        """
        kind, message = payload["kind"], payload["message"]
        replication, attempt = payload["replication"], payload["attempt"]
        scheduler, sim_time = payload["scheduler"], payload["sim_time"]
        if kind not in FailureKind.ALL:
            raise ValueError(f"unknown failure kind {kind!r}")
        if not (
            isinstance(message, str)
            and isinstance(scheduler, str)
            and _is_int(replication)
            and _is_int(attempt)
            and attempt >= 0
            and (sim_time is None or _is_number(sim_time))
        ):
            raise ValueError(f"malformed failure record {payload!r}")
        return cls(kind, message, replication, attempt, scheduler, sim_time)

    def __str__(self) -> str:
        where = f"replication {self.replication}" if self.replication >= 0 else "replication ?"
        if self.attempt:
            where += f" (attempt {self.attempt})"
        if self.sim_time is not None:
            where += f" at t={self.sim_time:g}"
        return f"[{self.kind}] {where}: {self.message}"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def failure_summary(failures: Iterable[ReplicationFailure]) -> str:
    """Compact ``kind xN`` summary of a failure list (for CLI output).

    Never returns an empty string: a clean run reads ``"no failures"``
    so CLI tables and logs have no blank fields.
    """
    counts: Dict[str, int] = {}
    for failure in failures:
        counts[failure.kind] = counts.get(failure.kind, 0) + 1
    if not counts:
        return "no failures"
    return ", ".join(f"{kind} x{n}" for kind, n in sorted(counts.items()))
