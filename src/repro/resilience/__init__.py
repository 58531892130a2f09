"""The resilience layer: production-grade experiment infrastructure.

The paper's experiment protocol ("replicate until 95% confidence")
assumed every replication finishes; a user-plugged scheduler that
crashes, stalls, or emits corrupt decisions used to take the whole
sweep down with it.  This package makes the runner survive all three:

* :mod:`~repro.resilience.executor` — the per-experiment state the
  sweep scheduler drives: per-attempt wall-clock timeouts,
  deterministic retry/reseed, and the store rules of the result cache;
* :mod:`~repro.resilience.guard` — the policy and per-replication
  state of the scheduler decision guard, which the ``Scheduling_Func``
  gate enforces: fault records, optional quarantine, round-robin
  fallback;
* :mod:`~repro.resilience.chaos` — deterministic, seeded fault
  injection so the machinery above is itself tested end-to-end;
* :mod:`~repro.resilience.failures` — the structured
  :class:`ReplicationFailure` records everything else emits;
* :mod:`~repro.resilience.result_cache` — the persistent
  content-addressed store of finished replications (warm reruns and
  resuming an interrupted run, invalidated by code fingerprint);
* :mod:`~repro.resilience.degradation` — multi-state PCPU health
  (Markov degradation matrices), maintenance policies with bounded
  repair crews, and per-world-switch hypervisor overhead.
"""

from .chaos import CORRUPT_KINDS, ChaosScheduler, ChaosSpec, InjectedFault
from .degradation import (
    MAINTENANCE_POLICIES,
    DegradationModel,
    HVOverheadModel,
    MaintenancePolicy,
    generate_degradation_matrix,
    validate_degradation_matrix,
)
from .executor import (
    ExecutionOutcome,
    ReplicationOutcome,
    ResilienceConfig,
    retry_seed,
)
from .failures import FailureKind, ReplicationFailure, failure_summary
from .guard import GUARD_MODES, GuardPolicy, GuardState
from .result_cache import ResultCache, code_fingerprint

__all__ = [
    "ChaosScheduler",
    "ChaosSpec",
    "CORRUPT_KINDS",
    "DegradationModel",
    "ExecutionOutcome",
    "FailureKind",
    "HVOverheadModel",
    "MAINTENANCE_POLICIES",
    "MaintenancePolicy",
    "GUARD_MODES",
    "GuardPolicy",
    "GuardState",
    "InjectedFault",
    "ReplicationFailure",
    "ReplicationOutcome",
    "ResilienceConfig",
    "ResultCache",
    "code_fingerprint",
    "failure_summary",
    "generate_degradation_matrix",
    "retry_seed",
    "validate_degradation_matrix",
]
