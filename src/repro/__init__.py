"""repro — a simulation framework to evaluate VCPU scheduling algorithms.

A from-scratch reproduction of Pham, Li, Estrada, Kalbarczyk, Iyer,
"A Simulation Framework to Evaluate Virtual CPU Scheduling Algorithms"
(IEEE ICDCS Workshops 2013), including the Stochastic Activity Network
engine the paper delegated to the closed-source Mobius tool.

Layers (bottom-up):

* :mod:`repro.des` — discrete-event kernel (events, clock, streams,
  distributions);
* :mod:`repro.san` — the SAN formalism: places, activities, gates,
  Join/Replicate, simulator, reward variables;
* :mod:`repro.vmm` — the paper's virtualization sub-models (Figures
  2–7) built on the SAN engine;
* :mod:`repro.schedulers` — the pluggable algorithm interface plus
  RRS / SCS / RCS and extensions;
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.analysis`
  — workload characterization, reward definitions, statistics;
* :mod:`repro.resilience` — parallel/fault-tolerant experiment
  execution: timeouts, retry/reseed, the persistent result cache (which
  also resumes interrupted runs), the scheduler decision guard, and
  chaos injection;
* :mod:`repro.core` — the public facade: specs, experiments, results;
* :mod:`repro.service` — the long-lived JSON/HTTP job server over a
  shared sweep pool and persistent result cache.
"""

from . import (
    analysis,
    core,
    des,
    metrics,
    paper,
    resilience,
    san,
    schedulers,
    service,
    vmm,
    workloads,
)
from .core import (
    SystemSpec,
    VMSpec,
    WorkloadSpec,
    run_experiment,
    run_sweep,
    simulate_once,
)
from .resilience import ChaosSpec, GuardPolicy, ReplicationFailure, ResilienceConfig

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "paper",
    "des",
    "san",
    "vmm",
    "schedulers",
    "workloads",
    "metrics",
    "resilience",
    "service",
    "SystemSpec",
    "VMSpec",
    "WorkloadSpec",
    "simulate_once",
    "run_experiment",
    "run_sweep",
    "ResilienceConfig",
    "GuardPolicy",
    "ChaosSpec",
    "ReplicationFailure",
    "__version__",
]
