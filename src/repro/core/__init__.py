"""The public API of the simulation framework.

The typical workflow mirrors the paper's (§III.A): describe VMs and
workloads, pick or plug a scheduling algorithm, configure PCPUs, and
simulate to confidence.

    from repro.core import SystemSpec, VMSpec, run_experiment

    spec = SystemSpec(
        vms=[VMSpec(vcpus=2), VMSpec(vcpus=1), VMSpec(vcpus=1)],
        pcpus=2,
        scheduler="rcs",
        sim_time=2000,
        warmup=200,
    )
    result = run_experiment(spec)
    print(result.mean("vcpu_availability[VCPU1.1]"))
"""

from .config import SystemSpec, VMSpec, WorkloadSpec
from .experiment import (
    DEFAULT_CONFIDENCE,
    DEFAULT_TARGET_HALF_WIDTH,
    resolve_sweep_points,
    run_experiment,
    run_sweep,
)
from .framework import RunResult, Simulation, build_system, simulate_once
from .paired import PairedComparison, PairedDifference, compare_schedulers
from .registry import (
    create_scheduler,
    is_registered,
    list_schedulers,
    register_schedule_function,
    register_scheduler,
)
from .results import ExperimentResult, MetricEstimate, render_table, results_to_csv
from .sweeps import SweepOutcome, SweepPool, SweepStats, run_interleaved_sweep

__all__ = [
    "SystemSpec",
    "VMSpec",
    "WorkloadSpec",
    "run_experiment",
    "run_sweep",
    "run_interleaved_sweep",
    "resolve_sweep_points",
    "SweepOutcome",
    "SweepPool",
    "SweepStats",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_TARGET_HALF_WIDTH",
    "Simulation",
    "RunResult",
    "simulate_once",
    "build_system",
    "compare_schedulers",
    "PairedComparison",
    "PairedDifference",
    "register_scheduler",
    "register_schedule_function",
    "create_scheduler",
    "list_schedulers",
    "is_registered",
    "ExperimentResult",
    "MetricEstimate",
    "render_table",
    "results_to_csv",
]
