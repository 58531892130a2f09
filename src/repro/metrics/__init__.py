"""Measurement: reward definitions, replication statistics, probes."""

from .collectors import (
    StateTimeline,
    mean_goodput,
    mean_spin_fraction,
    per_vm_blocked_fraction,
    spin_tick_counts,
    workloads_completed,
    workloads_generated,
)
from .longrun import (
    BatchMeansEstimator,
    effective_warmup_for,
    moving_average,
    welch_warmup,
)
from .rewards import (
    AVAILABILITY,
    PCPU_UTILIZATION,
    VCPU_BUSY_FRACTION,
    VCPU_UTILIZATION,
    mean_pcpu_utilization,
    mean_vcpu_availability,
    mean_vcpu_busy_fraction,
    mean_vcpu_utilization,
    per_vcpu_availability,
    per_vcpu_utilization,
    standard_rewards,
)
from .stats import (
    ConvergenceMonitor,
    RunningStats,
    confidence_interval,
    jain_fairness,
    t_quantile,
)

__all__ = [
    "AVAILABILITY",
    "PCPU_UTILIZATION",
    "VCPU_UTILIZATION",
    "VCPU_BUSY_FRACTION",
    "per_vcpu_availability",
    "mean_vcpu_availability",
    "mean_pcpu_utilization",
    "per_vcpu_utilization",
    "mean_vcpu_utilization",
    "mean_vcpu_busy_fraction",
    "standard_rewards",
    "per_vm_blocked_fraction",
    "mean_spin_fraction",
    "mean_goodput",
    "spin_tick_counts",
    "workloads_generated",
    "workloads_completed",
    "StateTimeline",
    "RunningStats",
    "BatchMeansEstimator",
    "moving_average",
    "welch_warmup",
    "effective_warmup_for",
    "confidence_interval",
    "t_quantile",
    "ConvergenceMonitor",
    "jain_fairness",
]
