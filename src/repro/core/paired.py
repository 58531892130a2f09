"""Paired scheduler comparison with common random numbers.

Because every stochastic element draws from a stream keyed by
(root seed, element name, replication) — never by scheduler — two
schedulers simulated at the same (seed, replication) see the *same*
workload sample path.  That makes per-replication differences paired
observations, and a paired-t interval on the differences is far
tighter than comparing two independent CIs (classic variance
reduction).

:func:`compare_schedulers` runs both schedulers over the same
replications — as one two-point sweep on the replication driver, so
each scheduler's model is built once and reused — and reports, per
metric, the mean difference with its paired-t confidence interval and
a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, StatisticsError
from ..metrics.stats import confidence_interval
from .config import SystemSpec
from .sweeps import run_interleaved_sweep


@dataclass
class PairedDifference:
    """One metric's paired comparison: ``challenger - baseline``."""

    metric: str
    differences: List[float] = field(default_factory=list)
    confidence: float = 0.95

    @property
    def mean(self) -> float:
        if not self.differences:
            raise StatisticsError(
                f"paired difference for {self.metric!r} has no replications"
            )
        return sum(self.differences) / len(self.differences)

    @property
    def half_width(self) -> float:
        if not self.differences:
            raise StatisticsError(
                f"paired difference for {self.metric!r} has no replications"
            )
        if len(self.differences) < 2:
            return 0.0
        _, half = confidence_interval(self.differences, self.confidence)
        return half

    @property
    def significant(self) -> bool:
        """True when the CI on the difference excludes zero."""
        return abs(self.mean) > self.half_width

    def verdict(self) -> str:
        """'better', 'worse', or 'indistinguishable' for the challenger."""
        if not self.significant:
            return "indistinguishable"
        return "better" if self.mean > 0 else "worse"

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.mean:+.4f} ± {self.half_width:.4f} "
            f"({self.verdict()})"
        )


@dataclass
class PairedComparison:
    """Full result of :func:`compare_schedulers`."""

    baseline: str
    challenger: str
    replications: int
    differences: Dict[str, PairedDifference] = field(default_factory=dict)

    def __getitem__(self, metric: str) -> PairedDifference:
        if metric not in self.differences:
            raise KeyError(
                f"no paired difference for {metric!r}; "
                f"available: {sorted(self.differences)}"
            )
        return self.differences[metric]

    def summary(self) -> str:
        lines = [
            f"{self.challenger} vs {self.baseline} "
            f"({self.replications} paired replications):"
        ]
        for metric in sorted(self.differences):
            lines.append(f"  {self.differences[metric]}")
        return "\n".join(lines)


def compare_schedulers(
    spec: SystemSpec,
    baseline: str,
    challenger: str,
    metrics: Optional[Sequence[str]] = None,
    replications: int = 10,
    root_seed: int = 0,
    confidence: float = 0.95,
) -> PairedComparison:
    """Paired comparison of two schedulers on identical sample paths.

    Args:
        spec: the system configuration (its ``scheduler`` field is
            overridden for each contender).
        baseline / challenger: registered scheduler names.
        metrics: metric names to compare (default: the three paper
            metrics).
        replications: number of replication pairs (>= 2).
        root_seed: the shared seed family — both schedulers see the
            same workloads per replication.
        confidence: level of the paired-t intervals.

    Returns:
        A :class:`PairedComparison`; each metric's difference is
        ``challenger - baseline``, so a positive mean means the
        challenger scores higher.

    Raises:
        ReplicationError: a replication of either scheduler failed.
    """
    if replications < 2:
        raise ConfigurationError(
            f"paired comparison needs >= 2 replications, got {replications}"
        )
    if metrics is None:
        metrics = ["vcpu_availability", "pcpu_utilization", "vcpu_utilization"]
    # A fixed budget: every replication index runs for both schedulers.
    outcome = run_interleaved_sweep(
        [
            ({}, spec.with_overrides(scheduler=baseline)),
            ({}, spec.with_overrides(scheduler=challenger)),
        ],
        min_replications=replications,
        max_replications=replications,
        root_seed=root_seed,
    )
    base, chall = outcome.results
    comparison = PairedComparison(
        baseline=baseline, challenger=challenger, replications=replications
    )
    for metric in metrics:
        if metric not in base.estimates:
            raise ConfigurationError(
                f"metric {metric!r} not produced; "
                f"available: {sorted(base.estimates)}"
            )
        comparison.differences[metric] = PairedDifference(
            metric=metric,
            differences=[
                c - b
                for b, c in zip(
                    base.estimates[metric].values, chall.estimates[metric].values
                )
            ],
            confidence=confidence,
        )
    return comparison
