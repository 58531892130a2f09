"""Experiment runner: replications to confidence, and parameter sweeps.

The paper runs each configuration "with 95% confidence level and < 0.1
confidence interval"; :func:`run_experiment` reproduces that protocol —
independent replications (distinct random streams per replication, same
root seed for reproducibility) continue until every watched metric's
CI half-width is below the target or the replication budget runs out.

One driver runs every replication: the sweep scheduler
(:mod:`repro.core.sweeps`).  :func:`run_experiment` hands it a single
point through :func:`~repro.resilience.executor.run_replications`;
:func:`run_sweep` hands it every point of a parameter sweep at once,
which is how the figure benches express "PCPUs from 1 to 4" or "sync
ratio 1:5 to 1:2".  Pass a :class:`~repro.resilience.ResilienceConfig`
to spread floors and points over worker processes, bound each attempt
with a wall-clock timeout, retry crashed replications under
deterministically reseeded streams, stream every resolved replication
to a JSONL checkpoint, and isolate faults in user-plugged schedulers.
With no config the run is in-process with no retries.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..metrics.stats import ConvergenceMonitor
from ..resilience.executor import (
    ExecutionOutcome,
    ResilienceConfig,
    run_replications,
)
from .config import SystemSpec
from .results import ExperimentResult, MetricEstimate

# The paper's reporting protocol.
DEFAULT_CONFIDENCE = 0.95
DEFAULT_TARGET_HALF_WIDTH = 0.1

#: The three paper metrics every experiment watches by default.
DEFAULT_WATCH_METRICS = (
    "vcpu_availability",
    "pcpu_utilization",
    "vcpu_utilization",
)


def run_experiment(
    spec: SystemSpec,
    label: Optional[str] = None,
    watch_metrics: Optional[Sequence[str]] = None,
    min_replications: int = 5,
    max_replications: int = 30,
    confidence: float = DEFAULT_CONFIDENCE,
    target_half_width: float = DEFAULT_TARGET_HALF_WIDTH,
    root_seed: int = 0,
    extra_probes: bool = False,
    resilience: Optional[ResilienceConfig] = None,
    engine: Optional[str] = None,
) -> ExperimentResult:
    """Estimate every metric of one configuration to target confidence.

    Args:
        spec: the system to simulate.
        label: experiment label for tables (default: derived from spec).
        watch_metrics: metric names whose CI must reach the target;
            ``None`` watches the three paper metrics (availability,
            PCPU utilization, VCPU utilization system-wide averages).
        min_replications: always run at least this many (>= 2).
        max_replications: hard budget.
        confidence: CI level (paper: 0.95).
        target_half_width: stop when every watched metric's half-width
            is below this (paper: 0.1).
        root_seed: root of the replication seed family.
        extra_probes: also collect blocked-fraction and throughput probes.
        resilience: executor configuration — worker processes,
            per-attempt timeout, retry/reseed, checkpoint/resume,
            decision guard, chaos injection.  ``None`` runs in-process
            with no retries; every configuration gives identical
            estimates.
        engine: enablement engine for every replication —
            ``"compiled"`` (the default, ``None``), ``"rescan"`` (the
            reference) or ``"batch"``; results are bit-identical.  When
            a ``resilience`` config is given, its own ``engine`` field
            wins.

    Returns:
        An :class:`ExperimentResult` with one estimate per metric, the
        failure records the resilience layer absorbed, and a
        ``degraded`` flag when a quarantine fallback produced any
        included replication.

    Raises:
        ReplicationError: a replication kept failing and the config
            does not allow partial results.
        CheckpointError: resuming against a mismatched checkpoint.
    """
    validate_protocol(min_replications, max_replications)
    spec.validate()
    if watch_metrics is None:
        watch_metrics = list(DEFAULT_WATCH_METRICS)
    if resilience is None:
        # In-process, one attempt, fail on the first error.
        resilience = ResilienceConfig(
            jobs=1, timeout=None, retries=0, engine=engine
        )

    execution = run_replications(
        spec,
        root_seed=root_seed,
        extra_probes=extra_probes,
        min_replications=min_replications,
        max_replications=max_replications,
        config=resilience,
        monitor=ConvergenceMonitor(
            watch_metrics,
            confidence=confidence,
            target_half_width=target_half_width,
            min_replications=min_replications,
        ),
    )
    return result_from_execution(spec, label, execution, confidence)


def validate_protocol(min_replications: int, max_replications: int) -> None:
    """Reject malformed replication budgets (shared with the sweep engine)."""
    if min_replications < 2:
        raise ConfigurationError(
            f"min_replications must be >= 2, got {min_replications}"
        )
    if max_replications < min_replications:
        raise ConfigurationError(
            f"max_replications ({max_replications}) below "
            f"min_replications ({min_replications})"
        )


def result_from_execution(
    spec: SystemSpec,
    label: Optional[str],
    execution: ExecutionOutcome,
    confidence: float,
) -> ExperimentResult:
    """Assemble the result table from an executor outcome.

    The single assembly path for experiments and sweep points —
    identical samples in, identical :class:`ExperimentResult` out.
    """
    samples: Dict[str, List[float]] = {}
    for metrics in execution.samples:
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    estimates = {
        name: MetricEstimate(name=name, values=values, confidence=confidence)
        for name, values in samples.items()
    }
    return ExperimentResult(
        label=label if label is not None else _default_label(spec),
        estimates=estimates,
        replications=execution.replications,
        parameters={
            "scheduler": spec.scheduler,
            "pcpus": spec.pcpus,
            "topology": "+".join(str(n) for n in spec.topology()),
        },
        failures=execution.failures,
        degraded=execution.degraded,
    )


def _default_label(spec: SystemSpec) -> str:
    topology = "+".join(str(n) for n in spec.topology())
    return f"{spec.scheduler}/vms={topology}/pcpus={spec.pcpus}"


# SystemSpec's *field* names — the only keys ``run_sweep`` may apply
# with ``with_overrides``.  ``hasattr`` is wrong here: it also matches
# methods (``topology``, ``validate``, ...), and assigning a sweep value
# over a method silently shadows it on the instance.
_SPEC_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(SystemSpec))


def resolve_sweep_points(
    base_spec: SystemSpec,
    sweep: Iterable[Dict[str, Any]],
    mutate: Optional[Callable[[SystemSpec, Dict[str, Any]], SystemSpec]] = None,
) -> List[Tuple[Dict[str, Any], SystemSpec]]:
    """Materialize a sweep into ``(point overrides, concrete spec)`` pairs.

    Field keys are applied with ``with_overrides``; any other key needs
    the ``mutate`` hook.  ``run_sweep`` and direct callers of the sweep
    engine (the service, the benchmarks) share it, so both see
    byte-identical specs per point.
    """
    points: List[Tuple[Dict[str, Any], SystemSpec]] = []
    for point in sweep:
        field_overrides = {
            key: value for key, value in point.items() if key in _SPEC_FIELD_NAMES
        }
        other = {key: value for key, value in point.items() if key not in field_overrides}
        spec = base_spec.with_overrides(**field_overrides)
        if other:
            if mutate is None:
                raise ConfigurationError(
                    f"sweep point has non-field keys {sorted(other)} but no "
                    "mutate hook was given"
                )
            spec = mutate(spec, other)
        points.append((dict(point), spec))
    return points


def run_sweep(
    base_spec: SystemSpec,
    sweep: Iterable[Dict[str, Any]],
    mutate: Optional[Callable[[SystemSpec, Dict[str, Any]], SystemSpec]] = None,
    sweep_jobs: Optional[int] = None,
    **experiment_kwargs,
) -> List[ExperimentResult]:
    """Run one experiment per parameter point, all on one scheduler.

    Args:
        base_spec: the spec every point starts from.
        sweep: an iterable of override dicts.  Keys that are
            :class:`SystemSpec` dataclass fields are applied with
            ``with_overrides``; anything else (including spec *method*
            names such as ``topology``) must be handled by ``mutate``.
        mutate: optional ``(spec, point) -> spec`` hook for overrides
            beyond plain fields (e.g. changing every VM's sync ratio).
        sweep_jobs: worker-process count of the shared pool (default:
            the resilience config's ``jobs``).
        **experiment_kwargs: the :func:`run_experiment` parameters,
            applied to every point.  A ``resilience`` checkpoint gets
            one scope per point, so one checkpoint file resumes the
            whole sweep.

    Returns:
        One :class:`ExperimentResult` per sweep point, in order; each
        result's ``parameters`` records the point's overrides.  The
        estimates are exactly ``==`` those of one :func:`run_experiment`
        per point.
    """
    from .sweeps import run_interleaved_sweep  # local: sweeps imports us

    points = resolve_sweep_points(base_spec, sweep, mutate)
    return run_interleaved_sweep(
        points, sweep_jobs=sweep_jobs, **experiment_kwargs
    ).results
