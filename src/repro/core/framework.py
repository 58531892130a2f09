"""The user-facing simulation facade.

Ties the layers together: a :class:`~repro.core.config.SystemSpec` is
materialized into the paper's composed SAN model with the standard
reward variables attached, and one call runs a replication.

Example — the whole paper workflow in four lines:

    >>> from repro.core import SystemSpec, VMSpec, simulate_once
    >>> spec = SystemSpec(vms=[VMSpec(2), VMSpec(1)], pcpus=2,
    ...                   scheduler="rrs", sim_time=500, warmup=50)
    >>> result = simulate_once(spec, replication=0)
    >>> 0.0 <= result.metrics["pcpu_utilization"] <= 1.0
    True
"""

from __future__ import annotations

import contextlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..des.random_streams import StreamFactory
from ..errors import ConfigurationError
from ..metrics.collectors import per_vm_blocked_fraction, workloads_generated
from ..metrics.rewards import standard_rewards
from ..observability import trace as _trace
from ..observability.profile import SimProfiler, profiling
from ..observability.trace import SimTracer, tracing
from ..resilience.chaos import ChaosScheduler, ChaosSpec
from ..resilience.failures import ReplicationFailure
from ..resilience.guard import GuardPolicy, GuardState
from ..san import ComposedModel, SANSimulator, build_simulator, resolve_engine
# Re-exported only because perfbench/spans.py patches ``framework.run_lanes``;
# drop it with that patch at the next change to the benchmark.
from ..san import run_lanes  # noqa: F401
from .config import SystemSpec
from .registry import create_scheduler
from ..vmm.system import build_virtual_system


def _build_model(
    spec: "SystemSpec", algorithm: Any, streams: StreamFactory
) -> ComposedModel:
    """The spec's composed SAN model, scheduled by ``algorithm``."""
    degradation, maintenance, hv_overhead = spec.extension_models()
    return build_virtual_system(
        [(vm.vcpus, vm.workload.build(), vm.dispatch) for vm in spec.vms],
        algorithm,
        spec.pcpus,
        streams=streams,
        vm_slots=spec.vm_slots,
        scheduler_slots=spec.scheduler_slots,
        degradation=degradation,
        maintenance=maintenance,
        hv_overhead=hv_overhead,
    )


# -- cross-replication model reuse -------------------------------------------
#
# Building (and, for the compiled engine, lowering) the composed model is a
# pure function of the spec, yet it dominates wall time for short
# replications.  A small per-process cache keeps built (system, simulator,
# rewards) triples; the next replication of the same spec checks one out,
# swaps in a fresh scheduler algorithm, reseeds the existing stream objects
# in place, and resets the simulator — no rebuild, no recompile.  The
# parallel executor gets this for free: each worker process has its own
# cache, so a sweep compiles each spec once per worker.


@dataclass
class _CachedModel:
    system: ComposedModel
    simulator: SANSimulator
    rewards: Dict[str, Any]
    in_use: bool = False


_REUSE_CAP = 8
_MODEL_CACHE: "OrderedDict[str, _CachedModel]" = OrderedDict()


def clear_model_cache() -> None:
    """Drop all cached models (tests; memory pressure)."""
    _MODEL_CACHE.clear()


def _reuse_key(spec: SystemSpec, engine: str, extra_probes: bool) -> Optional[str]:
    """Cache key, or None when the spec cannot be serialized (no reuse)."""
    try:
        blob = json.dumps(spec.to_dict(), sort_keys=True)
    except (ConfigurationError, TypeError, ValueError):
        return None  # e.g. a live Distribution instance as the load
    return f"{blob}|{engine}|{int(bool(extra_probes))}"


def _cache_checkout(key: str) -> Optional[_CachedModel]:
    entry = _MODEL_CACHE.get(key)
    if entry is None or entry.in_use:
        return None
    entry.in_use = True
    _MODEL_CACHE.move_to_end(key)
    return entry


def _cache_register(key: str, entry: _CachedModel) -> None:
    _MODEL_CACHE[key] = entry
    while len(_MODEL_CACHE) > _REUSE_CAP:
        for stale_key in _MODEL_CACHE:
            if not _MODEL_CACHE[stale_key].in_use:
                del _MODEL_CACHE[stale_key]
                break
        else:  # everything checked out: let the cache grow past the cap
            break


@dataclass
class RunResult:
    """Everything measured in one replication.

    ``failures`` carries the tick-level scheduler faults the decision
    guard absorbed (empty when unguarded or fault-free); ``degraded``
    is True when the guard quarantined the algorithm mid-run and the
    round-robin fallback finished the replication.
    """

    spec: SystemSpec
    replication: int
    root_seed: int
    metrics: Dict[str, float] = field(default_factory=dict)
    completions: int = 0  # activity completions (simulator effort)
    failures: List[ReplicationFailure] = field(default_factory=list)
    degraded: bool = False

    def metric(self, name: str) -> float:
        """Look up one metric, with a helpful error on typos."""
        if name not in self.metrics:
            raise KeyError(
                f"unknown metric {name!r}; available: {sorted(self.metrics)}"
            )
        return self.metrics[name]


class Simulation:
    """One buildable/runnable virtualization system.

    Wraps model construction and reward attachment; each
    :class:`Simulation` instance serves exactly one replication (models
    and scheduler state are replication-private by design — Mobius
    likewise re-initializes per batch).  ``engine`` names one of
    :data:`~repro.san.compiled.ENGINES` (``None`` selects the default,
    compiled); any other name raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        spec: SystemSpec,
        replication: int = 0,
        root_seed: int = 0,
        extra_probes: bool = False,
        guard: Optional[GuardPolicy] = None,
        chaos: Optional[ChaosSpec] = None,
        attempt: int = 0,
        tracer: Optional[SimTracer] = None,
        profile: bool = False,
        engine: Optional[str] = None,
        reuse: bool = False,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.replication = int(replication)
        self.root_seed = int(root_seed)
        self.tracer = tracer
        self.profiler: Optional[SimProfiler] = SimProfiler() if profile else None
        self._chaos_spec = chaos
        engine_name = resolve_engine(engine)

        algorithm = create_scheduler(spec.scheduler, **spec.scheduler_params)
        self._algorithm_root = algorithm
        # Chaos sabotages the (possibly buggy) user algorithm; the guard,
        # which the Scheduling_Func gate enforces, isolates whatever
        # comes out of it.
        if chaos is not None:
            algorithm = ChaosScheduler(
                algorithm, chaos, replication=replication, attempt=attempt
            )
        self._guard = GuardState(guard) if guard is not None else None

        cache_key = _reuse_key(spec, engine_name, extra_probes) if reuse else None
        self._cache_entry = _cache_checkout(cache_key) if cache_key else None
        if self._cache_entry is not None:
            entry = self._cache_entry
            self.system = entry.system
            self.simulator = entry.simulator
            self.rewards = entry.rewards
            # The scheduling closure reads the scheduler sub-model's
            # ``algorithm`` attribute; metrics and metadata read the
            # composed model's.  Point both at this replication's fresh
            # (possibly chaos-wrapped) instance.
            self.system.algorithm = algorithm
            self.system.scheduler.algorithm = algorithm
            # Re-arm the *existing* stream objects rather than minting a
            # new factory: builder closures captured these objects, and a
            # fresh factory would split their streams from the simulator's.
            self.streams = self.simulator.streams
            self.streams.reseed(root_seed, replication)
            self.simulator.reset()
        else:
            self.streams = StreamFactory(root_seed=root_seed, replication=replication)
            self.system = _build_model(spec, algorithm, self.streams)
            self.simulator = build_simulator(
                self.system, self.streams, engine=engine_name
            )
            self.rewards = standard_rewards(self.system, warmup=spec.warmup)
            if extra_probes:
                self.rewards.update(
                    per_vm_blocked_fraction(self.system, warmup=spec.warmup)
                )
                self.rewards.update(
                    workloads_generated(self.system, warmup=spec.warmup)
                )
            for reward in self.rewards.values():
                self.simulator.add_reward(reward)
            if cache_key is not None:
                self._cache_entry = _CachedModel(
                    self.system, self.simulator, self.rewards, in_use=True
                )
                _cache_register(cache_key, self._cache_entry)
        # Set on every build and checkout, so a reused model never
        # carries an earlier replication's guard.
        self.system.scheduler.guard = self._guard
        self._ran = False

    def _run_header(self) -> Dict[str, Any]:
        """The ``run.start`` payload: everything needed to re-run the trace."""
        params: Dict[str, Any] = {"timeslice": self._algorithm_root.timeslice}
        params.update(self.spec.scheduler_params)
        degradation, maintenance, hv_overhead = self.spec.extension_models()
        return {
            "scheduler": self.spec.scheduler,
            "topology": [vm.vcpus for vm in self.spec.vms],
            "pcpus": self.spec.pcpus,
            "replication": self.replication,
            "root_seed": self.root_seed,
            "sim_time": self.spec.sim_time,
            "warmup": self.spec.warmup,
            "params": params,
            "guard": self._guard.policy.mode if self._guard else None,
            "chaos": self._chaos_spec is not None,
            "engine": self.simulator.engine,
            # What the trace checker configures its health invariants from.
            "degradation": (
                {
                    "h_max": degradation.h_max,
                    "capacity": degradation.effective_capacity(),
                }
                if degradation is not None
                else None
            ),
            "maintenance": (
                {"policy": maintenance.policy, "crews": maintenance.crews}
                if maintenance is not None
                else None
            ),
            "hv_overhead": hv_overhead.cost if hv_overhead is not None else None,
        }

    def run(self) -> RunResult:
        """Run the replication to ``spec.sim_time`` and collect metrics."""
        if self._ran:
            raise RuntimeError(
                "a Simulation runs exactly once; build a new instance "
                "(with the next replication index) for another run"
            )
        try:
            with contextlib.ExitStack() as stack:
                if self.tracer is not None:
                    stack.enter_context(tracing(self.tracer))
                if self.profiler is not None:
                    stack.enter_context(profiling(self.profiler))
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer._now = 0.0
                    tracer.emit(_trace.RUN_START, time=0.0, **self._run_header())
                self.simulator.run(until=self.spec.sim_time)
                if tracer is not None:
                    tracer.emit(
                        _trace.RUN_END,
                        time=self.simulator.clock.now,
                        completions=self.simulator.completions,
                        degraded=self._guard.quarantined if self._guard else False,
                    )
            self._ran = True
            metrics = {name: reward.result() for name, reward in self.rewards.items()}
            failures: List[ReplicationFailure] = []
            degraded = False
            if self._guard is not None:
                failures = list(self._guard.failures)
                for failure in failures:
                    failure.replication = self.replication
                degraded = self._guard.quarantined
            return RunResult(
                spec=self.spec,
                replication=self.replication,
                root_seed=self.root_seed,
                metrics=metrics,
                completions=self.simulator.completions,
                failures=failures,
                degraded=degraded,
            )
        finally:
            # Even a faulted run may release: the next checkout resets the
            # simulator (markings, queue, rewards, streams) from scratch.
            if self._cache_entry is not None:
                self._cache_entry.in_use = False
                self._cache_entry = None

    def stats(self) -> Dict[str, Any]:
        """Engine counters plus (when enabled) profiling and trace stats."""
        stats = dict(self.simulator.stats())
        if self.profiler is not None:
            stats["profile"] = self.profiler.stats()
        if self.tracer is not None:
            stats.update(self.tracer.stats())
        return stats


def simulate_once(
    spec: SystemSpec,
    replication: int = 0,
    root_seed: int = 0,
    extra_probes: bool = False,
    guard: Optional[GuardPolicy] = None,
    chaos: Optional[ChaosSpec] = None,
    attempt: int = 0,
    tracer: Optional[SimTracer] = None,
    profile: bool = False,
    engine: Optional[str] = None,
    reuse: bool = False,
) -> RunResult:
    """Build and run one replication of ``spec`` (the quickstart entry).

    Args:
        guard: optional decision-guard policy isolating scheduler
            faults (see :mod:`repro.resilience.guard`).
        chaos: optional deterministic fault-injection plan (testing).
        attempt: retry attempt index; only chaos targeting uses it.
        tracer: optional :class:`~repro.observability.SimTracer`;
            activated around the run so every layer's hooks emit into it.
        profile: collect per-subsystem timings (``Simulation.stats()``).
        engine: enablement engine name — ``"compiled"`` (the default,
            ``None``) or ``"rescan"`` (see :mod:`repro.san.compiled`).
        reuse: check the built model out of the per-process cache when an
            identical spec/engine pair ran before (cheap reset + reseed
            instead of a rebuild); bit-identical results either way.
    """
    return Simulation(
        spec,
        replication=replication,
        root_seed=root_seed,
        extra_probes=extra_probes,
        guard=guard,
        chaos=chaos,
        attempt=attempt,
        tracer=tracer,
        profile=profile,
        engine=engine,
        reuse=reuse,
    ).run()


def build_system(
    spec: SystemSpec,
    replication: int = 0,
    root_seed: int = 0,
) -> ComposedModel:
    """Materialize a spec into the composed SAN model, without running it.

    Useful for structural inspection (join-place tables, traces) and for
    users who want to attach custom reward variables before simulating.
    """
    spec.validate()
    return _build_model(
        spec,
        create_scheduler(spec.scheduler, **spec.scheduler_params),
        StreamFactory(root_seed=root_seed, replication=replication),
    )
