"""Declarative system specifications.

The paper's users assemble systems in the Mobius GUI: drag sub-models,
draw join connections, type parameters.  The Python equivalent is a
plain-data spec — :class:`SystemSpec` holds everything needed to build
and run one virtualization system, and round-trips through dicts for
storage in experiment scripts and results files.

Example:
    >>> spec = SystemSpec(
    ...     vms=[VMSpec(vcpus=2), VMSpec(vcpus=1), VMSpec(vcpus=1)],
    ...     pcpus=2,
    ...     scheduler="rrs",
    ...     sim_time=2000,
    ... )
    >>> spec.total_vcpus()
    4
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..des.distributions import Distribution, UniformInt, from_spec
from ..errors import ConfigurationError
from ..resilience.degradation import (
    DegradationModel,
    HVOverheadModel,
    MaintenancePolicy,
)
from ..workloads.generators import (
    BernoulliRatio,
    DeterministicRatio,
    NoSync,
    SyncPolicy,
    WorkloadModel,
)
from .registry import is_registered


@dataclass
class WorkloadSpec:
    """One VM's workload parameters.

    Attributes:
        load: load-duration distribution — a :class:`repro.des.Distribution`
            or a dict spec like ``{"kind": "uniform_int", "low": 5,
            "high": 15}`` (the default).
        sync_ratio: the paper's 1:k ratio — one sync point per ``k``
            workloads.  ``None`` disables synchronization.
        sync_kind: ``"deterministic"`` (every k-th job, the default) or
            ``"bernoulli"`` (probability 1/k per job).
    """

    load: Union[Distribution, Dict[str, Any], None] = None
    sync_ratio: Optional[int] = 5
    sync_kind: str = "deterministic"

    def validate(self) -> None:
        """Check the spec; raises :class:`ConfigurationError` on problems."""
        if self.sync_ratio is not None and self.sync_ratio < 1:
            raise ConfigurationError(
                f"sync_ratio must be >= 1 or None, got {self.sync_ratio}"
            )
        if self.sync_kind not in ("deterministic", "bernoulli"):
            raise ConfigurationError(
                f"sync_kind must be 'deterministic' or 'bernoulli', got {self.sync_kind!r}"
            )
        self.build()  # surfaces bad distribution specs early

    def build(self) -> WorkloadModel:
        """Materialize the spec into a :class:`WorkloadModel`."""
        load = UniformInt(5, 15) if self.load is None else from_spec(self.load)
        policy: SyncPolicy
        if self.sync_ratio is None:
            policy = NoSync()
        elif self.sync_kind == "bernoulli":
            policy = BernoulliRatio(self.sync_ratio)
        else:
            policy = DeterministicRatio(self.sync_ratio)
        return WorkloadModel(load, policy)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        load: Any
        if self.load is None or isinstance(self.load, dict):
            load = self.load
        else:
            raise ConfigurationError(
                "to_dict() requires the load distribution as a dict spec "
                f"(got a {type(self.load).__name__} instance)"
            )
        return {"load": load, "sync_ratio": self.sync_ratio, "sync_kind": self.sync_kind}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WorkloadSpec":
        return cls(
            load=payload.get("load"),
            sync_ratio=payload.get("sync_ratio", 5),
            sync_kind=payload.get("sync_kind", "deterministic"),
        )


@dataclass
class VMSpec:
    """One virtual machine: its VCPU count, workload, and job dispatch.

    ``dispatch`` selects the job scheduler's READY-VCPU policy:
    ``"round_robin"`` (the paper's even distribution, default),
    ``"first_ready"``, or ``"random"``.
    """

    vcpus: int
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    dispatch: str = "round_robin"

    def validate(self) -> None:
        """Check the spec; raises :class:`ConfigurationError` on problems."""
        if self.vcpus < 1:
            raise ConfigurationError(f"a VM needs >= 1 VCPU, got {self.vcpus}")
        if self.dispatch not in ("round_robin", "first_ready", "random"):
            raise ConfigurationError(
                f"unknown dispatch policy {self.dispatch!r}"
            )
        self.workload.validate()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        return {
            "vcpus": self.vcpus,
            "workload": self.workload.to_dict(),
            "dispatch": self.dispatch,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "VMSpec":
        return cls(
            vcpus=int(payload["vcpus"]),
            workload=WorkloadSpec.from_dict(payload.get("workload", {})),
            dispatch=payload.get("dispatch", "round_robin"),
        )


def _extension(field_name: str, model: Any, payload: Optional[Dict[str, Any]]):
    """``model.from_dict(payload)``, or None; errors name ``field_name``."""
    if payload is None:
        return None
    try:
        return model.from_dict(payload)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{field_name}: {exc}") from exc


@dataclass
class SystemSpec:
    """A complete virtualization system plus its simulation horizon.

    Attributes:
        vms: the virtual machines.
        pcpus: number of physical CPUs.
        scheduler: registered scheduler name (see
            :func:`repro.core.registry.list_schedulers`).
        scheduler_params: keyword arguments for the scheduler factory
            (``timeslice``, RCS thresholds, credit weights, ...).
        sim_time: simulated clock ticks per replication.
        warmup: ticks discarded before rewards accumulate.
        vm_slots: static job-scheduler slots per VM (paper: 8).
        scheduler_slots: static hypervisor VCPU slots (paper: 16).
        pcpu_failures: optional ``{"mtbf": ..., "mttr": ...}``,
            shorthand for exponential fail/repair of every PCPU (the
            dependability extension): the two-state health chain
            ``degradation={"p": 1.0, "h_max": 1, "mtbe": mtbf}`` plus
            ``maintenance={"policy": "corrective", "crews": pcpus,
            "mttr": mttr}`` (see :meth:`extension_models`).  Mutually
            exclusive with ``degradation`` and ``maintenance``.
        degradation: optional dict form of a
            :class:`repro.resilience.degradation.DegradationModel` —
            the multi-state Markov health extension.
        maintenance: optional dict form of a
            :class:`repro.resilience.degradation.MaintenancePolicy`
            (requires ``degradation``).
        hv_overhead: optional ``{"cost": n}`` charging ``n``
            hypervisor ticks per world switch.
    """

    vms: List[VMSpec]
    pcpus: int
    scheduler: str = "rrs"
    scheduler_params: Dict[str, Any] = field(default_factory=dict)
    sim_time: int = 2000
    warmup: int = 200
    vm_slots: int = 8
    scheduler_slots: int = 16
    pcpu_failures: Optional[Dict[str, float]] = None
    degradation: Optional[Dict[str, Any]] = None
    maintenance: Optional[Dict[str, Any]] = None
    hv_overhead: Optional[Dict[str, Any]] = None

    def validate(self) -> None:
        """Check every field; raises :class:`ConfigurationError` on the
        first problem, naming the offending field."""
        if not self.vms:
            raise ConfigurationError("a system needs at least one VM")
        for index, vm in enumerate(self.vms):
            try:
                vm.validate()
            except ConfigurationError as exc:
                raise ConfigurationError(f"vms[{index}]: {exc}") from exc
        if self.pcpus < 1:
            raise ConfigurationError(f"pcpus must be >= 1, got {self.pcpus}")
        if not is_registered(self.scheduler):
            raise ConfigurationError(
                f"scheduler {self.scheduler!r} is not registered"
            )
        if self.sim_time < 1:
            raise ConfigurationError(f"sim_time must be >= 1, got {self.sim_time}")
        if not 0 <= self.warmup < self.sim_time:
            raise ConfigurationError(
                f"warmup must be in [0, sim_time), got {self.warmup} "
                f"with sim_time={self.sim_time}"
            )
        for vm in self.vms:
            if vm.vcpus > self.vm_slots:
                raise ConfigurationError(
                    f"a VM has {vm.vcpus} VCPUs but vm_slots={self.vm_slots}"
                )
        if self.total_vcpus() > self.scheduler_slots:
            raise ConfigurationError(
                f"{self.total_vcpus()} total VCPUs exceed "
                f"scheduler_slots={self.scheduler_slots}"
            )
        if self.pcpu_failures is not None:
            if set(self.pcpu_failures) != {"mtbf", "mttr"}:
                raise ConfigurationError(
                    "pcpu_failures needs exactly the keys 'mtbf' and 'mttr', "
                    f"got {sorted(self.pcpu_failures)}"
                )
            if self.pcpu_failures["mtbf"] <= 0 or self.pcpu_failures["mttr"] <= 0:
                raise ConfigurationError(
                    "pcpu_failures mtbf/mttr must be > 0, got "
                    f"{self.pcpu_failures}"
                )
        if self.degradation is not None and self.pcpu_failures is not None:
            raise ConfigurationError(
                "degradation and pcpu_failures are mutually exclusive "
                "(terminal health *is* failure)"
            )
        if self.maintenance is not None and self.degradation is None:
            raise ConfigurationError(
                "maintenance requires a degradation model to repair"
            )
        degradation, maintenance, _ = self.extension_models()
        if (
            degradation is not None
            and degradation.initial_health is not None
            and len(degradation.initial_health) != self.pcpus
        ):
            raise ConfigurationError(
                "degradation: initial_health lists "
                f"{len(degradation.initial_health)} entries for "
                f"{self.pcpus} PCPUs"
            )
        if (
            maintenance is not None
            and maintenance.policy == "condition_based"
            and maintenance.threshold > degradation.h_max
        ):
            raise ConfigurationError(
                f"maintenance: condition_based threshold {maintenance.threshold} "
                f"exceeds h_max {degradation.h_max}"
            )
        # The paper: "at most the same number of VCPUs as ... physical
        # cores" per VM.  We keep that constraint advisory rather than
        # fatal: SCS's zero-availability result at 1 PCPU depends on
        # violating it, and the paper's own Figure 8 does exactly that.

    def extension_models(
        self,
    ) -> Tuple[
        Optional[DegradationModel],
        Optional[MaintenancePolicy],
        Optional[HVOverheadModel],
    ]:
        """The PCPU health extensions this spec asks for, as models.

        ``pcpu_failures`` expands here and nowhere else: failure after
        an exponential ``mtbf`` is the two-state chain stepping with
        ``p = 1``, and one corrective crew per PCPU repairs it after an
        exponential ``mttr`` without ever queueing.  Raises
        :class:`ConfigurationError` prefixed with the offending field.
        """
        degradation, maintenance = self.degradation, self.maintenance
        if self.pcpu_failures is not None:
            degradation = {"p": 1.0, "h_max": 1, "mtbe": self.pcpu_failures["mtbf"]}
            maintenance = {
                "policy": "corrective",
                "crews": self.pcpus,
                "mttr": self.pcpu_failures["mttr"],
            }
        return (
            _extension("degradation", DegradationModel, degradation),
            _extension("maintenance", MaintenancePolicy, maintenance),
            _extension("hv_overhead", HVOverheadModel, self.hv_overhead),
        )

    def total_vcpus(self) -> int:
        """Sum of all VMs' VCPU counts."""
        return sum(vm.vcpus for vm in self.vms)

    def topology(self) -> List[int]:
        """VCPUs per VM, in order."""
        return [vm.vcpus for vm in self.vms]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        return {
            "vms": [vm.to_dict() for vm in self.vms],
            "pcpus": self.pcpus,
            "scheduler": self.scheduler,
            "scheduler_params": dict(self.scheduler_params),
            "sim_time": self.sim_time,
            "warmup": self.warmup,
            "vm_slots": self.vm_slots,
            "scheduler_slots": self.scheduler_slots,
            "pcpu_failures": dict(self.pcpu_failures) if self.pcpu_failures else None,
            "degradation": dict(self.degradation) if self.degradation else None,
            "maintenance": dict(self.maintenance) if self.maintenance else None,
            "hv_overhead": dict(self.hv_overhead) if self.hv_overhead else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SystemSpec":
        try:
            return cls(
                vms=[VMSpec.from_dict(vm) for vm in payload["vms"]],
                pcpus=int(payload["pcpus"]),
                scheduler=payload.get("scheduler", "rrs"),
                scheduler_params=dict(payload.get("scheduler_params", {})),
                sim_time=int(payload.get("sim_time", 2000)),
                warmup=int(payload.get("warmup", 200)),
                vm_slots=int(payload.get("vm_slots", 8)),
                scheduler_slots=int(payload.get("scheduler_slots", 16)),
                pcpu_failures=payload.get("pcpu_failures"),
                degradation=payload.get("degradation"),
                maintenance=payload.get("maintenance"),
                hv_overhead=payload.get("hv_overhead"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed system spec: {exc}") from exc

    def with_overrides(self, **overrides) -> "SystemSpec":
        """A copy of this spec with some fields replaced (for sweeps)."""
        payload = self.to_dict() if not any(
            isinstance(vm.workload.load, Distribution) for vm in self.vms
        ) else None
        if payload is None:
            # Distribution instances do not round-trip through dicts;
            # copy structurally instead.
            copied = SystemSpec(
                vms=[VMSpec(vm.vcpus, WorkloadSpec(
                    vm.workload.load, vm.workload.sync_ratio, vm.workload.sync_kind
                ), vm.dispatch) for vm in self.vms],
                pcpus=self.pcpus,
                scheduler=self.scheduler,
                scheduler_params=dict(self.scheduler_params),
                sim_time=self.sim_time,
                warmup=self.warmup,
                vm_slots=self.vm_slots,
                scheduler_slots=self.scheduler_slots,
                pcpu_failures=dict(self.pcpu_failures) if self.pcpu_failures else None,
                degradation=dict(self.degradation) if self.degradation else None,
                maintenance=dict(self.maintenance) if self.maintenance else None,
                hv_overhead=dict(self.hv_overhead) if self.hv_overhead else None,
            )
        else:
            copied = SystemSpec.from_dict(payload)
        for key, value in overrides.items():
            if not hasattr(copied, key):
                raise ConfigurationError(f"SystemSpec has no field {key!r}")
            setattr(copied, key, value)
        return copied
