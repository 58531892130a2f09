"""The Virtual System composed model (paper Figure 7 and Table 2).

A Virtual System joins one VCPU Scheduler with any number of Virtual
Machine composed models.  The join places reproduce the paper's
Table 2 — per VM *i* and VCPU *k* (mapped to global scheduler slot
*g*)::

    Schedule_In<i>_<k>   VM_<i> -> VCPU<k>.Schedule_In
                         VCPU_Scheduler -> VCPU<g>_Schedule_In
    Schedule_Out<i>_<k>  VM_<i> -> VCPU<k>.Schedule_Out
                         VCPU_Scheduler -> VCPU<g>_Schedule_Out

plus two channels the paper's figures imply but its tables elide: the
Clock tick fan-out (``Tick<i>_<k>``) that lets the hypervisor Clock
trigger each VCPU's ``Processing_load`` gate, and the VCPU slot
sharing (``Slot<i>_<k>``) that gives the scheduling function the VCPU
states its C interface promises ("passes the states of the VCPUs and
PCPUs").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..des.random_streams import StreamFactory
from ..errors import ModelError
from ..resilience.degradation import (
    DegradationModel,
    HVOverheadModel,
    MaintenancePolicy,
)
from ..san import ComposedModel, ExtendedPlace, SharedVariable, join
from ..schedulers.interface import SchedulingAlgorithm
from ..workloads.generators import WorkloadModel
from .job_scheduler import DEFAULT_NUM_SLOTS as DEFAULT_VM_SLOTS
from .vcpu_scheduler import (
    DEFAULT_NUM_SLOTS as DEFAULT_SCHEDULER_SLOTS,
    SCHEDULER_NAME,
    build_vcpu_scheduler,
)
from .virtual_machine import build_vm_model

SYSTEM_NAME = "Virtual_System"


def vm_model_name(num_vcpus: int, position: int) -> str:
    """The paper's VM naming convention: ``VM_2VCPU_1`` etc."""
    return f"VM_{num_vcpus}VCPU_{position}"


def build_virtual_system(
    vm_configs: Sequence[Tuple[int, WorkloadModel]],
    algorithm: SchedulingAlgorithm,
    num_pcpus: int,
    streams: Optional[StreamFactory] = None,
    vm_slots: int = DEFAULT_VM_SLOTS,
    scheduler_slots: int = DEFAULT_SCHEDULER_SLOTS,
    name: str = SYSTEM_NAME,
    degradation: Optional[DegradationModel] = None,
    maintenance: Optional[MaintenancePolicy] = None,
    hv_overhead: Optional[HVOverheadModel] = None,
) -> ComposedModel:
    """Assemble a complete virtualization system.

    Args:
        vm_configs: one ``(num_vcpus, workload_model)`` pair per VM, or
            ``(num_vcpus, workload_model, dispatch_policy)`` triples to
            override the job scheduler's dispatch policy.
        algorithm: the plugged scheduling algorithm (a fresh instance —
            its internal run queues must not carry over between runs).
        num_pcpus: number of physical CPUs.
        streams: random streams for this replication (default: seed 0,
            replication 0).
        vm_slots: static job-scheduler slots per VM (paper: 8).
        scheduler_slots: static hypervisor VCPU slots (paper: 16).
        name: composed model name.

    Returns:
        A :class:`repro.san.ComposedModel` carrying convenience
        metadata: ``slot_map`` (global slot -> (vm_id, vcpu_index)),
        ``scheduler`` (the scheduler sub-model), ``vm_names``,
        ``topology``, ``num_pcpus``, and ``algorithm``.
    """
    if not vm_configs:
        raise ModelError("a virtual system needs at least one VM")
    streams = streams if streams is not None else StreamFactory()

    normalized = [
        config if len(config) == 3 else (config[0], config[1], "round_robin")
        for config in vm_configs
    ]
    topology = [num_vcpus for num_vcpus, _, _ in normalized]
    scheduler = build_vcpu_scheduler(
        algorithm,
        num_pcpus,
        topology,
        num_slots=scheduler_slots,
        degradation=degradation,
        maintenance=maintenance,
        hv_overhead=hv_overhead,
        streams=streams,
    )

    submodels = {SCHEDULER_NAME: scheduler}
    vm_names: List[str] = []
    # (stream key, rng) pairs captured by builder closures — the VM
    # generators below plus the scheduler's degradation case streams.
    # Cross-replication reuse re-arms them via StreamFactory.reseed
    # (same objects, new seeds); this list lets tests verify the
    # captured objects really are the factory's memoized streams.
    stream_bindings: List[Tuple[str, object]] = list(scheduler.stream_bindings)
    for position, (num_vcpus, workload_model, dispatch) in enumerate(
        normalized, start=1
    ):
        vm_name = vm_model_name(num_vcpus, position)
        if vm_name in submodels:
            raise ModelError(f"duplicate VM model name {vm_name!r}")
        rng = streams.stream(f"{vm_name}.Workload_Generator")
        dispatch_rng = streams.stream(f"{vm_name}.VM_Job_Scheduler")
        stream_bindings.append((f"{vm_name}.Workload_Generator", rng))
        stream_bindings.append((f"{vm_name}.VM_Job_Scheduler", dispatch_rng))
        submodels[vm_name] = build_vm_model(
            vm_name,
            num_vcpus,
            workload_model,
            rng,
            num_slots=vm_slots,
            dispatch=dispatch,
            dispatch_rng=dispatch_rng,
        )
        vm_names.append(vm_name)

    shared: List[SharedVariable] = []
    g = 0  # global slot index, 0-based here; place names are 1-based
    for vm_index, (num_vcpus, _, _) in enumerate(normalized, start=1):
        vm_name = vm_names[vm_index - 1]
        for k in range(1, num_vcpus + 1):
            g += 1
            shared.append(
                SharedVariable(
                    f"Schedule_In{vm_index}_{k}",
                    [
                        (vm_name, f"VCPU{k}.Schedule_In"),
                        (SCHEDULER_NAME, f"VCPU{g}_Schedule_In"),
                    ],
                )
            )
            shared.append(
                SharedVariable(
                    f"Schedule_Out{vm_index}_{k}",
                    [
                        (vm_name, f"VCPU{k}.Schedule_Out"),
                        (SCHEDULER_NAME, f"VCPU{g}_Schedule_Out"),
                    ],
                )
            )
            shared.append(
                SharedVariable(
                    f"Tick{vm_index}_{k}",
                    [
                        (vm_name, f"VCPU{k}.Tick"),
                        (SCHEDULER_NAME, f"VCPU{g}_Tick"),
                    ],
                )
            )
            shared.append(
                SharedVariable(
                    f"Slot{vm_index}_{k}",
                    [
                        (vm_name, f"VCPU{k}_slot"),
                        (SCHEDULER_NAME, f"VCPU{g}_slot"),
                    ],
                )
            )

    system = join(name, submodels, shared)
    # Convenience metadata for metrics and the core facade.
    system.slot_map = scheduler.slot_map
    system.scheduler = scheduler
    system.vm_names = vm_names
    system.topology = topology
    system.num_pcpus = num_pcpus
    system.algorithm = algorithm
    system.degradation = degradation
    system.maintenance = maintenance
    system.hv_overhead = hv_overhead
    # Forward the scheduler's tick fast-forward certificate and the
    # builder stream bindings so the compiled engine and the reuse path
    # find them on the composed model.
    system.tick_fast_forward = scheduler.tick_fast_forward
    system.stream_bindings = stream_bindings
    return system


def slot_value_place(system: ComposedModel, global_slot: int) -> ExtendedPlace:
    """The ``VCPU_slot`` extended place for a global slot (0-based)."""
    return system.place(f"{SCHEDULER_NAME}.VCPU{global_slot + 1}_slot")


def pcpus_place(system: ComposedModel) -> ExtendedPlace:
    """The hypervisor's PCPU array place."""
    return system.place(f"{SCHEDULER_NAME}.PCPUs")


def vcpu_label(system: ComposedModel, global_slot: int) -> str:
    """The paper's VCPU naming, e.g. global slot 0 -> ``"VCPU1.1"``."""
    vm_id, vcpu_index = system.slot_map[global_slot]
    return f"VCPU{vm_id + 1}.{vcpu_index + 1}"
