"""The paper's virtualization sub-models, built on the SAN engine.

One builder per paper figure:

* :func:`build_vcpu_model` — Figure 4 (VCPU)
* :func:`build_workload_generator` — Figure 5 (Workload Generator)
* :func:`build_job_scheduler` — Figure 3 (Job Scheduler)
* :func:`build_vm_model` — Figure 2 / Table 1 (Virtual Machine)
* :func:`build_vcpu_scheduler` — Figure 6 (VCPU Scheduler)
* :func:`build_virtual_system` — Figure 7 / Table 2 (Virtual System)
"""

from .job_scheduler import build_job_scheduler
from .states import (
    PRIORITY_APPLY_SCHEDULE_IN,
    PRIORITY_APPLY_SCHEDULE_OUT,
    PRIORITY_DISPATCH,
    PRIORITY_GENERATE,
    PRIORITY_PROCESS,
    PRIORITY_SCHEDULER,
    PRIORITY_UNBLOCK,
    new_pcpu_entry,
    new_slot,
    new_workload,
    slot_is_active,
    slot_is_busy,
)
from .system import (
    SYSTEM_NAME,
    build_virtual_system,
    pcpus_place,
    slot_value_place,
    vcpu_label,
    vm_model_name,
)
from .vcpu import build_vcpu_model
from .vcpu_scheduler import SCHEDULER_NAME, build_vcpu_scheduler
from .virtual_machine import build_vm_model
from .workload_generator import build_workload_generator

__all__ = [
    "build_vcpu_model",
    "build_workload_generator",
    "build_job_scheduler",
    "build_vm_model",
    "build_vcpu_scheduler",
    "build_virtual_system",
    "slot_value_place",
    "pcpus_place",
    "vcpu_label",
    "vm_model_name",
    "SCHEDULER_NAME",
    "SYSTEM_NAME",
    "new_slot",
    "new_workload",
    "new_pcpu_entry",
    "slot_is_active",
    "slot_is_busy",
    "PRIORITY_APPLY_SCHEDULE_IN",
    "PRIORITY_APPLY_SCHEDULE_OUT",
    "PRIORITY_PROCESS",
    "PRIORITY_UNBLOCK",
    "PRIORITY_GENERATE",
    "PRIORITY_DISPATCH",
    "PRIORITY_SCHEDULER",
]
