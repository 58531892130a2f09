"""Shared state-variable definitions for the virtualization models.

The paper's sub-models communicate through a handful of typed places;
this module pins down their shapes and initial markings so that every
sub-model builder constructs *identical* initials — a requirement for
the Join operation to share them (see :func:`repro.san.places.share`).

Token shapes:

* ``VCPU_slot`` (extended place) — ``{"remaining_load": int,
  "sync_point": int, "status": str}``, exactly the fields of §III.B.2.
* ``Workload`` (extended place) — ``None`` when empty, else
  ``{"load": int, "sync_point": int}``, the two fields of §III.B.3.
* ``PCPUs`` (extended place) — a list of ``{"state": str, "vcpu":
  Optional[int]}`` entries, the paper's PCPU array.

Priorities: the per-tick phase order of DESIGN.md §5, encoded as
instantaneous-activity priorities (lower fires first).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..schedulers.interface import PCPUState, VCPUStatus

# Per-tick phase priorities for instantaneous activities.  The settle
# loop always fires the lowest-priority enabled activity first, so these
# constants define the phase order within one clock tick.
#
# Schedule_Out applies strictly before Schedule_In: when a timeslice
# expiry and an algorithm re-dispatch hit the same VCPU in one tick, the
# out-then-in order is the only consistent one (in-then-out would leave
# the VCPU marked INACTIVE while the hypervisor holds a PCPU for it).
PRIORITY_APPLY_SCHEDULE_OUT = 0  # Handle_Schedule_Out
PRIORITY_APPLY_SCHEDULE_IN = 1  # Handle_Schedule_In
PRIORITY_ACQUIRE = 9  # Acquire_lock (critical sections, before processing)
PRIORITY_PROCESS = 10  # Processing_load / Spin_tick / Discard_tick
PRIORITY_UNBLOCK = 20  # barrier release
PRIORITY_GENERATE = 30  # workload generation
PRIORITY_DISPATCH = 31  # job scheduler dispatch
PRIORITY_MAINT = 39  # maintenance crew dispatch (before Scheduling_Func)
PRIORITY_SCHEDULER = 40  # hypervisor Scheduling_Func


def new_slot() -> Dict[str, Any]:
    """The initial ``VCPU_slot`` marking: idle, unscheduled, no load.

    ``critical`` extends the paper's slot with the lock-based
    synchronization of §V's future work: 1 while the current job must
    execute inside the VM's critical section.
    """
    return {
        "remaining_load": 0,
        "sync_point": 0,
        "critical": 0,
        "status": VCPUStatus.INACTIVE,
    }


def new_workload(load: int, sync_point: int, critical: int = 0) -> Dict[str, int]:
    """A ``Workload`` token: ``load`` ticks of work plus sync semantics."""
    return {"load": int(load), "sync_point": int(sync_point), "critical": int(critical)}


def new_pcpu_entry() -> Dict[str, Optional[str]]:
    """One idle entry of the PCPU array."""
    return {"state": PCPUState.IDLE, "vcpu": None}


def slot_is_active(slot: Dict[str, Any]) -> bool:
    """True while the slot's VCPU holds a PCPU (READY or BUSY)."""
    return slot["status"] in VCPUStatus.ACTIVE


def slot_is_busy(slot: Dict[str, Any]) -> bool:
    """True while the slot's VCPU is processing a workload."""
    return slot["status"] == VCPUStatus.BUSY
