"""The VCPU sub-model (paper Figure 4).

State:

* ``VCPU_slot`` — extended place with ``remaining_load``,
  ``sync_point``, ``status``; joined with the VM's job scheduler (and,
  in this implementation, visible to the hypervisor so the scheduling
  function can see VCPU status, as the paper's C interface promises).
* ``Schedule_In`` / ``Schedule_Out`` — token places; the hypervisor
  deposits a token to notify the VCPU it has been assigned a PCPU /
  must relinquish it.  Joined with the VCPU Scheduler (paper Table 2).
* ``Tick`` — one token per hypervisor clock firing; the channel through
  which the Clock activity "triggers" load processing (§III.B.2).
* ``Blocked`` / ``Num_VCPUs_ready`` — VM-wide places joined across all
  of the VM's sub-models (paper Table 1).

Activities (all instantaneous):

* ``Handle_Schedule_In`` — consume a Schedule_In token; INACTIVE →
  BUSY if a load is pending, else READY (bumping ``Num_VCPUs_ready``).
* ``Handle_Schedule_Out`` — consume a Schedule_Out token; READY/BUSY →
  INACTIVE.  Note the paper's remark: the VCPU may be mid-workload
  (``remaining_load > 0``) or even holding a synchronization point —
  both fields survive descheduling, which is exactly what creates
  synchronization latency under sibling-oblivious schedulers.
* ``Processing_load`` — on each tick while BUSY (and, for a critical
  job, while holding the VM lock), decrement ``remaining_load``; at
  zero the VCPU turns READY (releasing the lock if held).
* ``Acquire_lock`` / ``Spin_tick`` — the critical-section extension
  (paper §V future work): a BUSY VCPU whose job is critical first
  acquires the VM-wide ``Lock``; while a sibling holds it, the VCPU
  *spins* — its tick is consumed, ``Spin_ticks`` counts it, and no
  progress is made.  A preempted lock holder keeps the lock (that is
  the lock-holder-preemption problem of §II.B, now measurable).
* ``Discard_tick`` — consume the tick token when not BUSY (keeps the
  tick channel from accumulating).
"""

from __future__ import annotations

from ..san import (
    ExtendedPlace,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
)
from ..san import exprs as E
from ..schedulers.interface import VCPUStatus
from .states import (
    PRIORITY_ACQUIRE,
    PRIORITY_APPLY_SCHEDULE_IN,
    PRIORITY_APPLY_SCHEDULE_OUT,
    PRIORITY_PROCESS,
    new_slot,
)


def build_vcpu_model(name: str, lock_owner_id: int = 0) -> SANModel:
    """Construct one VCPU sub-model.

    Args:
        name: model name, e.g. ``"VCPU1"`` (the paper's convention).
        lock_owner_id: this VCPU's identity in the VM-wide ``Lock``
            place (the VM builder passes the 1-based VCPU index).

    Returns:
        A :class:`repro.san.SANModel` exposing the join places
        ``VCPU_slot``, ``Schedule_In``, ``Schedule_Out``, ``Tick``,
        ``Blocked``, ``Num_VCPUs_ready``, and ``Lock``, plus the local
        ``Spin_ticks`` counter.
    """
    model = SANModel(name)
    slot = model.add_place(ExtendedPlace("VCPU_slot", new_slot()))
    schedule_in = model.add_place(Place("Schedule_In"))
    schedule_out = model.add_place(Place("Schedule_Out"))
    tick = model.add_place(Place("Tick"))
    model.add_place(Place("Blocked"))
    num_ready = model.add_place(Place("Num_VCPUs_ready"))
    # The VM-wide lock: None when free, else the holder's lock_owner_id.
    lock = model.add_place(ExtendedPlace("Lock", None))
    spin_ticks = model.add_place(Place("Spin_ticks"))
    me = int(lock_owner_id)
    has_tick = E.tokens(tick) > 0
    busy = E.field(slot, "status") == VCPUStatus.BUSY
    critical = E.field(slot, "critical")
    holder = E.field(lock)

    def apply_schedule_in() -> None:
        schedule_in.remove()
        slot_value = slot.value
        if slot_value["remaining_load"] > 0:
            slot_value["status"] = VCPUStatus.BUSY
        else:
            slot_value["status"] = VCPUStatus.READY
            num_ready.add()

    model.add_activity(
        InstantaneousActivity(
            "Handle_Schedule_In",
            priority=PRIORITY_APPLY_SCHEDULE_IN,
            input_gates=[
                InputGate("Has_schedule_in", expr=E.tokens(schedule_in) > 0)
            ],
            output_gates=[OutputGate("Apply_schedule_in", apply_schedule_in)],
        )
    )

    def apply_schedule_out() -> None:
        schedule_out.remove()
        slot_value = slot.value
        if slot_value["status"] == VCPUStatus.READY:
            num_ready.remove()
        slot_value["status"] = VCPUStatus.INACTIVE

    model.add_activity(
        InstantaneousActivity(
            "Handle_Schedule_Out",
            priority=PRIORITY_APPLY_SCHEDULE_OUT,
            input_gates=[
                InputGate("Has_schedule_out", expr=E.tokens(schedule_out) > 0)
            ],
            output_gates=[OutputGate("Apply_schedule_out", apply_schedule_out)],
        )
    )

    # -- critical sections (paper §V future-work extension) ---------------

    model.add_activity(
        InstantaneousActivity(
            "Acquire_lock",
            priority=PRIORITY_ACQUIRE,
            input_gates=[
                InputGate(
                    "Wants_lock",
                    expr=busy & (critical == 1) & (holder == E.const(None)),
                )
            ],
            output_gates=[
                OutputGate("Take_lock", lambda: setattr(lock, "value", me))
            ],
        )
    )

    model.add_activity(
        InstantaneousActivity(
            "Spin_tick",
            priority=PRIORITY_PROCESS,
            input_gates=[
                InputGate(
                    "Spinning",
                    expr=has_tick
                    & busy
                    & (critical == 1)
                    & (holder != E.const(None))
                    & (holder != me),
                )
            ],
            # Burn the tick token and count it as spin waste.
            output_gates=[
                OutputGate("Spin_gate", effect=(E.remove(tick), E.add(spin_ticks)))
            ],
        )
    )

    # -- processing ---------------------------------------------------------

    def process_one_unit() -> None:
        tick.remove()
        slot_value = slot.value
        slot_value["remaining_load"] -= 1
        if slot_value["remaining_load"] == 0:
            slot_value["sync_point"] = 0  # the barrier job itself is done
            if slot_value["critical"] and lock.value == me:
                lock.value = None  # leave the critical section
            slot_value["critical"] = 0
            slot_value["status"] = VCPUStatus.READY
            num_ready.add()

    model.add_activity(
        InstantaneousActivity(
            "Processing_load",
            priority=PRIORITY_PROCESS,
            input_gates=[
                # A critical job only progresses while this VCPU holds
                # the lock.
                InputGate(
                    "Busy_with_tick",
                    expr=has_tick & busy & ((critical == 0) | (holder == me)),
                )
            ],
            output_gates=[OutputGate("Processing_load_gate", process_one_unit)],
        )
    )

    model.add_activity(
        InstantaneousActivity(
            "Discard_tick",
            priority=PRIORITY_PROCESS,
            input_gates=[
                InputGate(
                    "Idle_with_tick",
                    expr=has_tick & (E.field(slot, "status") != VCPUStatus.BUSY),
                )
            ],
            output_gates=[OutputGate("Discard_tick_gate", effect=(E.remove(tick),))],
        )
    )

    return model
