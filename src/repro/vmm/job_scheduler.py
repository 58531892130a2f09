"""The Job Scheduler sub-model (paper Figure 3): "the hub of each VM".

Takes workloads from the generator via the shared ``Workload`` place
and, based on the state of the VCPU slots, decides which READY VCPU
receives each one.  The paper statically defines eight VCPU slots
("to support bigger VMs, more VCPU slots can easily be added" — here,
``num_slots`` is a parameter defaulting to the paper's 8); slots
without a plugged VCPU model stay ``None`` and are never selected.

The ``Scheduling`` event fires when (i) there is a pending workload and
(ii) at least one VCPU is READY.  The paper prescribes *even*
distribution; this implementation makes the policy explicit:

* ``"round_robin"`` (default, the paper's semantics) — a rotating
  cursor (the ``Next_VCPU`` place) spreads jobs evenly;
* ``"first_ready"`` — always the lowest-indexed READY VCPU (a naive
  implementation that concentrates work, useful as an ablation);
* ``"random"`` — a uniformly random READY VCPU (needs an ``rng``).

This model also owns the barrier-release ``Unblock`` activity: when
the VM is blocked and every outstanding load has completed (all slots
at ``remaining_load == 0`` and no pending workload), the ``Blocked``
place clears and generation resumes.
"""

from __future__ import annotations

from random import Random
from typing import Optional

from ..errors import ModelError
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
    PRIORITY_DISPATCH,
    PRIORITY_UNBLOCK,
    new_slot,
)

DEFAULT_NUM_SLOTS = 8  # the paper's Figure 3 statically defines eight

DISPATCH_POLICIES = ("round_robin", "first_ready", "random")


def build_job_scheduler(
    name: str,
    num_vcpus: int,
    num_slots: int = DEFAULT_NUM_SLOTS,
    dispatch: str = "round_robin",
    rng: Optional[Random] = None,
) -> SANModel:
    """Construct one VM's job scheduler.

    Args:
        name: model name, conventionally ``"VM_Job_Scheduler"``.
        num_vcpus: number of plugged VCPU slots (1..num_slots).
        num_slots: statically defined slot count (paper default: 8).
        dispatch: READY-VCPU selection policy (see module docstring).
        rng: random stream, required by the ``"random"`` policy.

    Returns:
        A model exposing join places ``Workload``, ``Blocked``,
        ``Num_VCPUs_ready``, and ``VCPU1_slot``..``VCPU<n>_slot``.
    """
    if not 1 <= num_vcpus <= num_slots:
        raise ModelError(
            f"job scheduler {name!r}: num_vcpus must be in 1..{num_slots}, "
            f"got {num_vcpus}"
        )
    if dispatch not in DISPATCH_POLICIES:
        raise ModelError(
            f"job scheduler {name!r}: unknown dispatch policy {dispatch!r}; "
            f"valid: {DISPATCH_POLICIES}"
        )
    if dispatch == "random" and rng is None:
        raise ModelError(
            f"job scheduler {name!r}: the 'random' dispatch policy needs an rng"
        )
    model = SANModel(name)
    workload = model.add_place(ExtendedPlace("Workload", None))
    blocked = model.add_place(Place("Blocked"))
    num_ready = model.add_place(Place("Num_VCPUs_ready"))
    cursor = model.add_place(Place("Next_VCPU"))

    slots = []
    for index in range(1, num_slots + 1):
        initial = new_slot() if index <= num_vcpus else None
        slots.append(model.add_place(ExtendedPlace(f"VCPU{index}_slot", initial)))
    plugged = slots[:num_vcpus]

    # -- Scheduling: dispatch the pending workload to a READY VCPU --------

    can_dispatch = (E.field(workload) != E.const(None)) & (E.tokens(num_ready) > 0)

    def _ready_indices() -> list:
        return [
            i
            for i, slot in enumerate(plugged)
            if slot.peek()["status"] == VCPUStatus.READY
        ]

    def _pick() -> int:
        ready = _ready_indices()
        if not ready:
            # Unreachable while Num_VCPUs_ready is maintained correctly;
            # the invariant tests assert this never happens.
            raise ModelError(
                f"job scheduler {name!r}: Num_VCPUs_ready={num_ready.tokens} "
                "but no READY slot found"
            )
        if dispatch == "first_ready":
            return ready[0]
        if dispatch == "random":
            return rng.choice(ready)
        # round_robin: first READY slot at or after the cursor.
        start = cursor.tokens % num_vcpus
        for offset in range(num_vcpus):
            index = (start + offset) % num_vcpus
            if index in ready:
                return index
        return ready[0]  # unreachable; keeps the type checker honest

    def do_dispatch() -> None:
        job = workload.value
        index = _pick()
        slot = plugged[index].value
        slot["remaining_load"] = job["load"]
        slot["sync_point"] = job["sync_point"]
        slot["critical"] = job.get("critical", 0)
        slot["status"] = VCPUStatus.BUSY
        num_ready.remove()
        workload.value = None
        cursor.tokens = (index + 1) % num_vcpus

    model.add_activity(
        InstantaneousActivity(
            "Scheduling",
            priority=PRIORITY_DISPATCH,
            input_gates=[InputGate("Scheduling_gate", expr=can_dispatch)],
            output_gates=[OutputGate("Dispatch", do_dispatch)],
        )
    )

    # -- Unblock: barrier release ------------------------------------------

    barrier_done = E.land(
        E.tokens(blocked) > 0,
        E.field(workload) == E.const(None),
        *[E.field(slot, "remaining_load") == 0 for slot in plugged],
    )

    model.add_activity(
        InstantaneousActivity(
            "Unblock",
            priority=PRIORITY_UNBLOCK,
            input_gates=[InputGate("Barrier_done", expr=barrier_done)],
            output_gates=[OutputGate("Clear_blocked", effect=[E.set_tokens(blocked, 0)])],
        )
    )

    return model
