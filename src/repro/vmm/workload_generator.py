"""The Workload Generator sub-model (paper Figure 5).

Generates a workload when two conditions are met (§III.B.3): (i) at
least one READY VCPU exists, and (ii) the VM is not blocked by a
synchronization point.  Each workload carries a ``load`` (processing
ticks) and a ``sync_point`` flag; generation of both "is configurable
to any distribution and rate" via :class:`repro.workloads.WorkloadModel`.

Generating a sync workload raises the VM-wide ``Blocked`` place, which
halts further generation until every outstanding job — including jobs
stranded on descheduled VCPUs — has completed (the barrier).  The job
counter lives in the ``Num_Generated`` place so the whole generator
state is part of the marking.
"""

from __future__ import annotations

from random import Random

from ..san import (
    ExtendedPlace,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
)
from ..san import exprs as E
from ..workloads.generators import WorkloadModel
from .states import PRIORITY_GENERATE, new_workload


def build_workload_generator(
    name: str,
    workload_model: WorkloadModel,
    rng: Random,
) -> SANModel:
    """Construct one VM's workload generator.

    Args:
        name: model name, conventionally ``"Workload_Generator"``.
        workload_model: load distribution + sync policy for this VM.
        rng: the generator's private random stream (one per VM, from the
            replication's :class:`repro.des.StreamFactory`).

    Returns:
        A model exposing join places ``Workload``, ``Blocked``, and
        ``Num_VCPUs_ready`` (paper Table 1), plus the observable
        ``Num_Generated`` counter.
    """
    model = SANModel(name)
    workload = model.add_place(ExtendedPlace("Workload", None))
    blocked = model.add_place(Place("Blocked"))
    num_ready = model.add_place(Place("Num_VCPUs_ready"))
    num_generated = model.add_place(Place("Num_Generated"))
    can_generate = (
        (E.field(workload) == E.const(None))
        & (E.tokens(blocked) == 0)
        & (E.tokens(num_ready) > 0)
    )

    def wl_output() -> None:
        index = num_generated.tokens
        job = workload_model.next_job(index, rng)
        workload.value = new_workload(job.load, job.sync_point, job.critical)
        num_generated.add()
        if job.sync_point:
            # The barrier: stop generating until all preceding jobs
            # (this one included) complete.  The pending workload itself
            # is still dispatched — Blocked only gates generation.
            blocked.add()

    model.add_activity(
        InstantaneousActivity(
            "WL_gen",
            priority=PRIORITY_GENERATE,
            input_gates=[InputGate("Can_generate", expr=can_generate)],
            output_gates=[OutputGate("WL_Output", wl_output)],
        )
    )
    return model
