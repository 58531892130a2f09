"""Reference SAN models expressed entirely in the gate/reward IR.

The Fig-8 virtualization model (:mod:`repro.vmm.vcpu_scheduler`) keeps
its scheduling function as procedural Python — the paper's algorithms
walk VM topologies and mutate extended places, which has no declarative
form.  The batch engine therefore runs that model's lanes one at a time
on the serial compiled engine.  This module provides the counterpart:
a token-only, event-driven abstraction of the same dispatch /
time-slice / fail / repair cycle whose every gate, effect, and reward is an
:mod:`repro.san.exprs` expression, so the batch engine's vectorized
kernel runner (:mod:`repro.san.vector`) can advance all replication
lanes through one ``(R, n_places)`` int64 matrix.

The abstraction keeps the Fig-8 *shape* — G guest-VCPU slots competing
for a bounded PCPU pool under time-slice preemption, with exponential
job arrivals and exponential PCPU fail/repair — while replacing the
tick-driven scheduler walk with event-driven token flow:

* ``Run_g``    — slot ``g`` currently holds a PCPU (0/1).
* ``Load_g``   — remaining work units of slot ``g``'s current job.
* ``Slice_g``  — remaining time-slice budget of the running job.
* ``FreePCPU`` — idle, operational PCPUs.
* ``Up_p``     — PCPU ``p`` is operational (0/1).

A running slot burns one work unit per unit time (``Quantum_g``, a
deterministic timed activity); completion, expiry, failure handling and
dispatch are instantaneous activities whose registration order encodes
the scheduler's priorities (completions first, then capacity changes,
then lowest-index-first dispatch).  This deliberately keeps every
instantaneous chain shallow — a timed event triggers at most a handful
of settle passes — which is the regime where the vectorized batch
runner amortizes: each pass costs a fixed number of numpy operations
regardless of how many replication lanes advance through it.  The
paper's three reward shapes — PCPU utilization, VCPU availability, and
the BUSY/ACTIVE utilization ratio — are declared as IR rate
expressions over these counters.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..des.distributions import Deterministic, Exponential
from . import exprs as E
from .activities import InstantaneousActivity, TimedActivity
from .gates import InputGate
from .model import SANModel
from .places import Place
from .reward import RateReward, RatioRateReward, RewardVariable


def build_ir_reference_model(
    topology: Tuple[int, ...] = (2, 2, 2, 2),
    num_pcpus: int = 2,
    timeslice: int = 3,
    job_size: int = 5,
    arrival_mean: float = 6.0,
    mtbf: float = 400.0,
    mttr: float = 25.0,
    name: str = "IRRef",
) -> SANModel:
    """A fully-IR time-sliced scheduling model with PCPU fail/repair.

    Args:
        topology: VCPUs per VM, Fig-8 style; only the total slot count
            ``G = sum(topology)`` matters to the token abstraction.
        num_pcpus: size of the PCPU pool (initial ``FreePCPU`` marking).
        timeslice: work units a dispatched job may burn before expiry.
        job_size: work units per arriving job.
        arrival_mean: mean inter-arrival time of per-slot jobs.
        mtbf: mean time between failures of each PCPU.
        mttr: mean time to repair a failed PCPU.
        name: model name (activity qualified names derive from it).

    Every call builds a fresh model with its own places, so batch lanes
    get independent state; all lanes built with the same parameters
    share the structural signature the vectorized runner requires.
    """
    slots = int(sum(topology))
    if slots < 1:
        raise ValueError(f"topology {topology!r} has no VCPU slots")
    if num_pcpus < 1:
        raise ValueError(f"num_pcpus must be >= 1, got {num_pcpus}")
    if timeslice < 1:
        raise ValueError(f"timeslice must be >= 1, got {timeslice}")
    if job_size < 1:
        raise ValueError(f"job_size must be >= 1, got {job_size}")

    model = SANModel(name)

    free = model.add_place(Place("FreePCPU", num_pcpus))
    down_wait = model.add_place(Place("DownWait", 0))
    up_wait = model.add_place(Place("UpWait", 0))

    run: List[Place] = []
    load: List[Place] = []
    slc: List[Place] = []
    done: List[Place] = []
    for g in range(slots):
        run.append(model.add_place(Place(f"Run_{g}", 0)))
        load.append(model.add_place(Place(f"Load_{g}", job_size)))
        slc.append(model.add_place(Place(f"Slice_{g}", 0)))
        done.append(model.add_place(Place(f"Done_{g}", 0)))
    up: List[Place] = []
    for p in range(num_pcpus):
        up.append(model.add_place(Place(f"Up_{p}", 1)))

    # -- instantaneous scheduler, in scan-priority registration order ---
    # While a slot runs, the settle loop has already ensured Load > 0
    # and Slice > 0, so the quantum burn below never goes negative.
    for g in range(slots):
        model.add_activity(
            InstantaneousActivity(
                f"Finish_{g}",
                priority=0,
                input_gates=[
                    InputGate(
                        f"Finished_{g}",
                        expr=(E.tokens(run[g]) > 0) & (E.tokens(load[g]) == 0),
                        effect=E.effects(
                            E.remove(run[g]),
                            E.add(free),
                            E.add(done[g]),
                            E.set_tokens(slc[g], 0),
                        ),
                    )
                ],
            )
        )
    for g in range(slots):
        model.add_activity(
            InstantaneousActivity(
                f"Expire_{g}",
                priority=1,
                input_gates=[
                    InputGate(
                        f"Expired_{g}",
                        expr=(E.tokens(run[g]) > 0) & (E.tokens(slc[g]) == 0),
                        effect=E.effects(E.remove(run[g]), E.add(free)),
                    )
                ],
            )
        )
    # Capacity management outranks dispatch: a pending failure claims a
    # freed PCPU before any waiting slot can grab it back.
    model.add_activity(
        InstantaneousActivity(
            "TakeDown",
            priority=2,
            input_gates=[
                InputGate(
                    "Claimable",
                    expr=(E.tokens(down_wait) > 0) & (E.tokens(free) > 0),
                    effect=E.effects(E.remove(down_wait), E.remove(free)),
                )
            ],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "CancelPair",
            priority=2,
            input_gates=[
                InputGate(
                    "Cancelable",
                    expr=(E.tokens(up_wait) > 0) & (E.tokens(down_wait) > 0),
                    effect=E.effects(E.remove(up_wait), E.remove(down_wait)),
                )
            ],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "BringUp",
            priority=3,
            input_gates=[
                InputGate(
                    "Restorable",
                    expr=(E.tokens(up_wait) > 0) & (E.tokens(down_wait) == 0),
                    effect=E.effects(E.remove(up_wait), E.add(free)),
                )
            ],
        )
    )
    # Lowest-index-first dispatch: the settle loop's find-first scan is
    # the arbiter, so no explicit cursor tokens are needed.
    for g in range(slots):
        model.add_activity(
            InstantaneousActivity(
                f"Dispatch_{g}",
                priority=4,
                input_gates=[
                    InputGate(
                        f"Dispatchable_{g}",
                        expr=(E.tokens(load[g]) > 0)
                        & (E.tokens(run[g]) == 0)
                        & (E.tokens(free) > 0),
                        effect=E.effects(
                            E.remove(free),
                            E.add(run[g]),
                            E.set_tokens(slc[g], timeslice),
                        ),
                    )
                ],
            )
        )

    # -- timed layer: quanta, arrivals, fail/repair ---------------------
    for g in range(slots):
        model.add_activity(
            TimedActivity(
                f"Quantum_{g}",
                Deterministic(1.0),
                input_gates=[
                    InputGate(
                        f"Running_{g}",
                        expr=E.tokens(run[g]) > 0,
                        effect=E.effects(
                            E.remove(load[g]), E.remove(slc[g])
                        ),
                    )
                ],
            )
        )
    for g in range(slots):
        model.add_activity(
            TimedActivity(
                f"Arrive_{g}",
                Exponential(1.0 / arrival_mean),
                input_gates=[
                    InputGate(
                        f"Idle_{g}",
                        expr=(E.tokens(run[g]) == 0) & (E.tokens(load[g]) == 0),
                        effect=E.effects(E.add(load[g], job_size)),
                    )
                ],
            )
        )
    # All Fail_* then all Repair_* — contiguous registration keeps each
    # group a single kernel family for the vectorized batch runner.
    for p in range(num_pcpus):
        model.add_activity(
            TimedActivity(
                f"Fail_{p}",
                Exponential(1.0 / mtbf),
                input_gates=[
                    InputGate(
                        f"Operational_{p}",
                        expr=E.tokens(up[p]) > 0,
                        effect=E.effects(E.remove(up[p]), E.add(down_wait)),
                    )
                ],
            )
        )
    for p in range(num_pcpus):
        model.add_activity(
            TimedActivity(
                f"Repair_{p}",
                Exponential(1.0 / mttr),
                input_gates=[
                    InputGate(
                        f"Down_{p}",
                        expr=E.tokens(up[p]) == 0,
                        effect=E.effects(E.add(up[p]), E.add(up_wait)),
                    )
                ],
            )
        )

    return model


def reference_rewards(
    model: SANModel,
    num_pcpus: int = 2,
    warmup: float = 0.0,
) -> List[RewardVariable]:
    """The paper's three reward shapes as IR rate expressions.

    Returns fresh reward variables bound to ``model``'s places:

    * ``pcpu_utilization`` — running slots over pool size.
    * ``vcpu_availability`` — fraction of slots with work queued.
    * ``vcpu_utilization`` — running time over active (running or
      loaded) time, the BUSY/ACTIVE ratio shape.
    """
    table: Dict[str, Place] = model.places()

    def _indexed(prefix: str) -> List[Place]:
        names = [n for n in table if n.startswith(prefix)]
        names.sort(key=lambda n: int(n[len(prefix):]))
        return [table[n] for n in names]

    run = _indexed("Run_")
    load = _indexed("Load_")
    slots = len(run)

    running = E.count(E.tokens(run[0]) > 0)
    for place in run[1:]:
        running = running + E.count(E.tokens(place) > 0)
    loaded = E.count(E.tokens(load[0]) > 0)
    for place in load[1:]:
        loaded = loaded + E.count(E.tokens(place) > 0)
    active = E.count((E.tokens(run[0]) > 0) | (E.tokens(load[0]) > 0))
    for r_place, l_place in zip(run[1:], load[1:]):
        active = active + E.count(
            (E.tokens(r_place) > 0) | (E.tokens(l_place) > 0)
        )

    return [
        RateReward(
            "pcpu_utilization", expr=running / E.const(num_pcpus), warmup=warmup
        ),
        RateReward(
            "vcpu_availability", expr=loaded / E.const(slots), warmup=warmup
        ),
        RatioRateReward(
            "vcpu_utilization",
            num_expr=running,
            den_expr=active,
            warmup=warmup,
        ),
    ]
