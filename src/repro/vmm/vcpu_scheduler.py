"""The Virtual CPU Scheduler sub-model (paper Figure 6).

The hypervisor side of the framework.  Its components, following
§III.B.5:

* **Clock** — a timed activity with a deterministic unit delay; it
  "fires at every time unit to regulate the operation of the
  scheduling function ... and computes the remaining timeslice of each
  ACTIVE VCPU".  Its output gate fans a tick token out to every
  plugged VCPU sub-model (driving their ``Processing_load``) and arms
  the ``Scheduling_Func`` activity.
* **VCPU places** — one per possible VCPU (statically 16 in the paper;
  ``num_slots`` here, defaulting to 16).  Each plugged slot carries
  the paper's fields as places: ``Schedule_In`` / ``Schedule_Out``
  (token channels joined to the VCPU model), ``Last_Scheduled_In``,
  and ``Timeslice``, plus the slot's assigned-PCPU record.  Unplugged
  slots exist but are never enabled.
* **Num_PCPUs** and the **PCPUs array** — resource configuration and
  per-PCPU ``IDLE`` / ``ASSIGNED`` state.
* **Scheduling_Func** — the output gate that builds the
  ``VCPU_host_external`` / ``PCPU_external`` view arrays, calls the
  plugged :class:`~repro.schedulers.interface.SchedulingAlgorithm`
  (the paper's user C function), checks its decisions with
  :func:`~repro.schedulers.interface.resolve_decisions`, and applies
  them: freeing/assigning PCPUs, granting timeslices, stamping
  ``Last_Scheduled_In``, and depositing Schedule_In / Schedule_Out
  tokens for the VCPU models.  It also enforces the replication's
  decision guard (:mod:`repro.resilience.guard`), when one is attached.

Timeslice accounting happens *before* the algorithm call, as in the
paper: an ACTIVE VCPU's timeslice decreases at each Clock firing and
the VCPU "must relinquish the PCPU" when it reaches zero — the
algorithm then sees the freed PCPUs.

**Dependability and degradation extensions.**  Passing a
:class:`~repro.resilience.degradation.DegradationModel` attaches a
multi-state Markov health chain to every PCPU.  A core at health ``h``
withholds clock ticks from its hosted VCPU so that only a
``capacity[h]`` fraction reach the guest (leaky bucket: the withheld
fraction accumulates and one whole tick is dropped each time it
reaches 1).  Terminal health is failure: it forcibly deschedules the
hosted VCPU, makes the PCPU unassignable (FAILED) and emits
``pcpu.fail``.  A :class:`~repro.resilience.degradation.MaintenancePolicy`
adds repair: PCPUs compete for a token-bounded crew pool, and a PCPU
under maintenance is out of service until its repair restores pristine
health (and emits ``pcpu.repair`` for a failed one).  Binary
exponential fail/repair (the classic SAN dependability pattern, the
spec's ``pcpu_failures`` shorthand) is the two-state chain with
``p = 1`` and one corrective crew per PCPU.  Schedulers need no
changes: they only ever dispatch onto IDLE PCPUs.  An
:class:`~repro.resilience.degradation.HVOverheadModel` charges every
world switch: the first ``cost`` ticks after a schedule-in are consumed
by the hypervisor instead of the guest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..des.distributions import Deterministic, Exponential
from ..des.random_streams import StreamFactory
from ..errors import ConfigurationError, ModelError
from ..observability import profile as _profile
from ..observability import trace as _trace
from ..resilience.degradation import (
    DegradationModel,
    HVOverheadModel,
    MaintenancePolicy,
)
from ..san import (
    ExtendedPlace,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
)
from ..san import exprs as E
from ..schedulers.interface import (
    PCPUState,
    PCPUView,
    SchedulingAlgorithm,
    VCPUHostView,
    VCPUStatus,
    resolve_decisions,
    vcpu_status,
)
from .states import PRIORITY_MAINT, PRIORITY_SCHEDULER, new_pcpu_entry, new_slot

DEFAULT_NUM_SLOTS = 16  # the paper's Figure 6 statically defines sixteen

SCHEDULER_NAME = "VCPU_Scheduler"


#: Why :meth:`ClockFastForward.max_skip` refused a span, as
#: :meth:`ClockFastForward.refusal_reason` names it (the profiler's
#: ``engine.refused.<reason>`` counters; the engine adds ``bound``).
REFUSED_PCPU = "pcpu"  # an IDLE or FAILED PCPU
REFUSED_HEALTH = "health"  # a degraded core, maintenance, or an overhaul due
REFUSED_VCPU = "vcpu_state"  # a holder not BUSY/READY, a non-holder not INACTIVE
REFUSED_DEBT = "debt"  # an outstanding hypervisor-overhead debt
REFUSED_CRITICAL = "critical"  # a VCPU inside a critical section
REFUSED_LOAD = "load_completion"  # a load completes within two ticks
REFUSED_EXPIRY = "timeslice_expiry"  # a timeslice expires within two ticks
REFUSED_QUIET = "quiet_ticks"  # the algorithm certified fewer than two ticks
_REFUSED_ROOM = "room"  # LOAD or EXPIRY, told apart on request


class ClockFastForward:
    """Certificate + closed form for the Clock ticks the engine skips.

    Published on the scheduler model as ``tick_fast_forward`` and
    consumed by :class:`repro.san.compiled.CompiledSANSimulator`, which
    uses it three ways.

    **Coalescing idle ticks.**  The engine asks :meth:`max_skip` how
    many consecutive ticks from the current (quiescent) marking are
    *pure countdown* — every firing in the span is the fixed set {Clock,
    one tick consumer per plugged slot, Scheduling_Func}, every one of
    them merely decrements timeslices/remaining loads, and the plugged
    algorithm provably decides nothing.  That holds exactly when:

    * the algorithm certifies the ticks quiet through
      :meth:`~repro.schedulers.interface.SchedulingAlgorithm.quiet_ticks`
      — by default, when it declares ``tick_skip_safe`` (its
      ``schedule()`` is a no-op whenever every PCPU is assigned to an
      active VCPU); RCS bounds the span by its skew thresholds instead,
      and FIFO refuses any span with a READY holder (it releases one on
      the next tick).  The algorithm is resolved through
      ``model.algorithm``, so a chaos wrapper — which neither declares
      the flag nor overrides the method — disables fast-forward.  Under
      a decision guard the plugged algorithm certifies until it is
      quarantined and the round-robin fallback after; a skipped tick
      resets the guard's consecutive-fault count, as the clean call it
      replaces would have;
    * every PCPU is ASSIGNED (no idle PCPU an algorithm could fill, no
      FAILED PCPU mid-repair);
    * every assigned slot is BUSY or READY outside a critical section,
      and every other slot is INACTIVE — so each slot's tick consumer is
      fixed for the whole span: ``Processing_load`` for BUSY holders,
      ``Discard_tick`` for READY holders and unassigned slots.  A READY
      holder stays READY: a workload could only reach it through the
      job scheduler, whose dispatch already fired if one was pending,
      and generation is stalled (barrier) or needs another event;
    * no timeslice expires and no load completes strictly inside the
      span — the returned bound is the smallest distance to either
      (a READY holder has only its timeslice);
    * no degradation-layer state can change delivery inside the span:
      every PCPU is at pristine health with no maintenance pending and
      no hypervisor-overhead debt outstanding.  A degraded core
      withholds ticks data-dependently (the leaky-bucket accumulator),
      so any nonzero health disables coalescing outright; *pending*
      degradation/maintenance timed events need no check here — the
      engine already bounds spans by the earliest other pending event.

    Under those conditions every per-tick firing has a single case (no
    RNG draw) and the span's net marking change is arithmetic:
    :meth:`apply` performs it through the ordinary place APIs so the
    engine's dirty tracking sees every write.  With a tracer active it
    also has the algorithm emit the records its skipped calls would
    have (RCS's per-tick ``sched.skew``), so a traced run fast-forwards
    like an untraced one.  After a refusal, :meth:`refusal_reason`
    names the first condition that failed.

    **Certified tick consumers.**  While :attr:`armed`, the Clock's
    fan-out applies a slot's consumer itself instead of depositing its
    tick token, when that consumer is certain: ``Discard_tick`` for a
    slot that is not BUSY (no net effect) and ``Processing_load`` for an
    assigned BUSY slot outside a critical section with more than one
    tick of load left (``remaining_load`` drops by one, through
    ``.value``).  The Clock fires at quiescence and nothing below
    ``PRIORITY_PROCESS`` can run before the consumers, and each
    certified effect touches only its own slot, so applying it first
    changes no other firing.  :attr:`consumers_applied` counts them; the
    engine adds them to its completions.

    **Certified-quiet Scheduling_Func ticks.**  While :attr:`armed`, the
    gate asks :meth:`quiet_tick` after its timeslice accounting, and on
    a certified tick returns without building views or calling the
    algorithm.  The marking half of that certificate is the one
    :meth:`max_skip` checks first (:meth:`_refuse_marking`), and the
    algorithm is asked ``quiet_ticks(..., limit=1)`` for the one tick.

    Only the compiled engine arms the two per-tick shortcuts, in a
    ``run`` with fast-forward on and no impulse reward; ``step()`` and
    the rescan engine fire every activity and call the algorithm every
    tick.
    """

    __slots__ = (
        "_model",
        "_pcpus",
        "_timestamp",
        "_slot_values",
        "_timeslices",
        "_pcpu_refs",
        "_health",
        "_hv_debts",
        "_total",
        "_span",
        "_busy",
        "_ready",
        "_critical",
        "_now",
        "clock",
        "per_tick_completions",
        "armed",
        "consumers_applied",
        "_refusal",
    )

    def __init__(
        self,
        model: SANModel,
        clock: TimedActivity,
        timestamp: Place,
        pcpus: ExtendedPlace,
        slot_value_places: Sequence[ExtendedPlace],
        timeslice_places: Sequence[Place],
        pcpu_places: Sequence[ExtendedPlace],
        total_vcpus: int,
        health: Optional[ExtendedPlace] = None,
        hv_debts: Optional[ExtendedPlace] = None,
    ) -> None:
        self._model = model
        #: The Clock activity *object* — the engine matches the queue
        #: head by identity, which survives Join re-qualification.
        self.clock = clock
        self._timestamp = timestamp
        self._pcpus = pcpus
        self._slot_values = list(slot_value_places[:total_vcpus])
        self._timeslices = list(timeslice_places[:total_vcpus])
        self._pcpu_refs = list(pcpu_places[:total_vcpus])
        self._health = health
        self._hv_debts = hv_debts
        self._total = total_vcpus
        #: Completions per coalesced tick: Clock + Scheduling_Func +
        #: exactly one tick consumer per plugged slot.
        self.per_tick_completions = total_vcpus + 2
        self._span: List[int] = []
        self._busy: List[int] = []
        self._ready: List[int] = []
        self._critical = 0
        self._now = 0.0
        #: Set by the engine for the length of a run: the fan-out applies
        #: certified consumers and the gate skips certified-quiet ticks.
        self.armed = False
        #: Tick consumers the fan-out applied itself, over the model's life.
        self.consumers_applied = 0
        self._refusal: Optional[str] = None

    def _certifier(self) -> SchedulingAlgorithm:
        """The algorithm a skipped tick stands in for."""
        guard = self._model.guard
        if guard is not None and guard.fallback is not None:
            return guard.fallback
        return self._model.algorithm

    def _refuse_marking(self) -> Optional[str]:
        """The marking half of the certificate; None when it holds.

        Every PCPU ASSIGNED at pristine health with no maintenance and
        nothing due, every holder BUSY or READY, every other slot
        INACTIVE.  Records the holders (and which are BUSY or READY) for
        the algorithm's certificate and :meth:`apply`, and whether any
        slot is inside a critical section.  Reads peek, so a check made
        inside a completion stales no gate.
        """
        for entry in self._pcpus.peek():
            if entry["state"] != PCPUState.ASSIGNED:
                return REFUSED_PCPU
        if self._health is not None:
            for entry in self._health.peek():
                if entry["health"] or entry["maint"] or entry["due"]:
                    return REFUSED_HEALTH
        span = self._span
        busy = self._busy
        ready = self._ready
        del span[:], busy[:], ready[:]
        critical = 0
        pcpu_refs = self._pcpu_refs
        for g, place in enumerate(self._slot_values):
            slot = place.peek()
            status = slot["status"]
            critical |= slot["critical"]
            if pcpu_refs[g].peek() is None:
                if status != VCPUStatus.INACTIVE:
                    return REFUSED_VCPU
                continue
            if status == VCPUStatus.BUSY:
                busy.append(g)
            elif status == VCPUStatus.READY:
                ready.append(g)
            else:
                return REFUSED_VCPU
            span.append(g)
        self._critical = critical
        return None

    def max_skip(self, limit: int) -> int:
        """Ticks certifiably skippable from the current marking (0 = none).

        ``limit`` (at least 2) is the engine's own bound (horizon and
        other pending events); the result never exceeds it, and a span
        shorter than 2 ticks is refused, since coalescing it buys
        nothing.  Called at quiescence under a read sink, so every read
        is pure observation.  Also records the holders and the current
        timestamp, for :meth:`apply`.
        """
        refusal = self._refuse_marking()
        if refusal is None and self._hv_debts is not None:
            for debt in self._hv_debts.peek():
                if debt:
                    refusal = REFUSED_DEBT
                    break
        if refusal is None and self._critical:
            refusal = REFUSED_CRITICAL
        if refusal is not None:
            self._refusal = refusal
            return 0
        bound = limit
        slot_values = self._slot_values
        timeslices = self._timeslices
        for g in self._busy:
            room = min(
                slot_values[g].peek()["remaining_load"], timeslices[g].tokens
            ) - 1
            if room < bound:
                bound = room
        for g in self._ready:
            room = timeslices[g].tokens - 1
            if room < bound:
                bound = room
        if bound < 2:
            self._refusal = _REFUSED_ROOM
            return 0
        self._now = float(self._timestamp.tokens)
        quiet = self._certifier().quiet_ticks(
            self._span, self._model.slot_map, self._now, bound, self._ready
        )
        if quiet < 2:
            self._refusal = REFUSED_QUIET
        return quiet

    def refusal_reason(self) -> str:
        """Why the last :meth:`max_skip` refused, from the marking it saw.

        Asked only by a profiled run, straight after the refusal; tells
        a load completion from a timeslice expiry only here, so the
        unprofiled refusal does no extra work.
        """
        if self._refusal != _REFUSED_ROOM:
            return self._refusal
        min_load = min(
            (self._slot_values[g].peek()["remaining_load"] for g in self._busy),
            default=None,
        )
        min_timeslice = min(self._timeslices[g].tokens for g in self._span)
        if min_load is not None and min_load <= min_timeslice:
            return REFUSED_LOAD
        return REFUSED_EXPIRY

    def apply(self, k: int) -> None:
        """Net marking change of ``k`` countdown ticks.

        Per tick: ``Timestamp`` gains a token (Clock), every holder's
        timeslice drops by one (Scheduling_Func accounting) and a BUSY
        holder's remaining load drops by one (Processing_load; a READY
        holder's tick goes to Discard_tick).  Tick and Sched_tick tokens
        are deposited and consumed within each tick, so their net change
        is zero.
        """
        self._timestamp.add(k)
        for g in self._span:
            self._timeslices[g].remove(k)
        for g in self._busy:
            slot = self._slot_values[g].value  # mutable ref: marks the cell written
            slot["remaining_load"] -= k
        self._skipped_calls(self._now, k)

    def quiet_tick(self, now: float) -> bool:
        """True when this tick's Scheduling_Func call would decide nothing.

        Asked by the gate after its timeslice accounting, at timestamp
        ``now``: the certificate of :meth:`max_skip` for this one tick —
        its marking half, and the algorithm's ``quiet_ticks`` with
        ``limit=1``.  Debts and critical sections need no check: the
        algorithm sees neither, and no span follows.  On True the call
        is skipped and its trace records emitted.
        """
        if self._refuse_marking() is not None:
            return False
        if self._certifier().quiet_ticks(
            self._span, self._model.slot_map, now - 1.0, 1, self._ready
        ) < 1:
            return False
        self._skipped_calls(now - 1.0, 1)
        return True

    def _skipped_calls(self, now: float, ticks: int) -> None:
        """What the ``ticks`` skipped algorithm calls after ``now`` leave behind."""
        guard = self._model.guard
        if guard is not None and guard.fallback is None:
            guard.consecutive_faults = 0
        if _trace._ACTIVE is not None:
            self._certifier().trace_quiet_ticks(
                self._span, self._model.slot_map, now, ticks
            )


def slot_places(index: int) -> Dict[str, str]:
    """Names of the per-slot places for global slot ``index`` (1-based)."""
    return {
        "schedule_in": f"VCPU{index}_Schedule_In",
        "schedule_out": f"VCPU{index}_Schedule_Out",
        "tick": f"VCPU{index}_Tick",
        "slot": f"VCPU{index}_slot",
        "timeslice": f"VCPU{index}_Timeslice",
        "last_in": f"VCPU{index}_Last_Scheduled_In",
        "pcpu": f"VCPU{index}_PCPU",
    }


def build_vcpu_scheduler(
    algorithm: SchedulingAlgorithm,
    num_pcpus: int,
    topology: Sequence[int],
    num_slots: int = DEFAULT_NUM_SLOTS,
    name: str = SCHEDULER_NAME,
    degradation: Optional[DegradationModel] = None,
    maintenance: Optional[MaintenancePolicy] = None,
    hv_overhead: Optional[HVOverheadModel] = None,
    streams: Optional[StreamFactory] = None,
) -> SANModel:
    """Construct the hypervisor VCPU-scheduler model.

    Args:
        algorithm: the plugged scheduling algorithm (fresh per
            replication; the framework never resets it for you).
        num_pcpus: number of physical CPUs (>= 1).
        topology: VCPUs per VM, e.g. ``[2, 1, 1]`` — global slots are
            assigned to VMs in order (VM 0 takes slots 1..2, ...).
        num_slots: statically defined VCPU slots (paper default: 16).
        name: model name (``"VCPU_Scheduler"`` by convention).
        degradation: optional multi-state Markov health model.
        maintenance: optional repair policy (requires ``degradation``).
        hv_overhead: optional per-world-switch hypervisor cost.
        streams: random streams for the degradation case draws (the
            which-state-next choice is a *case* decision made in an
            output gate, outside the simulator's per-activity delay
            streams); default: seed 0, replication 0.

    Returns:
        A :class:`repro.san.SANModel` exposing, per plugged slot *g*,
        the join places ``VCPU<g>_Schedule_In``, ``VCPU<g>_Schedule_Out``,
        ``VCPU<g>_Tick``, and ``VCPU<g>_slot``, plus ``Num_PCPUs``,
        ``PCPUs``, and ``Timestamp``.
    """
    if num_pcpus < 1:
        raise ModelError(f"need at least one PCPU, got {num_pcpus}")
    if not topology or any(n < 1 for n in topology):
        raise ModelError(f"topology must list >= 1 VCPU per VM, got {topology!r}")
    total_vcpus = sum(topology)
    if total_vcpus > num_slots:
        raise ModelError(
            f"{total_vcpus} VCPUs exceed the {num_slots} statically defined "
            "slots; pass a larger num_slots (the paper: 'more VCPU slots can "
            "be easily added')"
        )
    if not isinstance(algorithm, SchedulingAlgorithm):
        raise ModelError(
            "algorithm must be a SchedulingAlgorithm, got "
            f"{type(algorithm).__name__}"
        )
    if maintenance is not None and degradation is None:
        raise ConfigurationError(
            "a maintenance policy needs a degradation model to repair"
        )
    if degradation is not None and degradation.initial_health is not None:
        if len(degradation.initial_health) != num_pcpus:
            raise ConfigurationError(
                f"initial_health lists {len(degradation.initial_health)} "
                f"entries for {num_pcpus} PCPUs"
            )
    if (
        maintenance is not None
        and maintenance.policy == "condition_based"
        and maintenance.threshold > degradation.h_max
    ):
        raise ConfigurationError(
            f"condition_based threshold {maintenance.threshold} exceeds "
            f"h_max {degradation.h_max}; the trigger would never fire "
            "below terminal failure"
        )
    if hv_overhead is not None and not hv_overhead.enabled:
        hv_overhead = None

    model = SANModel(name)
    timestamp = model.add_place(Place("Timestamp"))
    sched_tick = model.add_place(Place("Sched_tick"))
    model.add_place(Place("Num_PCPUs", initial=num_pcpus))

    def initial_pcpu_entry(i: int) -> Dict[str, Optional[str]]:
        # A PCPU configured to start at terminal health is out of
        # service from t=0 (the forced-degradation test hook).
        if degradation is not None and degradation.health_at(i) >= degradation.h_max:
            return {"state": PCPUState.FAILED, "vcpu": None}
        return new_pcpu_entry()

    pcpus = model.add_place(
        ExtendedPlace("PCPUs", [initial_pcpu_entry(i) for i in range(num_pcpus)])
    )

    # -- degradation-extension state ----------------------------------------
    # One health record per PCPU: current Markov state, the leaky-bucket
    # accumulator of withheld capacity, the in-maintenance and
    # periodic-overhaul-due flags, and whether a *runtime* terminal
    # failure was announced (so maintenance knows to announce the
    # matching repair; initially-terminal PCPUs never announced a fail).
    health: Optional[ExtendedPlace] = None
    capacity: List[float] = []
    matrix: List[List[float]] = []
    if degradation is not None:
        capacity = degradation.effective_capacity()
        matrix = degradation.effective_matrix()
        health = model.add_place(
            ExtendedPlace(
                "PCPU_Health",
                [
                    {
                        "health": degradation.health_at(i),
                        "acc": 0.0,
                        "maint": 0,
                        "due": 0,
                        "failed": 0,
                    }
                    for i in range(num_pcpus)
                ],
            )
        )
    # Outstanding hypervisor ticks per slot: set to the world-switch
    # cost at every schedule-in, burned down before guest ticks flow.
    hv_debts: Optional[ExtendedPlace] = None
    hv_cost = 0
    if hv_overhead is not None:
        hv_cost = hv_overhead.cost
        hv_debts = model.add_place(
            ExtendedPlace("HV_Debts", [0] * total_vcpus)
        )
    crews: Optional[Place] = None
    if maintenance is not None:
        crews = model.add_place(Place("Repair_Crews", initial=maintenance.crews))

    # Global slot map: slot index (1-based) -> (vm_id, vcpu_index).
    slot_map: List[Tuple[int, int]] = []
    for vm_id, count in enumerate(topology):
        for vcpu_index in range(count):
            slot_map.append((vm_id, vcpu_index))

    schedule_in_places: List[Place] = []
    schedule_out_places: List[Place] = []
    tick_places: List[Place] = []
    slot_value_places: List[ExtendedPlace] = []
    timeslice_places: List[Place] = []
    last_in_places: List[ExtendedPlace] = []
    pcpu_places: List[ExtendedPlace] = []

    for index in range(1, num_slots + 1):
        names = slot_places(index)
        plugged = index <= total_vcpus
        schedule_in_places.append(model.add_place(Place(names["schedule_in"])))
        schedule_out_places.append(model.add_place(Place(names["schedule_out"])))
        tick_places.append(model.add_place(Place(names["tick"])))
        slot_value_places.append(
            model.add_place(
                ExtendedPlace(names["slot"], new_slot() if plugged else None)
            )
        )
        timeslice_places.append(model.add_place(Place(names["timeslice"])))
        last_in_places.append(model.add_place(ExtendedPlace(names["last_in"], -1.0)))
        pcpu_places.append(model.add_place(ExtendedPlace(names["pcpu"], None)))

    # -- Clock: the unit-time heartbeat -------------------------------------

    def consume_directly(g: int) -> bool:
        """Apply slot g's tick consumer here, when it is certain.

        Only while the engine arms ``fast`` (see :class:`ClockFastForward`):
        a slot that is not BUSY would fire ``Discard_tick``, whose net
        effect is nothing; an assigned BUSY slot outside a critical
        section with more than one tick of load left would fire
        ``Processing_load``, whose effect is one tick less load.  Any
        other slot gets its tick token and fires as usual.
        """
        slot = slot_value_places[g].peek()
        if slot["status"] != VCPUStatus.BUSY:
            return True
        if (
            slot["critical"]
            or slot["remaining_load"] < 2
            or pcpu_places[g].peek() is None
        ):
            return False
        slot_value_places[g].value["remaining_load"] -= 1
        return True

    # The fan-out.  A slot holding a PCPU only receives its tick when
    # (a) no hypervisor world-switch debt is outstanding for it and (b)
    # the host core's leaky bucket delivers: per tick the bucket gains
    # ``capacity[h]`` and a whole tick flows to the guest each time it
    # reaches 1.  Unassigned slots always get their tick (their consumer
    # is Discard_tick).  Without health or overhead places every slot
    # gets its tick.  Timeslice accounting in Scheduling_Func still runs
    # on *wall-clock* ticks, so a degraded tenure does strictly less
    # guest work.

    def tick_fanout() -> None:
        # Peek, and take ``.value`` (a write) only where a debt or a
        # degraded core's bucket changes: a pristine tick must not
        # re-stale the health and maintenance gates.  A withheld tick
        # has no consumer; a delivered one may be consumed directly.
        timestamp.add()
        health_entries = health.peek() if health is not None else None
        debts = hv_debts.peek() if hv_debts is not None else None
        armed = fast.armed
        applied = 0
        for g in range(total_vcpus):
            pcpu_index = pcpu_places[g].peek()
            if pcpu_index is not None:
                if debts is not None and debts[g] > 0:
                    hv_debts.value[g] -= 1
                    continue
                if health_entries is not None:
                    h = health_entries[pcpu_index]["health"]
                    if h:
                        entry = health.value[pcpu_index]
                        acc = entry["acc"] + capacity[h]
                        if acc < 1.0:
                            entry["acc"] = acc
                            continue
                        entry["acc"] = acc - 1.0
            if armed and consume_directly(g):
                applied += 1
            else:
                tick_places[g].add()
        if applied:
            fast.consumers_applied += applied
        sched_tick.add()

    clock = model.add_activity(
        TimedActivity(
            "Clock",
            Deterministic(1),
            input_gates=[InputGate("Always", expr=E.TRUE)],
            output_gates=[OutputGate("Tick_fanout", tick_fanout)],
        )
    )

    # -- Scheduling_Func: timeslice accounting + the plugged algorithm ------

    def _deschedule(g: int, reason: str = _trace.OUT_DECISION) -> None:
        """Free slot g's PCPU and notify its VCPU model."""
        pcpu_index = pcpu_places[g].value
        pcpus.value[pcpu_index] = new_pcpu_entry()
        pcpu_places[g].value = None
        timeslice_places[g].tokens = 0
        if hv_debts is not None:
            hv_debts.value[g] = 0
        schedule_out_places[g].add()
        tracer = _trace._ACTIVE
        if tracer is not None:
            vm_id, vcpu_index = slot_map[g]
            tracer.emit(_trace.SCHED_OUT, vcpu=g, vm=vm_id,
                        vcpu_index=vcpu_index, pcpu=pcpu_index, reason=reason)

    def _assign(g: int, pcpu_index: int, timeslice: int, now: float) -> None:
        """Assign a PCPU to slot g and notify its VCPU model."""
        pcpus.value[pcpu_index] = {"state": PCPUState.ASSIGNED, "vcpu": g}
        pcpu_places[g].value = pcpu_index
        timeslice_places[g].tokens = timeslice
        last_in_places[g].value = now
        if hv_debts is not None:
            hv_debts.value[g] = hv_cost
        schedule_in_places[g].add()
        tracer = _trace._ACTIVE
        if tracer is not None:
            vm_id, vcpu_index = slot_map[g]
            tracer.emit(_trace.SCHED_IN, vcpu=g, vm=vm_id,
                        vcpu_index=vcpu_index, pcpu=pcpu_index,
                        timeslice=timeslice)
            if hv_debts is not None:
                tracer.emit(_trace.HV_OVERHEAD, vcpu=g, pcpu=pcpu_index,
                            cost=hv_cost)

    def _out_of_service(i: int, reason: str) -> Optional[int]:
        """Mark PCPU i FAILED, descheduling its holder; returns the victim."""
        entry = pcpus.value[i]
        victim = None
        if entry["state"] == PCPUState.ASSIGNED:
            victim = entry["vcpu"]
            _deschedule(victim, reason=reason)
        pcpus.value[i] = {"state": PCPUState.FAILED, "vcpu": None}
        return victim

    # -- degradation extension: Markov health, maintenance, crews -----------

    if degradation is not None:
        h_max = degradation.h_max
        case_streams = streams if streams is not None else StreamFactory()
        stream_bindings: List[Tuple[str, object]] = []

        for pcpu_index in range(num_pcpus):
            # The which-state-next draw is a *case* decision in the
            # output gate; it gets its own named stream (separate from
            # the activity's delay stream, which the simulator binds by
            # qualified name) so trajectories survive model reuse.
            case_key = f"{name}.Degrade_case{pcpu_index}"
            case_rng = case_streams.stream(case_key)
            stream_bindings.append((case_key, case_rng))

            def degrade(i: int = pcpu_index, rng=case_rng) -> None:
                entry = health.value[i]
                h = entry["health"]
                row = matrix[h]
                draw = rng.random()
                cumulative = 0.0
                new_h = h
                for state, probability in enumerate(row):
                    cumulative += probability
                    if draw < cumulative:
                        new_h = state
                        break
                if new_h == h:
                    return
                entry["health"] = new_h
                entry["acc"] = 0.0
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.PCPU_DEGRADE, pcpu=i, from_health=h,
                                to_health=new_h, capacity=capacity[new_h])
                if new_h >= h_max:
                    # Terminal health is failure.
                    victim = _out_of_service(i, _trace.OUT_PCPU_FAILURE)
                    entry["failed"] = 1
                    if tracer is not None:
                        tracer.emit(_trace.PCPU_FAIL, pcpu=i, victim=victim)

            model.add_activity(
                TimedActivity(
                    f"Degrade_PCPU{pcpu_index}",
                    Exponential(1.0 / degradation.mtbe),
                    input_gates=[
                        InputGate(
                            f"Degradable{pcpu_index}",
                            expr=(E.field(health, pcpu_index, "health") < h_max)
                            & (E.field(health, pcpu_index, "maint") == 0),
                        )
                    ],
                    output_gates=[OutputGate(f"Degrade_gate{pcpu_index}", degrade)],
                )
            )

        model.stream_bindings = stream_bindings

    if maintenance is not None:
        policy = maintenance.policy
        threshold = maintenance.threshold
        h_max = degradation.h_max

        def maint_needed(i: int) -> E.Expr:
            h = E.field(health, i, "health")
            # Every policy repairs a dead core: corrective repair of
            # terminal failures is the baseline all policies build on.
            trigger = h >= h_max
            if policy == "condition_based":
                trigger = trigger | (h >= threshold)
            elif policy == "periodic":
                trigger = trigger | (E.field(health, i, "due") != 0)
            return (E.field(health, i, "maint") == 0) & trigger

        for pcpu_index in range(num_pcpus):

            def maint_start(i: int = pcpu_index) -> None:
                entry = health.value[i]
                crews.remove()
                entry["maint"] = 1
                entry["due"] = 0
                # Out of service for the repair's duration.
                victim = _out_of_service(i, _trace.OUT_MAINTENANCE)
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.MAINT_START, pcpu=i, policy=policy,
                                health=entry["health"], victim=victim)

            def maint_done(i: int = pcpu_index) -> None:
                entry = health.value[i]
                was_failed = entry["failed"]
                entry["health"] = 0
                entry["acc"] = 0.0
                entry["maint"] = 0
                entry["failed"] = 0
                pcpus.value[i] = new_pcpu_entry()
                crews.add()
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.MAINT_DONE, pcpu=i, policy=policy)
                    if was_failed:
                        # The matching pcpu.repair for the pcpu.fail a
                        # runtime terminal degrade announced (an
                        # initially-terminal PCPU announced no fail, so
                        # it gets no repair record either).
                        tracer.emit(_trace.PCPU_REPAIR, pcpu=i)

            model.add_activity(
                InstantaneousActivity(
                    f"Maint_Start{pcpu_index}",
                    priority=PRIORITY_MAINT,
                    input_gates=[
                        # The crew guard comes first, so the fused
                        # conjunction tests the policy only when a crew
                        # is free.
                        InputGate(
                            f"Maint_crew_free{pcpu_index}",
                            expr=E.tokens(crews) > 0,
                        ),
                        InputGate(
                            f"Maint_trigger{pcpu_index}",
                            expr=maint_needed(pcpu_index),
                        ),
                    ],
                    output_gates=[
                        OutputGate(f"Maint_start_gate{pcpu_index}", maint_start)
                    ],
                )
            )
            model.add_activity(
                TimedActivity(
                    f"Maint_Done{pcpu_index}",
                    Exponential(1.0 / maintenance.mttr),
                    input_gates=[
                        InputGate(
                            f"In_maintenance{pcpu_index}",
                            expr=E.field(health, pcpu_index, "maint") != 0,
                        )
                    ],
                    output_gates=[
                        OutputGate(f"Maint_done_gate{pcpu_index}", maint_done)
                    ],
                )
            )
            if policy == "periodic":

                def maint_due(i: int = pcpu_index) -> None:
                    entry = health.value[i]
                    if not entry["maint"]:
                        entry["due"] = 1

                model.add_activity(
                    TimedActivity(
                        f"Maint_Due{pcpu_index}",
                        Deterministic(maintenance.period),
                        input_gates=[
                            InputGate(f"Due_clock{pcpu_index}", expr=E.TRUE)
                        ],
                        output_gates=[
                            OutputGate(f"Maint_due_gate{pcpu_index}", maint_due)
                        ],
                    )
                )

    def run_scheduling_func() -> None:
        profiler = _profile._ACTIVE
        if profiler is not None:
            with profiler.section("vmm.scheduling_func"):
                if _run_scheduling_func():
                    profiler.count("vmm.quiet_ticks_skipped")
            return
        _run_scheduling_func()

    def _run_scheduling_func() -> bool:
        """One Scheduling_Func firing; True when the algorithm was skipped."""
        sched_tick.remove()
        now = float(timestamp.tokens)

        # 1. Timeslice accounting: expire VCPUs whose tenure ran out.
        for g in range(total_vcpus):
            if pcpu_places[g].peek() is None:
                continue
            remaining = timeslice_places[g].tokens - 1
            if remaining <= 0:
                _deschedule(g, reason=_trace.OUT_EXPIRE)
            else:
                timeslice_places[g].tokens = remaining

        # A certified-quiet tick decides nothing: skip the views, the
        # algorithm and the rule (compiled engine only; see
        # ClockFastForward.quiet_tick).
        if fast.armed and fast.quiet_tick(now):
            return True

        # The algorithm and its guard are resolved through the model each
        # tick, so cross-replication reuse can swap in fresh ones without
        # rebuilding these closures.  A quarantined algorithm's fallback
        # runs unguarded.
        algorithm = model.algorithm
        guard = model.guard
        if guard is not None and guard.fallback is not None:
            algorithm, guard = guard.fallback, None
        while True:
            # 2. Build the in/out view arrays the C interface passes.  The
            # views copy what they show, so every read here is a peek: an
            # observation must not invalidate the gates watching the
            # slots.  ``held`` and ``states`` keep the marking's own copy
            # of what the decisions are checked against: the algorithm
            # may rewrite views.
            views: List[VCPUHostView] = []
            held: List[Optional[int]] = []
            for g in range(total_vcpus):
                vm_id, vcpu_index = slot_map[g]
                slot = slot_value_places[g].peek()
                pcpu_index = pcpu_places[g].peek()
                held.append(pcpu_index)
                views.append(
                    VCPUHostView(
                        vcpu_id=g,
                        vm_id=vm_id,
                        vcpu_index=vcpu_index,
                        status=vcpu_status(pcpu_index, slot["remaining_load"]),
                        remaining_load=slot["remaining_load"],
                        sync_point=slot["sync_point"],
                        last_scheduled_in=last_in_places[g].peek(),
                        timeslice=timeslice_places[g].tokens,
                        pcpu=pcpu_index,
                    )
                )
            states = [entry["state"] for entry in pcpus.peek()]
            if health is None:
                pcpu_views = [
                    PCPUView(pcpu_id=i, state=entry["state"], vcpu=entry["vcpu"])
                    for i, entry in enumerate(pcpus.peek())
                ]
            else:
                health_entries = health.peek()
                pcpu_views = [
                    PCPUView(
                        pcpu_id=i,
                        state=entry["state"],
                        vcpu=entry["vcpu"],
                        health=health_entries[i]["health"],
                        capacity=capacity[health_entries[i]["health"]],
                    )
                    for i, entry in enumerate(pcpus.peek())
                ]

            # 3. Call the plugged scheduling function and check its
            # decisions.  Unguarded, a fault propagates; guarded, it is
            # recorded and the tick applies nothing, or it quarantines the
            # algorithm and the fallback decides this tick on fresh views.
            try:
                profiler = _profile._ACTIVE
                if profiler is None:
                    algorithm.schedule(views, len(views), pcpu_views, num_pcpus, now)
                else:
                    with profiler.section("vmm.algorithm"):
                        algorithm.schedule(
                            views, len(views), pcpu_views, num_pcpus, now
                        )
                outs, ins = resolve_decisions(
                    views, held, states, algorithm.timeslice, algorithm.name
                )
            except Exception as exc:  # noqa: BLE001 — isolating arbitrary user code
                if guard is None:
                    raise
                if guard.fault(exc, algorithm, now):
                    algorithm, guard = guard.fallback, None
                    continue
                return False
            if guard is not None:
                guard.consecutive_faults = 0
            break

        # 4. Apply: outs first, then ins.
        for g in outs:
            _deschedule(g)
        for g, pcpu_index, timeslice in ins:
            _assign(g, pcpu_index, timeslice, now)
        return False

    model.add_activity(
        InstantaneousActivity(
            "Scheduling_Func",
            priority=PRIORITY_SCHEDULER,
            input_gates=[InputGate("Sched_armed", expr=E.tokens(sched_tick) > 0)],
            output_gates=[OutputGate("Scheduling_Func_gate", run_scheduling_func)],
        )
    )

    # Metadata consumed by the Virtual System builder and the metrics.
    model.slot_map = slot_map
    model.total_vcpus = total_vcpus
    model.num_pcpus = num_pcpus
    model.algorithm = algorithm
    #: The replication's :class:`~repro.resilience.guard.GuardState`, or
    #: None: the framework sets it on every build and reuse checkout.
    model.guard = None
    model.degradation = degradation
    model.maintenance = maintenance
    model.hv_overhead = hv_overhead
    if degradation is None:
        model.stream_bindings = []
    # The fan-out and the gate above read ``fast`` when they run.
    fast = model.tick_fast_forward = ClockFastForward(
        model,
        clock,
        timestamp,
        pcpus,
        slot_value_places,
        timeslice_places,
        pcpu_places,
        total_vcpus,
        health=health,
        hv_debts=hv_debts,
    )
    return model
