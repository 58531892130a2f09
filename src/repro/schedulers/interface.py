"""The pluggable VCPU-scheduling interface.

The paper's framework exports a C function-call interface from the
``Scheduling_Func`` output gate::

    bool schedule(VCPU_host_external* vcpus, int num_vcpu,
                  PCPU_external* pcpus, int num_pcpu, long timestamp)

where ``vcpus`` / ``pcpus`` are in/out arrays reflecting the state of
every VCPU place and PCPU before and after the call.  This module is
the Python equivalent: :class:`VCPUHostView` and :class:`PCPUView` are
the mutable array elements, and :class:`SchedulingAlgorithm.schedule`
has the same signature and in/out contract.  A user plugs in a new
algorithm by subclassing :class:`SchedulingAlgorithm` (or wrapping a
bare function with :class:`FunctionScheduler`) — no knowledge of SANs
required, exactly as the paper intends.

Decision protocol (per hypervisor clock tick):

* the framework first decrements timeslices and force-relinquishes
  expired VCPUs (that happens *before* the call, in the scheduler
  model's clock gate, as in the paper);
* the algorithm then inspects the views and sets, on any view,
  ``schedule_out = True`` (relinquish the PCPU now) and/or
  ``schedule_in = True`` (assign a PCPU now, optionally choosing
  ``pcpu`` and ``timeslice``);
* the framework checks and applies them with :func:`resolve_decisions`;
  an inconsistent tick raises :class:`repro.errors.SchedulingError`
  and applies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SchedulingError


class VCPUStatus:
    """VCPU states, as defined in the paper (Section III.B.2).

    READY and BUSY are the ACTIVE states (a PCPU is assigned); INACTIVE
    means no PCPU — possibly mid-workload (``remaining_load > 0``) or
    holding a synchronization point.
    """

    READY = "READY"
    BUSY = "BUSY"
    INACTIVE = "INACTIVE"

    ALL = (READY, BUSY, INACTIVE)
    ACTIVE = (READY, BUSY)


class PCPUState:
    """PCPU states, as in the paper's PCPU array.

    ``FAILED`` extends the paper for the dependability extension: a
    failed PCPU is out of service (never idle, never assignable) until
    its repair completes.
    """

    IDLE = "IDLE"
    ASSIGNED = "ASSIGNED"
    FAILED = "FAILED"


@dataclass
class VCPUHostView:
    """One element of the ``vcpus`` in/out array (``VCPU_host_external``).

    Input fields (framework -> algorithm):
        vcpu_id: global index into the array.
        vm_id: which VM this VCPU belongs to.
        vcpu_index: position within its VM (0-based).
        status: one of :class:`VCPUStatus`.
        remaining_load: ticks of work left on the current workload.
        sync_point: 1 if the current workload carries a barrier.
        last_scheduled_in: timestamp of the most recent PCPU assignment.
        timeslice: remaining timeslice ticks (0 when INACTIVE).
        pcpu: id of the assigned PCPU, or None.

    Output fields (algorithm -> framework):
        schedule_in: request a PCPU assignment this tick.
        schedule_out: relinquish the PCPU this tick.
        next_timeslice: timeslice granted with schedule_in (None = the
            framework default).
        next_pcpu: specific PCPU requested with schedule_in (None = any
            free one).
    """

    vcpu_id: int
    vm_id: int
    vcpu_index: int
    status: str = VCPUStatus.INACTIVE
    remaining_load: int = 0
    sync_point: int = 0
    last_scheduled_in: float = -1.0
    timeslice: int = 0
    pcpu: Optional[int] = None
    schedule_in: bool = field(default=False)
    schedule_out: bool = field(default=False)
    next_timeslice: Optional[int] = None
    next_pcpu: Optional[int] = None

    @property
    def active(self) -> bool:
        """True while the VCPU holds a PCPU (READY or BUSY)."""
        return self.status in VCPUStatus.ACTIVE


@dataclass
class PCPUView:
    """One element of the ``pcpus`` in/out array (``PCPU_external``).

    ``health`` and ``capacity`` carry the degradation extension's
    scheduler-visible signals: health 0 is pristine and ``capacity`` is
    the fraction of clock ticks the core currently delivers to its
    guest (1.0 on an undegraded host, so algorithms written against the
    paper's idealized model keep working unchanged).
    """

    pcpu_id: int
    state: str = PCPUState.IDLE
    vcpu: Optional[int] = None
    health: int = 0
    capacity: float = 1.0

    @property
    def idle(self) -> bool:
        return self.state == PCPUState.IDLE

    @property
    def degraded(self) -> bool:
        """True when the core is delivering less than full capacity."""
        return self.health > 0


class SchedulingAlgorithm:
    """Base class for pluggable VCPU scheduling algorithms.

    Subclasses implement :meth:`schedule` and may keep internal state
    across ticks (run queues, skew counters, ...); :meth:`reset` must
    clear that state so one algorithm instance can serve many
    replications.

    Attributes:
        name: registry key; subclasses override.
        timeslice: default timeslice (ticks) granted on schedule_in when
            the algorithm does not set ``next_timeslice``.
        tick_skip_safe: a subclass sets this True to certify that its
            ``schedule()`` makes no decision and mutates no internal
            state on a tick where every PCPU is ASSIGNED to an ACTIVE
            (BUSY or READY) VCPU and every other VCPU is INACTIVE — the
            precondition under which the compiled engine may coalesce
            clock ticks (see
            :class:`repro.vmm.vcpu_scheduler.ClockFastForward`).  A
            holder that is READY (no load) counts: an algorithm that
            reacts to READY holders (fifo releases them) must refuse
            such spans in :meth:`quiet_ticks`.  The flag is what the
            default :meth:`quiet_ticks` consults.
            Algorithms whose per-tick bookkeeping can be replayed in
            closed form (skew accounting) leave it False and override
            :meth:`quiet_ticks` instead; algorithms that cannot (deadline
            rollover) leave both alone.  A wrapper that does not
            re-declare the flag (chaos) disables fast-forward; a decision
            guard does not.  The same certificate, asked with
            ``limit=1``, lets the engine skip one executed tick's call.
    """

    name = "abstract"
    tick_skip_safe = False

    def __init__(self, timeslice: int = 30) -> None:
        if timeslice < 1:
            raise SchedulingError(f"timeslice must be >= 1, got {timeslice}")
        self.timeslice = int(timeslice)
        # Monotone dispatch counter per VCPU.  When several timeslices
        # expire in the same tick, re-enqueueing in *dispatch* order (not
        # VCPU-id order) is what keeps a round-robin rotation fair — see
        # requeue_order().
        self._dispatch_order: Dict[int, int] = {}
        self._dispatch_counter = 0

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        """Make this tick's scheduling decision by mutating the views.

        Returns:
            True if any decision was made (mirrors the C interface's
            bool return; the framework only uses it for diagnostics).
        """
        raise NotImplementedError

    def quiet_ticks(
        self,
        active: Sequence[int],
        slot_map: Sequence[Tuple[int, int]],
        now: float,
        limit: int,
        ready: Sequence[int] = (),
    ) -> int:
        """How many of the next ``limit`` ticks certifiably decide nothing.

        Asked by the clock fast-forward only in a marking where every
        PCPU is ASSIGNED, every VCPU in ``active`` (slot indices, i.e.
        ``vcpu_id``) holds one and keeps its status for the whole span,
        every other VCPU is INACTIVE, and no timeslice expires and no
        load completes within ``limit`` ticks.  ``ready`` lists the
        members of ``active`` that are READY (they hold a PCPU with no
        load); the rest are BUSY.  ``slot_map`` maps each VCPU id to its
        ``(vm_id, vcpu_index)``; ``now`` is the timestamp of the last
        tick, so the candidate ticks are ``now + 1 .. now + limit``.

        It is also asked for one executed tick, with ``limit=1``, by
        the ``Scheduling_Func`` gate after its timeslice accounting,
        in the same kind of marking as the tick's ``schedule()`` call
        would see it (a load may have completed on that tick, so its
        VCPU is in ``ready``); returning 1 skips that call.

        Returning ``j`` certifies that :meth:`schedule` would make no
        decision on the first ``j`` of them, *and* that not calling it
        for those ticks at all leaves the algorithm exactly where the
        calls would have: the skip writes no algorithm state.  The
        default trusts :attr:`tick_skip_safe`.
        """
        return limit if self.tick_skip_safe else 0

    def trace_quiet_ticks(
        self,
        active: Sequence[int],
        slot_map: Sequence[Tuple[int, int]],
        now: float,
        ticks: int,
    ) -> None:
        """Emit the records :meth:`schedule` would have traced on skipped ticks.

        Called with a tracer active after the fast-forward commits a
        span that :meth:`quiet_ticks` certified; the arguments are the
        ones it was asked with, and ``ticks`` is the span length.  The
        default emits nothing — a ``tick_skip_safe`` algorithm traces
        only decisions, and a quiet tick has none.
        """

    def reset(self) -> None:
        """Clear internal state between replications.

        Subclasses with their own state must call ``super().reset()``.
        """
        self._dispatch_order.clear()
        self._dispatch_counter = 0

    # -- shared helpers for concrete algorithms ---------------------------

    @staticmethod
    def free_pcpu_count(pcpus: List[PCPUView]) -> int:
        """Number of currently idle PCPUs."""
        return sum(1 for p in pcpus if p.idle)

    @staticmethod
    def by_vm(vcpus: List[VCPUHostView]) -> Dict[int, List[VCPUHostView]]:
        """Group the VCPU views by VM id, preserving array order."""
        groups: Dict[int, List[VCPUHostView]] = {}
        for view in vcpus:
            groups.setdefault(view.vm_id, []).append(view)
        return groups

    def start(self, view: VCPUHostView, timeslice: Optional[int] = None,
              pcpu: Optional[int] = None) -> None:
        """Mark a view for schedule-in with the given (or default) timeslice."""
        view.schedule_in = True
        view.next_timeslice = timeslice if timeslice is not None else self.timeslice
        view.next_pcpu = pcpu
        self._dispatch_order[view.vcpu_id] = self._dispatch_counter
        self._dispatch_counter += 1

    @staticmethod
    def stop(view: VCPUHostView) -> None:
        """Mark a view for schedule-out."""
        view.schedule_out = True

    def requeue_order(self, views: List[VCPUHostView]) -> List[VCPUHostView]:
        """Sort views for (re-)enqueueing: earliest-dispatched first.

        Never-dispatched VCPUs sort before any dispatched one (they have
        waited "forever"), in id order among themselves.
        """
        return sorted(
            views,
            key=lambda v: (self._dispatch_order.get(v.vcpu_id, -1), v.vcpu_id),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(timeslice={self.timeslice})"


def vcpu_status(pcpu: Optional[int], remaining_load: int) -> str:
    """A VCPU's status from the PCPU it holds and its pending work."""
    if pcpu is None:
        return VCPUStatus.INACTIVE
    if remaining_load > 0:
        return VCPUStatus.BUSY
    return VCPUStatus.READY


def clear_decisions(vcpus: List[VCPUHostView]) -> None:
    """Reset every output field a schedule call may have set."""
    for view in vcpus:
        view.schedule_in = False
        view.schedule_out = False
        view.next_timeslice = None
        view.next_pcpu = None


def resolve_decisions(
    vcpus: Sequence[VCPUHostView],
    held: Mapping[int, Optional[int]],
    states: Sequence[str],
    default_timeslice: int,
    algorithm_name: str,
) -> Tuple[List[int], List[Tuple[int, int, int]]]:
    """Check one tick's decisions and return the plan that applies them.

    The one decision rule: the ``Scheduling_Func`` gate (which also
    enforces the decision guard), the
    :class:`~repro.schedulers.harness.SchedulerHarness` and
    :func:`validate_decisions` all run it.  Decisions come from the
    views' output fields; the state they are checked against is the
    caller's: ``held[vcpu_id]`` is the PCPU that VCPU holds, or None (a
    list indexed by VCPU id will do), and ``states`` lists every PCPU's
    state.

    Returns:
        ``(outs, ins)``: the VCPU ids to deschedule, then one
        ``(vcpu_id, pcpu, timeslice)`` per schedule-in, with the default
        PCPU (the lowest IDLE one once the outs and earlier ins apply)
        and the default timeslice filled in.  Applying the outs, then
        the ins in order, is exactly what was checked.

    Raises:
        SchedulingError: naming the first inconsistent decision (see
            ``tests/schedulers/test_decision_rule.py`` for each message);
            a rejected tick plans nothing.
    """
    decided = [view for view in vcpus if view.schedule_in or view.schedule_out]
    if not decided:
        return [], []
    for view in decided:
        if view.schedule_in and view.schedule_out:
            raise SchedulingError(
                f"{algorithm_name}: VCPU {view.vcpu_id} marked for both "
                "schedule_in and schedule_out in one tick"
            )
    states = list(states)
    outs: List[int] = []
    for view in decided:
        if not view.schedule_out:
            continue
        pcpu = held[view.vcpu_id]
        if pcpu is None:
            raise SchedulingError(
                f"{algorithm_name}: schedule_out for VCPU {view.vcpu_id}, "
                "which holds no PCPU"
            )
        states[pcpu] = PCPUState.IDLE
        outs.append(view.vcpu_id)
    ins: List[Tuple[int, int, int]] = []
    for view in decided:
        if not view.schedule_in:
            continue
        if held[view.vcpu_id] is not None:
            raise SchedulingError(
                f"{algorithm_name}: schedule_in for VCPU {view.vcpu_id}, "
                "which already holds a PCPU"
            )
        target = view.next_pcpu
        if target is None:
            if PCPUState.IDLE not in states:
                raise SchedulingError(
                    f"{algorithm_name}: schedule_in for VCPU {view.vcpu_id} "
                    "but no PCPU is free (over-commitment in one tick)"
                )
            target = states.index(PCPUState.IDLE)
        elif not 0 <= target < len(states):
            raise SchedulingError(
                f"{algorithm_name}: VCPU {view.vcpu_id} requested PCPU "
                f"{target}, outside 0..{len(states) - 1}"
            )
        elif states[target] != PCPUState.IDLE:
            which = "FAILED" if states[target] == PCPUState.FAILED else "not idle"
            raise SchedulingError(
                f"{algorithm_name}: VCPU {view.vcpu_id} requested PCPU "
                f"{target}, which is {which}"
            )
        timeslice = view.next_timeslice
        if timeslice is None:
            timeslice = default_timeslice
        if timeslice < 1:
            raise SchedulingError(
                f"{algorithm_name}: VCPU {view.vcpu_id} granted a timeslice "
                f"of {timeslice}; must be >= 1"
            )
        states[target] = PCPUState.ASSIGNED
        ins.append((view.vcpu_id, target, timeslice))
    return outs, ins


def validate_decisions(
    vcpus: List[VCPUHostView],
    pcpus: List[PCPUView],
    num_pcpu: int,
    default_timeslice: int = 1,
    algorithm_name: str = "algorithm",
) -> None:
    """Check one tick's decisions without applying them.

    This *is* the ``Scheduling_Func`` gate's rule, :func:`resolve_decisions`,
    run against the state the views show.
    """
    held = {view.vcpu_id: view.pcpu for view in vcpus}
    states = [pcpus[i].state for i in range(num_pcpu)]
    resolve_decisions(vcpus, held, states, default_timeslice, algorithm_name)


ScheduleFunction = Callable[
    [List[VCPUHostView], int, List[PCPUView], int, float], bool
]


class FunctionScheduler(SchedulingAlgorithm):
    """Adapts a bare function to the algorithm interface.

    This is the closest analogue of the paper's "write a C function"
    workflow: a user writes one function with the standard signature and
    plugs it in without subclassing anything.

    Example:
        >>> def greedy(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        ...     free = sum(1 for p in pcpus if p.idle)
        ...     for v in vcpus:
        ...         if free == 0:
        ...             break
        ...         if not v.active:
        ...             v.schedule_in, v.next_timeslice = True, 10
        ...             free -= 1
        ...     return True
        >>> algo = FunctionScheduler("greedy", greedy)
    """

    def __init__(self, name: str, fn: ScheduleFunction, timeslice: int = 30) -> None:
        super().__init__(timeslice)
        if not callable(fn):
            raise SchedulingError("FunctionScheduler needs a callable")
        self.name = name
        self._fn = fn

    def schedule(self, vcpus, num_vcpu, pcpus, num_pcpu, timestamp) -> bool:
        return bool(self._fn(vcpus, num_vcpu, pcpus, num_pcpu, timestamp))
