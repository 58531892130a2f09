"""Replay a trace against declarative scheduling invariants.

A :class:`TraceChecker` walks the records a :class:`~.trace.SimTracer`
collected (or a JSONL trace loaded back from disk) and checks the
properties the paper's schedulers are *supposed* to have — far
stronger assertions than reward-level tolerances:

* **mutual exclusion** — a PCPU never runs two VCPUs at once, never
  hosts a VCPU while FAILED, and schedule-out always matches an actual
  assignment;
* **strict co-scheduling** — under SCS, a VM's VCPUs are active
  all-or-none at every instant (gang co-start/co-stop);
* **bounded skew** — under RCS, the per-VM sibling lag the scheduler
  tracks never exceeds the configured skew bound (plus the bounded
  slack its catch-up reaction time allows);
* **timeslice accounting** — every residency fits its granted
  timeslice, expiry evicts after exactly the granted tenure, and
  per-PCPU busy time never exceeds elapsed time.

Invariants configure themselves from the trace's ``run.start`` record
(scheduler name, topology, scheduler parameters, failure model), so
``check_trace(records)`` is all a test needs.  Traces containing
several replications (one ``run.start`` each) are checked per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from . import trace as _trace
from .trace import RecordLike, TraceRecord, as_record

_EPS = 1e-9


@dataclass
class Violation:
    """One invariant breach found while replaying a trace."""

    time: float
    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] t={self.time:g}: {self.message}"


class Invariant:
    """Base class: feed records in order, collect violations.

    Subclasses override :meth:`on_record` (and optionally
    :meth:`finish` for end-of-trace checks) and must reset their
    per-replication state when a ``run.start`` record arrives.
    """

    name = "invariant"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def violation(self, time: float, message: str) -> None:
        self.violations.append(Violation(time=time, invariant=self.name,
                                         message=message))

    def on_record(self, record: TraceRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def finish(self) -> None:
        """Called once after the last record."""


class MonotoneTime(Invariant):
    """Timestamps never go backwards; sequence numbers strictly grow."""

    name = "monotone-time"

    def __init__(self) -> None:
        super().__init__()
        self._last_t: Optional[float] = None
        self._last_seq: Optional[int] = None

    def on_record(self, record: TraceRecord) -> None:
        if record.kind == _trace.RUN_START:
            self._last_t = None  # a new replication restarts the clock
        elif self._last_t is not None and record.t < self._last_t - _EPS:
            self.violation(record.t,
                           f"time went backwards: {self._last_t} -> {record.t}")
        self._last_t = record.t if self._last_t is None else max(self._last_t, record.t)
        if self._last_seq is not None and record.seq <= self._last_seq:
            self.violation(record.t,
                           f"seq not increasing: {self._last_seq} -> {record.seq}")
        self._last_seq = record.seq


class ExclusivePCPU(Invariant):
    """A PCPU hosts at most one VCPU, and never while FAILED."""

    name = "exclusive-pcpu"

    def __init__(self) -> None:
        super().__init__()
        self._reset()

    def _reset(self) -> None:
        self._holder: Dict[int, int] = {}   # pcpu -> vcpu
        self._held: Dict[int, int] = {}     # vcpu -> pcpu
        self._failed: set = set()
        self._maint: set = set()

    def on_record(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == _trace.RUN_START:
            self._reset()
        elif kind == _trace.SCHED_IN:
            vcpu, pcpu = record.get("vcpu"), record.get("pcpu")
            if pcpu in self._holder:
                self.violation(record.t,
                               f"PCPU {pcpu} assigned to VCPU {vcpu} while "
                               f"running VCPU {self._holder[pcpu]}")
            if pcpu in self._failed:
                self.violation(record.t,
                               f"VCPU {vcpu} scheduled onto FAILED PCPU {pcpu}")
            if pcpu in self._maint:
                self.violation(record.t,
                               f"VCPU {vcpu} scheduled onto PCPU {pcpu}, "
                               f"which is under maintenance")
            if vcpu in self._held:
                self.violation(record.t,
                               f"VCPU {vcpu} scheduled in while already on "
                               f"PCPU {self._held[vcpu]}")
            self._holder[pcpu] = vcpu
            self._held[vcpu] = pcpu
        elif kind == _trace.SCHED_OUT:
            vcpu, pcpu = record.get("vcpu"), record.get("pcpu")
            if self._held.get(vcpu) != pcpu:
                self.violation(record.t,
                               f"schedule_out of VCPU {vcpu} from PCPU {pcpu}, "
                               f"but it holds {self._held.get(vcpu)}")
            self._held.pop(vcpu, None)
            if self._holder.get(pcpu) == vcpu:
                del self._holder[pcpu]
        elif kind == _trace.PCPU_FAIL:
            pcpu = record.get("pcpu")
            if pcpu in self._holder:
                self.violation(record.t,
                               f"PCPU {pcpu} failed while still hosting "
                               f"VCPU {self._holder[pcpu]}")
            self._failed.add(pcpu)
        elif kind == _trace.PCPU_REPAIR:
            pcpu = record.get("pcpu")
            if pcpu not in self._failed:
                self.violation(record.t, f"repair of PCPU {pcpu}, which is not FAILED")
            self._failed.discard(pcpu)
        elif kind == _trace.MAINT_START:
            pcpu = record.get("pcpu")
            if pcpu in self._holder:
                self.violation(record.t,
                               f"maintenance started on PCPU {pcpu} while it "
                               f"still hosts VCPU {self._holder[pcpu]}")
            self._maint.add(pcpu)
        elif kind == _trace.MAINT_DONE:
            self._maint.discard(record.get("pcpu"))


class StrictCoScheduling(Invariant):
    """Under SCS, every VM's VCPUs are active all-or-none at all times.

    Checked at every timestamp boundary (within one instant the model
    applies co-stops before co-starts, so the mid-instant state may
    legitimately be mixed).  The invariant deactivates once a guard
    quarantine hands control to the round-robin fallback.
    """

    name = "strict-co-scheduling"

    def __init__(self, topology: List[int]) -> None:
        super().__init__()
        self._sizes = {vm_id: int(n) for vm_id, n in enumerate(topology)}
        self._reset()

    def _reset(self) -> None:
        self._active: Dict[int, set] = {}   # vm -> set of active vcpus
        self._pending_t: Optional[float] = None
        self._enabled = True

    def _check_boundary(self) -> None:
        if not self._enabled or self._pending_t is None:
            return
        for vm_id, active in self._active.items():
            size = self._sizes.get(vm_id, len(active))
            if active and len(active) != size:
                self.violation(
                    self._pending_t,
                    f"VM {vm_id} has {sorted(active)} active but siblings "
                    f"stopped (gang size {size})",
                )

    def on_record(self, record: TraceRecord) -> None:
        if record.kind == _trace.RUN_START:
            self._check_boundary()
            self._reset()
            return
        if self._pending_t is not None and record.t > self._pending_t + _EPS:
            self._check_boundary()
        self._pending_t = record.t
        if record.kind == _trace.SCHED_IN:
            self._active.setdefault(record.get("vm"), set()).add(record.get("vcpu"))
        elif record.kind == _trace.SCHED_OUT:
            self._active.get(record.get("vm"), set()).discard(record.get("vcpu"))
        elif record.kind == _trace.GUARD_QUARANTINE:
            self._enabled = False  # round-robin fallback is not gang-scheduled

    def finish(self) -> None:
        self._check_boundary()


class SkewBound(Invariant):
    """Under RCS, sibling lag stays within the configured skew bound.

    The scheduler trips catch-up when lag exceeds ``skew_threshold``;
    its reaction takes effect the following tick, and a mid-pack
    sibling may legally run on until its own lead passes
    ``relax_threshold`` — so the hard ceiling on observable lag is
    ``skew_threshold + relax_threshold`` plus two ticks of slack.
    """

    name = "skew-bound"

    def __init__(self, skew_threshold: float, relax_threshold: float) -> None:
        super().__init__()
        self.bound = float(skew_threshold) + float(relax_threshold) + 2.0

    def on_record(self, record: TraceRecord) -> None:
        if record.kind == _trace.SCHED_SKEW:
            max_lag = float(record.get("max_lag", 0.0))
            if max_lag > self.bound + _EPS:
                self.violation(
                    record.t,
                    f"VM {record.get('vm')} skew {max_lag:g} exceeds "
                    f"bound {self.bound:g}",
                )


class TimesliceAccounting(Invariant):
    """Residencies fit their grants; PCPU busy time fits elapsed time.

    * a residency never outlives its granted timeslice;
    * an ``expire`` eviction happens after *exactly* the granted tenure
      (the model decrements one tick per clock firing);
    * per PCPU, total busy time within a replication never exceeds the
      replication's elapsed time.
    """

    name = "timeslice-accounting"

    def __init__(self) -> None:
        super().__init__()
        self._reset()

    def _reset(self) -> None:
        self._open: Dict[int, TraceRecord] = {}   # vcpu -> sched.in record
        self._busy: Dict[int, float] = {}         # pcpu -> accumulated busy
        self._start_t: float = 0.0
        self._end_t: float = 0.0

    def _close_segment(self) -> None:
        for start in self._open.values():  # still running at end of segment
            pcpu = start.get("pcpu")
            self._busy[pcpu] = self._busy.get(pcpu, 0.0) + (self._end_t - start.t)
        elapsed = self._end_t - self._start_t
        for pcpu, busy in self._busy.items():
            if busy > elapsed + 1e-6:
                self.violation(
                    self._end_t,
                    f"PCPU {pcpu} accumulated {busy:g} busy ticks in "
                    f"{elapsed:g} elapsed ticks",
                )

    def on_record(self, record: TraceRecord) -> None:
        if record.kind == _trace.RUN_START:
            self._close_segment()
            self._reset()
            self._start_t = record.t
            self._end_t = record.t
            return
        self._end_t = max(self._end_t, record.t)
        if record.kind == _trace.SCHED_IN:
            self._open[record.get("vcpu")] = record
        elif record.kind == _trace.SCHED_OUT:
            vcpu = record.get("vcpu")
            start = self._open.pop(vcpu, None)
            if start is None:
                return  # exclusive-pcpu reports the pairing violation
            granted = start.get("timeslice")
            duration = record.t - start.t
            pcpu = start.get("pcpu")
            self._busy[pcpu] = self._busy.get(pcpu, 0.0) + duration
            if granted is not None and duration > granted + _EPS:
                self.violation(
                    record.t,
                    f"VCPU {vcpu} held PCPU {pcpu} for {duration:g} ticks "
                    f"on a {granted}-tick timeslice",
                )
            if (record.get("reason") == _trace.OUT_EXPIRE
                    and granted is not None
                    and abs(duration - granted) > _EPS):
                self.violation(
                    record.t,
                    f"VCPU {vcpu} expired after {duration:g} ticks, "
                    f"granted {granted}",
                )

    def finish(self) -> None:
        self._close_segment()


class CrewExclusivity(Invariant):
    """Maintenance jobs never exceed the bounded repair-crew pool.

    Every ``maint.start`` must pair with a later ``maint.done`` on the
    same PCPU, a PCPU is serviced by at most one crew at a time, and
    the number of concurrently open jobs never exceeds the configured
    crew count.
    """

    name = "crew-exclusivity"

    def __init__(self, crews: int) -> None:
        super().__init__()
        self.crews = int(crews)
        self._in_maint: set = set()

    def on_record(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == _trace.RUN_START:
            self._in_maint = set()
        elif kind == _trace.MAINT_START:
            pcpu = record.get("pcpu")
            if pcpu in self._in_maint:
                self.violation(record.t,
                               f"maintenance started on PCPU {pcpu}, "
                               f"which is already under maintenance")
            self._in_maint.add(pcpu)
            if len(self._in_maint) > self.crews:
                self.violation(
                    record.t,
                    f"{len(self._in_maint)} concurrent maintenance jobs "
                    f"exceed the {self.crews}-crew pool",
                )
        elif kind == _trace.MAINT_DONE:
            pcpu = record.get("pcpu")
            if pcpu not in self._in_maint:
                self.violation(record.t,
                               f"maintenance done on PCPU {pcpu} without "
                               f"a matching start")
            self._in_maint.discard(pcpu)


class DegradationAccounting(Invariant):
    """Health transitions are consistent with the degradation model.

    * every ``pcpu.degrade`` departs from the health the trace last
      established for that PCPU and lands inside ``[0, h_max]``;
    * the advertised ``capacity`` matches the model's capacity ladder
      at the new health state;
    * ``pcpu.fail`` only happens at terminal health (``h_max``) while a
      degradation process runs;
    * ``maint.done`` restores the PCPU to pristine health (0).

    The initial health of each PCPU is not in the trace header (it may
    be non-zero via ``initial_health``), so the first transition of a
    PCPU pins its tracked state instead of being checked.
    """

    name = "degradation-accounting"

    def __init__(self, h_max: int, capacity: List[float]) -> None:
        super().__init__()
        self.h_max = int(h_max)
        self.capacity = [float(c) for c in capacity]
        self._health: Dict[int, int] = {}

    def on_record(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == _trace.RUN_START:
            self._health = {}
        elif kind == _trace.PCPU_DEGRADE:
            pcpu = record.get("pcpu")
            from_h = record.get("from_health")
            to_h = record.get("to_health")
            known = self._health.get(pcpu)
            if known is not None and from_h != known:
                self.violation(record.t,
                               f"PCPU {pcpu} degrades from health {from_h}, "
                               f"but the trace last left it at {known}")
            if not 0 <= to_h <= self.h_max:
                self.violation(record.t,
                               f"PCPU {pcpu} degraded to health {to_h}, "
                               f"outside [0, {self.h_max}]")
            elif to_h < len(self.capacity):
                advertised = record.get("capacity")
                if (advertised is not None
                        and abs(float(advertised) - self.capacity[to_h]) > _EPS):
                    self.violation(
                        record.t,
                        f"PCPU {pcpu} advertises capacity {advertised:g} at "
                        f"health {to_h}, model says {self.capacity[to_h]:g}",
                    )
            self._health[pcpu] = to_h
        elif kind == _trace.PCPU_FAIL:
            pcpu = record.get("pcpu")
            if self._health.get(pcpu) != self.h_max:
                self.violation(
                    record.t,
                    f"PCPU {pcpu} failed at health "
                    f"{self._health.get(pcpu)}, not terminal ({self.h_max})",
                )
        elif kind == _trace.MAINT_DONE:
            self._health[record.get("pcpu")] = 0


class TraceChecker:
    """Runs a set of invariants over a trace.

    Example:
        >>> checker = TraceChecker([MonotoneTime(), ExclusivePCPU()])
        >>> checker.check([])
        []
    """

    def __init__(self, invariants: Iterable[Invariant]) -> None:
        self.invariants = list(invariants)

    def check(self, records: Iterable[RecordLike]) -> List[Violation]:
        """Replay ``records`` (TraceRecords or JSONL dicts) in order."""
        invariants = self.invariants
        for raw in records:
            record = as_record(raw)
            for invariant in invariants:
                invariant.on_record(record)
        violations: List[Violation] = []
        for invariant in invariants:
            invariant.finish()
            violations.extend(invariant.violations)
        return violations


def standard_invariants(records: Iterable[RecordLike]) -> List[Invariant]:
    """Build the invariant set the trace's own ``run.start`` calls for.

    Always: monotone time, exclusive PCPU occupancy, timeslice
    accounting.  Scheduler-specific invariants switch on by registry
    name: gang all-or-none for ``scs`` (skipped when a degradation
    process runs, or an older trace's header flags ``pcpu_failures`` —
    a mid-slice failure legitimately breaks a gang) and the skew bound
    for ``rcs``.  When the ``run.start`` header declares a degradation
    model, health/capacity accounting is checked; a maintenance policy
    adds repair-crew exclusivity.
    """
    start: Optional[TraceRecord] = None
    for raw in records:
        record = as_record(raw)
        if record.kind == _trace.RUN_START:
            start = record
            break
    invariants: List[Invariant] = [MonotoneTime(), ExclusivePCPU(),
                                   TimesliceAccounting()]
    if start is None:
        return invariants
    scheduler = start.get("scheduler")
    params: Dict[str, Any] = start.get("params") or {}
    degradation = start.get("degradation")
    maintenance = start.get("maintenance")
    if degradation:
        invariants.append(DegradationAccounting(
            h_max=degradation.get("h_max", 1),
            capacity=degradation.get("capacity") or [1.0, 0.0],
        ))
    if maintenance:
        invariants.append(CrewExclusivity(crews=maintenance.get("crews", 1)))
    if (scheduler == "scs" and not start.get("pcpu_failures")
            and not degradation):
        invariants.append(StrictCoScheduling(start.get("topology") or []))
    if scheduler == "rcs":
        invariants.append(SkewBound(
            skew_threshold=params.get("skew_threshold", 10),
            relax_threshold=params.get("relax_threshold", 5),
        ))
    return invariants


def check_trace(records: Iterable[RecordLike]) -> List[Violation]:
    """One-call check: standard invariants, configured from the trace."""
    records = [as_record(r) for r in records]
    return TraceChecker(standard_invariants(records)).check(records)
