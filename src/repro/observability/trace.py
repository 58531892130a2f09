"""Structured simulation tracing: the event-level record of a run.

The paper validates its framework by *looking at* what schedulers do —
the Figure 8–10 schedules, co-stop/co-start behavior, skew bounding.
Aggregate rewards cannot express any of that; this module can.  A
:class:`SimTracer` collects typed, time-stamped records from every
layer of a run:

* the SAN engine (:mod:`repro.san.simulator`) — activity firings with
  their marking deltas, event schedule/cancel decisions;
* the hypervisor model (:mod:`repro.vmm.vcpu_scheduler`) — per-tick
  schedule-in/schedule-out decisions, timeslice expiries, PCPU
  fail/repair, and (for RCS) the per-VM co-scheduling skew;
* the resilience layer (:mod:`repro.resilience`) — guard-absorbed
  faults, quarantine transitions, chaos injections, executor retries.

Tracing is **off by default and zero-overhead when off**: the hot
paths check a single module-level ``_ACTIVE`` reference and skip all
trace work when it is ``None``.  Activate a tracer with the
:func:`tracing` context manager (or pass ``tracer=`` to
:class:`repro.core.framework.Simulation`), then write the records out
as JSONL (one record per line) or Chrome ``trace_event`` JSON, which
Perfetto (https://ui.perfetto.dev) renders as a per-PCPU Gantt chart —
the same picture as the paper's Figure 8.

Determinism: tracing never touches the random streams or the marking,
so a traced run is bit-for-bit identical to an untraced one, and the
two enablement engines emit *identical* traces (asserted by the
differential suite in ``tests/property``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from ..errors import ConfigurationError

# -- record kinds ---------------------------------------------------------
#
# One constant per record type; the fields each kind carries are listed
# in RECORD_FIELDS below (the schema the CLI tests and the golden-trace
# normalizer assert against).

RUN_START = "run.start"
RUN_END = "run.end"
ACTIVITY_FIRE = "activity.fire"
ENGINE_SCHEDULE = "engine.schedule"
ENGINE_CANCEL = "engine.cancel"
ENGINE_FASTFORWARD = "engine.fastforward"
ENGINE_DIRECT = "engine.direct"
SCHED_IN = "sched.in"
SCHED_OUT = "sched.out"
SCHED_SKEW = "sched.skew"
PCPU_FAIL = "pcpu.fail"
PCPU_REPAIR = "pcpu.repair"
PCPU_DEGRADE = "pcpu.degrade"
MAINT_START = "maint.start"
MAINT_DONE = "maint.done"
HV_OVERHEAD = "hv.overhead"
GUARD_FAULT = "guard.fault"
GUARD_QUARANTINE = "guard.quarantine"
CHAOS_CRASH = "chaos.crash"
CHAOS_STALL = "chaos.stall"
CHAOS_CORRUPT = "chaos.corrupt"
EXECUTOR_RETRY = "executor.retry"
SWEEP_DISPATCH = "sweep.dispatch"
CACHE_HIT = "cache.hit"
JOB_ACCEPTED = "job.accepted"
JOB_START = "job.start"
JOB_PROGRESS = "job.progress"
JOB_DONE = "job.done"

#: Every kind -> the data fields its records carry (beyond kind/t/seq).
RECORD_FIELDS: Dict[str, tuple] = {
    RUN_START: (
        "scheduler", "topology", "pcpus", "replication", "root_seed",
        "sim_time", "warmup", "params", "guard", "chaos",
        "engine", "degradation", "maintenance", "hv_overhead",
    ),
    RUN_END: ("completions", "degraded"),
    ACTIVITY_FIRE: ("activity", "timed", "writes"),
    ENGINE_SCHEDULE: ("activity", "at"),
    ENGINE_CANCEL: ("activity",),
    # One record per coalesced clock span (compiled engine): the k
    # skipped ticks and the activity completions they account for.
    ENGINE_FASTFORWARD: ("ticks", "completions"),
    # One record per executed clock tick whose fan-out applied tick
    # consumers itself (compiled engine): the firings they stand for.
    ENGINE_DIRECT: ("completions",),
    SCHED_IN: ("vcpu", "vm", "vcpu_index", "pcpu", "timeslice"),
    SCHED_OUT: ("vcpu", "vm", "vcpu_index", "pcpu", "reason"),
    SCHED_SKEW: ("vm", "max_lag", "catching_up"),
    PCPU_FAIL: ("pcpu", "victim"),
    PCPU_REPAIR: ("pcpu",),
    PCPU_DEGRADE: ("pcpu", "from_health", "to_health", "capacity"),
    MAINT_START: ("pcpu", "policy", "health", "victim"),
    MAINT_DONE: ("pcpu", "policy"),
    HV_OVERHEAD: ("vcpu", "pcpu", "cost"),
    GUARD_FAULT: ("scheduler", "fault_kind", "message"),
    GUARD_QUARANTINE: ("scheduler",),
    CHAOS_CRASH: ("replication",),
    CHAOS_STALL: ("replication", "seconds"),
    CHAOS_CORRUPT: ("replication", "corrupt_kind"),
    EXECUTOR_RETRY: ("replication", "attempt", "seed"),
    # One record per sweep-engine grant: which point got the next
    # replication, why (floor/adaptive/retry), on which worker, and how
    # many replications it covers (batch-engine floor groups).
    SWEEP_DISPATCH: (
        "point", "replication", "attempt", "worker", "reason", "batch", "distance",
    ),
    CACHE_HIT: ("scope", "replication", "key"),
    # Service-layer job lifecycle records (the NDJSON wire format the
    # simulation server streams to clients; ``t`` is seconds since the
    # job was accepted rather than simulated time).
    JOB_ACCEPTED: ("job", "tenant"),
    JOB_START: ("job",),
    JOB_PROGRESS: ("job", "event", "point", "replication", "ok"),
    JOB_DONE: ("job", "status", "replications", "executed", "cache_hits"),
}

#: Schedule-out reasons the hypervisor model distinguishes.
OUT_DECISION = "decision"
OUT_EXPIRE = "expire"
OUT_PCPU_FAILURE = "pcpu_failure"
OUT_MAINTENANCE = "maintenance"

TRACE_FORMATS = ("jsonl", "chrome")


@dataclass
class TraceRecord:
    """One typed trace event.

    Attributes:
        kind: record type, one of the module constants (``sched.in``, ...).
        t: simulated time of the event.
        seq: emission sequence number (total order even among records
            carrying the same simulated time).
        data: the kind-specific fields (see :data:`RECORD_FIELDS`).
    """

    kind: str
    t: float
    seq: int
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form (JSONL line payload)."""
        payload = {"kind": self.kind, "t": self.t, "seq": self.seq}
        payload.update(self.data)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceRecord":
        data = {k: v for k, v in payload.items() if k not in ("kind", "t", "seq")}
        return cls(
            kind=payload["kind"],
            t=float(payload["t"]),
            seq=int(payload.get("seq", 0)),
            data=data,
        )

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


RecordLike = Union[TraceRecord, Dict[str, Any]]


def as_record(record: RecordLike) -> TraceRecord:
    """Coerce a JSONL dict or a :class:`TraceRecord` to a record."""
    if isinstance(record, TraceRecord):
        return record
    return TraceRecord.from_dict(record)


class SimTracer:
    """Collects trace records; optionally filtered to a set of kinds.

    Args:
        kinds: only record these kinds (``None`` = everything).  The
            golden-trace suite uses this to keep fixtures compact.

    Example:
        >>> tracer = SimTracer(kinds=(SCHED_IN, SCHED_OUT))
        >>> with tracing(tracer):
        ...     pass  # run a simulation here
        >>> tracer.records
        []
    """

    def __init__(self, kinds: Optional[Iterable[str]] = None) -> None:
        self.records: List[TraceRecord] = []
        self._kinds = frozenset(kinds) if kinds is not None else None
        self._seq = 0
        # Default timestamp for emissions from deep inside gate closures
        # that have no clock access; the simulator keeps it current.
        self._now = 0.0

    def emit(self, kind: str, time: Optional[float] = None, **fields: Any) -> None:
        """Record one event (dropped silently if filtered out)."""
        if self._kinds is not None and kind not in self._kinds:
            return
        t = self._now if time is None else float(time)
        self.records.append(TraceRecord(kind=kind, t=t, seq=self._seq, data=fields))
        self._seq += 1

    def clear(self) -> None:
        self.records.clear()
        self._seq = 0
        self._now = 0.0

    def __len__(self) -> int:
        return len(self.records)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.records]

    def stats(self) -> Dict[str, Any]:
        """Per-kind record counts (merged into ``Simulation.stats()``)."""
        by_kind: Dict[str, int] = {}
        for record in self.records:
            by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
        return {"trace_records": len(self.records), "trace_kinds": by_kind}

    # -- writers ----------------------------------------------------------

    def write(self, path: str, format: str = "jsonl") -> None:
        """Write the trace to ``path`` in the given format."""
        if format == "jsonl":
            self.write_jsonl(path)
        elif format == "chrome":
            self.write_chrome(path)
        else:
            raise ConfigurationError(
                f"trace format must be one of {TRACE_FORMATS}, got {format!r}"
            )

    def write_jsonl(self, path: str) -> None:
        """One JSON object per line, in emission order."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")

    def write_chrome(self, path: str) -> None:
        """Chrome ``trace_event`` JSON (load in Perfetto or chrome://tracing)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": chrome_trace_events(self.records),
                 "displayTimeUnit": "ms"},
                handle,
            )


def to_wire(record: RecordLike) -> str:
    """One record as its canonical wire line (JSON, sorted keys).

    The simulation service streams job progress as NDJSON: one
    :func:`to_wire` line per record, ``\\n``-terminated by the caller.
    The format is byte-identical to :meth:`SimTracer.write_jsonl` lines,
    so trace tooling reads service streams unchanged.
    """
    return json.dumps(as_record(record).to_dict(), sort_keys=True)


def from_wire(line: str) -> TraceRecord:
    """Parse one NDJSON wire line back into a :class:`TraceRecord`."""
    return TraceRecord.from_dict(json.loads(line))


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load a JSONL trace file back into records."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(TraceRecord.from_dict(json.loads(line)))
    return records


# -- Chrome trace_event conversion ---------------------------------------

_ENGINE_TID = 1000
_RESILIENCE_TID = 1001
_TS_SCALE = 1000.0  # 1 simulated tick -> 1ms on the Perfetto timeline


def _thread_meta(tid: int, name: str) -> Dict[str, Any]:
    return {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


def chrome_trace_events(records: Iterable[RecordLike]) -> List[Dict[str, Any]]:
    """Convert records to Chrome ``trace_event`` dicts.

    Schedule-in/out pairs become complete ("X") slices on a per-PCPU
    track — Perfetto then shows the run's schedule exactly like the
    paper's Figure 8 Gantt charts.  Skew records become counter tracks;
    everything else becomes instant events on engine/resilience tracks.
    """
    events: List[Dict[str, Any]] = [_thread_meta(_ENGINE_TID, "SAN engine"),
                                    _thread_meta(_RESILIENCE_TID, "resilience")]
    seen_pcpus: set = set()
    open_spans: Dict[int, TraceRecord] = {}  # vcpu -> sched.in record
    last_t = 0.0
    for raw in records:
        record = as_record(raw)
        last_t = max(last_t, record.t)
        ts = record.t * _TS_SCALE
        if record.kind == SCHED_IN:
            open_spans[record.get("vcpu")] = record
            seen_pcpus.add(record.get("pcpu"))
        elif record.kind == SCHED_OUT:
            start = open_spans.pop(record.get("vcpu"), None)
            if start is not None:
                events.append(_slice(start, record.t, record.get("reason")))
        elif record.kind == SCHED_SKEW:
            events.append({
                "ph": "C", "pid": 1, "tid": _ENGINE_TID, "ts": ts,
                "name": f"skew VM{record.get('vm')}",
                "args": {"max_lag": record.get("max_lag")},
            })
        elif record.kind in (PCPU_FAIL, PCPU_REPAIR, PCPU_DEGRADE,
                             MAINT_START, MAINT_DONE):
            seen_pcpus.add(record.get("pcpu"))
            events.append({
                "ph": "i", "s": "t", "pid": 1, "tid": record.get("pcpu"),
                "ts": ts, "cat": "pcpu", "name": record.kind,
                "args": dict(record.data),
            })
        elif record.kind in (GUARD_FAULT, GUARD_QUARANTINE, CHAOS_CRASH,
                             CHAOS_STALL, CHAOS_CORRUPT, EXECUTOR_RETRY,
                             SWEEP_DISPATCH, CACHE_HIT, JOB_ACCEPTED,
                             JOB_START, JOB_PROGRESS, JOB_DONE):
            events.append({
                "ph": "i", "s": "p", "pid": 1, "tid": _RESILIENCE_TID,
                "ts": ts, "cat": "resilience", "name": record.kind,
                "args": dict(record.data),
            })
        else:  # activity.fire, engine.*, run.* -> engine track instants
            events.append({
                "ph": "i", "s": "t", "pid": 1, "tid": _ENGINE_TID,
                "ts": ts, "cat": "engine", "name": record.kind,
                "args": dict(record.data),
            })
    # Close any span still open at the end of the trace.
    for start in open_spans.values():
        events.append(_slice(start, last_t, "open_at_end"))
    for pcpu in sorted(p for p in seen_pcpus if p is not None):
        events.append(_thread_meta(pcpu, f"PCPU {pcpu}"))
    return events


def _slice(start: TraceRecord, end_t: float, reason: Any) -> Dict[str, Any]:
    return {
        "ph": "X", "pid": 1, "tid": start.get("pcpu"),
        "ts": start.t * _TS_SCALE, "dur": (end_t - start.t) * _TS_SCALE,
        "cat": "sched",
        "name": f"VM{start.get('vm')}.VCPU{start.get('vcpu_index')}",
        "args": {"vcpu": start.get("vcpu"),
                 "timeslice": start.get("timeslice"), "out": reason},
    }


# -- the process-global active tracer -------------------------------------
#
# Hook sites all over the codebase (simulator hot loops, gate closures,
# the guard, chaos, the executor) check ``_ACTIVE is not None`` and do
# nothing else when tracing is off — that single pointer test is the
# entire disabled-path cost.

_ACTIVE: Optional[SimTracer] = None


def active() -> Optional[SimTracer]:
    """The currently installed tracer, or ``None`` (tracing off)."""
    return _ACTIVE


@contextmanager
def tracing(tracer: SimTracer) -> Iterator[SimTracer]:
    """Install ``tracer`` as the process-global active tracer.

    Nesting replaces the outer tracer for the inner block and restores
    it afterwards.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
