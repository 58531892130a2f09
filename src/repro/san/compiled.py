"""The compiled enablement engine (the default): flat arrays + fast-forward.

The rescan oracle (:class:`repro.san.simulator.SANSimulator`)
re-evaluates every gate after every completion.  This engine caches
verdicts instead, and only re-evaluates activities whose read cells
were written.  It lowers the model once, at construction, into flat
parallel arrays indexed by a dense integer activity index:

* instantaneous activities occupy indices ``0 .. n_inst-1`` in settle
  order (priority, then registration), timed activities follow in
  registration order — so a single index space covers both hot loops;
* per-activity staleness and enablement live in two ``bytearray``s,
  scanned with ``bytearray.find`` (a C-level memchr) instead of a
  Python loop over state objects;
* the cell -> dependent-activities watcher index maps ``id(cell)`` to a
  prebuilt list of integer indices, and writes propagate *eagerly*: the
  dirty sink installed during completions flips stale bytes directly,
  so there is no deferred flush pass at all;
* timed rescheduling walks prebuilt ``(index, activity, key, rng)``
  rows — no attribute lookups or stream-cache probes per event;
* a single-case activity completes through a tuple of its gate
  functions (input, then output) built at its first completion, and
  the settle loop evaluates
  fused IR conjunctions inline, flushing its refresh and
  gate-evaluation counts once per settle.

Verdicts are cached at activity granularity (the conjunction over the
gates) and refreshed under a read sink (see :mod:`repro.san.places`),
which records the cells each evaluation read.  Soundness: a pure
predicate re-reading unchanged cells returns an unchanged verdict.
Where a read set cannot be established (volatile gates, evaluations
that observably read nothing) the activity is re-evaluated at every
synchronisation point, and out-of-band writes (detected through the
global write epoch) invalidate everything.

On top of the lowered form the engine implements **clock-tick
fast-forward** for models that publish a ``tick_fast_forward`` spec
(see :class:`repro.vmm.vcpu_scheduler.ClockFastForward`): when the
model certifies that the next ``k`` ticks of its deterministic clock
are pure countdown — every PCPU assigned, every holder burning load
(BUSY) or idling on it (READY) outside critical sections, timeslices
and loads at least ``k`` from expiry — and no other timed event
intervenes, the engine fires the
clock ``k`` times in closed form: rewards accumulate per unit interval
with the (provably constant) rate evaluated once, markings receive the
net arithmetic update, the completion counter advances by the exact
per-tick completion count, and the clock is rescheduled at the same
model time it would have reached step by step.  No random stream is
touched (the clock is deterministic and every skipped activity has a
single case), so the sample path — and every reward metric — is
bit-for-bit identical to the other engines.  Traces coalesce the
skipped ticks into one ``engine.fastforward`` record; golden
normalization already projects those away (see
:mod:`repro.observability.golden`).

A tick the certificate refuses still executes, with two per-tick
shortcuts the same spec provides, armed (``spec.armed``) for the
length of a :meth:`CompiledSANSimulator.run` with fast-forward on and
no impulse reward — never inside ``step()``:

* the clock's fan-out applies a tick consumer whose firing is certain
  (``Discard_tick`` on a slot that is not BUSY, a ``Processing_load``
  that leaves load behind) instead of depositing its token; the engine
  adds those consumers to the completion count when the run returns,
  and a traced run shows them as one ``engine.direct`` record after
  the clock's ``activity.fire``;
* the ``Scheduling_Func`` gate skips the algorithm on a tick it
  certifies quiet for that one tick, emitting what the skipped call
  would have traced.

``fast_forward=False`` disables all three, so that engine fires every
activity and calls the algorithm every tick, as rescan does.  Under
:mod:`repro.observability.profile` every refused span is counted by
reason (``engine.refused.<reason>``, summing to ``engine.ticks_fired``)
next to ``engine.consumers_applied`` and ``vmm.quiet_ticks_skipped``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..des.random_streams import StreamFactory
from ..errors import ConfigurationError, SimulationError
from ..observability import profile as _profile
from ..observability import trace as _trace
from . import exprs as _exprs
from . import gates as _gates
from . import places as _places
from .activities import Activity, TimedActivity
from .model import ModelBase
from .places import Place
from .simulator import SANSimulator

#: Recognised enablement engines, in documentation order.
ENGINES = ("rescan", "compiled")

#: The engine ``engine=None`` selects everywhere.
DEFAULT_ENGINE = "compiled"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalise the engine selection: ``None`` means the default."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown enablement engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def build_simulator(
    model: ModelBase,
    streams: Optional[StreamFactory] = None,
    engine: Optional[str] = None,
    max_instantaneous_chain: int = 100_000,
) -> SANSimulator:
    """Construct the simulator for the selected enablement engine.

    ``engine="batch"`` builds a :class:`BatchCompiledSANSimulator` lane
    for :func:`run_lanes`.  It is a SAN-level lane builder, not one of
    the :data:`ENGINES` a spec selects.
    """
    if engine == "batch":
        return BatchCompiledSANSimulator(
            model, streams, max_instantaneous_chain=max_instantaneous_chain
        )
    if resolve_engine(engine) == "compiled":
        return CompiledSANSimulator(
            model, streams, max_instantaneous_chain=max_instantaneous_chain
        )
    return SANSimulator(
        model, streams, max_instantaneous_chain=max_instantaneous_chain
    )


class _EagerDirtySink:
    """Dirty sink that flips stale bytes at write time.

    Installed as ``places._dirty_sink`` around completions; any object
    with ``add`` satisfies the sink protocol, so writes propagate to
    the flat stale array with no intermediate set and no flush pass.
    """

    __slots__ = ("_watchers", "_stale")

    def __init__(self, watchers: Dict[int, List[int]], stale: bytearray) -> None:
        self._watchers = watchers
        self._stale = stale

    def add(self, cell: Any) -> None:
        dependents = self._watchers.get(id(cell))
        if dependents is not None:
            stale = self._stale
            for index in dependents:
                stale[index] = 1


class CompiledSANSimulator(SANSimulator):
    """SAN simulator running the lowered, index-based enablement engine.

    Args:
        model: the (atomic or composed) model to simulate.
        streams: replication random streams (default: seed 0, rep 0).
        max_instantaneous_chain: livelock guard for zero-time chains.
        fast_forward: honour the model's ``tick_fast_forward`` spec
            (default): coalesce idle ticks, and apply the executed-tick
            shortcuts.  Disable for ablation benchmarks — lowering and
            fast-forward speedups are then separately attributable.
    """

    def __init__(
        self,
        model: ModelBase,
        streams: Optional[StreamFactory] = None,
        max_instantaneous_chain: int = 100_000,
        fast_forward: bool = True,
    ) -> None:
        # The base class gives us the activity lists, queue, reward
        # plumbing and stream bindings; only enablement is replaced.
        super().__init__(
            model, streams, max_instantaneous_chain=max_instantaneous_chain
        )
        self.fast_forward = bool(fast_forward)
        # Write-epoch watermark for out-of-band mutation detection; every
        # activity starts stale, so any initial value is safe.
        self._synced_epoch = -1
        self._compile()

    # -- lowering -----------------------------------------------------------

    def _compile(self) -> None:
        acts: List[Activity] = list(self._instantaneous) + list(self._timed)
        self._acts = acts
        n = len(acts)
        self._n_inst = len(self._instantaneous)
        self._act_gates: List[Tuple[Any, ...]] = [
            tuple(activity.input_gates) for activity in acts
        ]
        self._stale = bytearray(b"\x01" * n)
        self._enabled = bytearray(n)
        # Observed/declared read cells per activity, for watcher dedupe.
        self._act_cells: List[set] = [set() for _ in range(n)]
        # id(cell) -> dependent activity indices; _cell_pins keeps the
        # cells alive so ids cannot be recycled.
        self._watchers: Dict[int, List[int]] = {}
        self._cell_pins: Dict[int, Any] = {}
        self._scratch: set = set()
        self._ff_reads: set = set()
        self._dirty = _EagerDirtySink(self._watchers, self._stale)
        self.refreshes = 0
        # Activities re-marked stale at every synchronisation point:
        # volatile gates up front, empty observed read sets on demand.
        self._always_inst: List[int] = []
        self._always_timed: List[int] = []
        # Scalar IR fast path: an activity whose every gate carries an
        # expression gets one fused specialized conjunction — no read
        # sink, no per-gate holds() dispatch, no demote-to-volatile
        # (its read set is fully derived).  A fully-constant conjunction
        # (TRUE/FALSE gates) is pinned: refreshed only when explicitly
        # staled, never re-evaluated every settle pass — previously a
        # `lambda: True` gate had an empty observed read set and paid
        # the conservative always-re-evaluate path forever.
        self._ir_preds: List[Optional[Any]] = [None] * n
        self._ir_costs: List[int] = [0] * n
        self._ir_consts: List[Optional[int]] = [None] * n
        for index, activity in enumerate(acts):
            gates = self._act_gates[index]
            if gates and all(g.expr is not None for g in gates):
                verdicts = [g.constant_verdict for g in gates]
                if all(v is not None for v in verdicts):
                    self._ir_consts[index] = 1 if all(verdicts) else 0
                elif len(gates) == 1:
                    # The gate already carries its compiled evaluator.
                    self._ir_preds[index] = gates[0]._predicate
                else:
                    self._ir_preds[index] = _exprs.compile_scalar_predicate(
                        _exprs.conjunction([g.expr for g in gates])
                    )
                self._ir_costs[index] = len(gates)
            elif activity.input_gates and activity.is_volatile():
                self._always_for(index).append(index)
            for cell in activity.declared_read_cells():
                self._watch(index, cell)
        self._bind_compiled_rows()
        # Flat completion rows, built on an activity's first completion
        # (vectorized lanes never complete through this engine).
        self._fires: Dict[Activity, Optional[Tuple[Tuple[Any, Any], ...]]] = {}
        # Clock fast-forward: the model publishes the spec (or not).
        spec = getattr(self.model, "tick_fast_forward", None)
        self._ff_spec = spec
        self._tick_activity = spec.clock if spec is not None else None
        self._tick_key = (
            self._tick_activity.qualified_name
            if self._tick_activity is not None
            else None
        )

    def _bind_compiled_rows(self) -> None:
        """Timed reschedule rows carrying the index alongside the stream."""
        n_inst = self._n_inst
        self._timed_crows: List[tuple] = [
            (n_inst + offset, activity, key, rng)
            for offset, (activity, key, rng) in enumerate(self._timed_rows)
        ]

    def _always_for(self, index: int) -> List[int]:
        return self._always_inst if index < self._n_inst else self._always_timed

    def _watch(self, index: int, cell: Any) -> None:
        cells = self._act_cells[index]
        if cell in cells:
            return
        cells.add(cell)
        key = id(cell)
        dependents = self._watchers.get(key)
        if dependents is None:
            self._watchers[key] = [index]
            self._cell_pins[key] = cell
        else:
            dependents.append(index)

    # -- engine identity ----------------------------------------------------

    @property
    def engine(self) -> str:
        return "compiled"

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["enablement_refreshes"] = self.refreshes
        stats["watched_cells"] = len(self._watchers)
        return stats

    def reset(self, streams: Optional[StreamFactory] = None) -> None:
        super().reset(streams)
        self._bind_compiled_rows()
        self._stale[:] = b"\x01" * len(self._stale)
        for index in range(len(self._enabled)):
            self._enabled[index] = 0
        self.refreshes = 0

    # -- enablement refresh --------------------------------------------------

    def _refresh(self, index: int) -> int:
        """Re-evaluate one activity's gate conjunction, tracking reads.

        Pure predicates run under a read sink and short-circuit at the
        first non-holding gate, as ``Activity.enabled`` does (so
        gate-evaluation counts stay comparable with rescan);
        watcher edges extended for newly observed cells — stale edges
        from earlier control paths only ever cause spurious refreshes.
        """
        gates = self._act_gates[index]
        if not gates:
            # Gate-less activities are never enabled (the Activity
            # contract) and their verdict can never change.
            self._stale[index] = 0
            self._enabled[index] = 0
            return 0
        const = self._ir_consts[index]
        if const is not None:
            # Pinned constant conjunction: no evaluation at all, but
            # account the gates so counters stay comparable.
            self.refreshes += 1
            _gates.count_evaluations(self._ir_costs[index])
            self._stale[index] = 0
            self._enabled[index] = const
            return const
        pred = self._ir_preds[index]
        if pred is not None:
            # Fused IR conjunction: reads are derived (already watched),
            # so the read-sink protocol is skipped entirely.  The cost
            # is accounted as the gate count — an upper bound, since
            # the generated conjunction short-circuits like holds().
            self.refreshes += 1
            _gates.count_evaluations(self._ir_costs[index])
            enabled = 1 if pred() else 0
            self._stale[index] = 0
            self._enabled[index] = enabled
            return enabled
        self.refreshes += 1
        scratch = self._scratch
        scratch.clear()
        previous = _places._read_sink
        _places._read_sink = scratch
        try:
            enabled = 1
            for gate in gates:
                if not gate.holds():
                    enabled = 0
                    break
        finally:
            _places._read_sink = previous
        if scratch:
            cells = self._act_cells[index]
            for cell in scratch:
                if cell not in cells:
                    self._watch(index, cell)
        elif not self._act_cells[index]:
            # Nothing observed, nothing declared: the read set cannot
            # be established.  Never guess — re-evaluate at every
            # synchronisation point from now on.
            always = self._always_for(index)
            if index not in always:
                always.append(index)
        self._stale[index] = 0
        self._enabled[index] = enabled
        return enabled

    # -- completions ---------------------------------------------------------

    def _fire_row(self, activity: Activity) -> Optional[Tuple[Tuple[Any, Any], ...]]:
        """``(function, gate)`` pairs completing a single-case activity.

        Its non-noop input-gate functions, then its output-gate
        functions: the ``Activity.complete`` sequence without the
        per-gate ``fire()`` and case-selection calls.  ``None`` for a
        multi-case activity, which still draws its case in
        ``Activity.complete``.
        """
        row = None
        if len(activity.cases) == 1:
            gates = [g for g in activity.input_gates if g._function is not _gates._noop]
            gates += activity.cases[0].output_gates
            row = tuple((gate._function, gate) for gate in gates)
        self._fires[activity] = row
        return row

    def _complete(self, activity: Activity) -> None:
        if activity is self._tick_activity:
            self.ticks_fired += 1
        tracer = _trace._ACTIVE
        if tracer is not None:
            self._complete_traced(activity, tracer)
            return
        previous = _places._dirty_sink
        _places._dirty_sink = self._dirty
        try:
            try:
                fires = self._fires[activity]
            except KeyError:
                fires = self._fire_row(activity)
            if fires is None:
                activity.complete(self._rngs[activity])
            else:
                gate = None
                try:
                    for function, gate in fires:
                        function()
                except SimulationError:
                    raise
                except Exception as exc:
                    kind = "input" if isinstance(gate, _gates.InputGate) else "output"
                    raise SimulationError(
                        f"{kind} gate {gate.name!r} function raised: {exc}"
                    ) from exc
        finally:
            _places._dirty_sink = previous
        self._completions += 1
        if self._impulse_rewards:
            self._notify_impulse(activity)

    def _complete_traced(self, activity: Activity, tracer: "_trace.SimTracer") -> None:
        tracer._now = self.clock.now
        spec = self._ff_spec
        applied = spec.consumers_applied if spec is not None else 0
        written: set = set()
        previous = _places._dirty_sink
        _places._dirty_sink = written
        try:
            activity.complete(self._rngs[activity])
        finally:
            _places._dirty_sink = previous
        mark = self._dirty.add
        for cell in written:
            mark(cell)
        tracer.emit(
            _trace.ACTIVITY_FIRE,
            time=self.clock.now,
            activity=activity.qualified_name,
            timed=isinstance(activity, TimedActivity),
            writes=self._write_names(written),
        )
        if spec is not None and spec.consumers_applied != applied:
            # The tick consumers the fan-out applied stand in for their
            # own activity.fire records.
            tracer.emit(
                _trace.ENGINE_DIRECT,
                time=self.clock.now,
                completions=spec.consumers_applied - applied,
            )
        self._completions += 1
        self._notify_impulse(activity)

    # -- settle / reschedule --------------------------------------------------

    def _settle_instantaneous(self) -> None:
        """Lowered settle: memchr scans over the stale/enabled arrays.

        Invariant exploited by the scan: indices below the cursor are
        fresh and disabled, so the first set byte in either array —
        whichever comes first — decides without touching state objects.
        """
        stale = self._stale
        enabled = self._enabled
        acts = self._acts
        n = self._n_inst
        always = self._always_inst
        refresh = self._refresh
        complete = self._complete
        ir_preds = self._ir_preds
        ir_costs = self._ir_costs
        chain = 0
        # Fused IR conjunctions are evaluated inline (the _refresh IR
        # branch without the call); their refresh and gate-evaluation
        # counts are summed here and flushed once per settle.
        refreshes = 0
        evaluations = 0
        try:
            while True:
                for index in always:
                    stale[index] = 1
                fired = -1
                cursor = 0
                while True:
                    first_stale = stale.find(1, cursor, n)
                    if first_stale == -1:
                        fired = enabled.find(1, cursor, n)
                        break
                    first_enabled = enabled.find(1, cursor, first_stale)
                    if first_enabled != -1:
                        fired = first_enabled
                        break
                    pred = ir_preds[first_stale]
                    if pred is not None:
                        refreshes += 1
                        evaluations += ir_costs[first_stale]
                        verdict = pred()
                        stale[first_stale] = 0
                        if verdict:
                            enabled[first_stale] = 1
                            fired = first_stale
                            break
                        enabled[first_stale] = 0
                    elif refresh(first_stale):
                        fired = first_stale
                        break
                    cursor = first_stale + 1
                if fired == -1:
                    return
                fired_activity = acts[fired]
                complete(fired_activity)
                chain += 1
                if chain > self.max_instantaneous_chain:
                    raise self._chain_error(fired_activity)
        finally:
            self.refreshes += refreshes
            _gates._EVALUATIONS += evaluations

    def _reschedule_timed(self) -> None:
        stale = self._stale
        enabled = self._enabled
        for index in self._always_timed:
            stale[index] = 1
        pending_map = self._pending
        queue = self._queue
        now = self.clock.now
        tracer = _trace._ACTIVE
        refresh = self._refresh
        for index, activity, key, rng in self._timed_crows:
            is_enabled = refresh(index) if stale[index] else enabled[index]
            pending = pending_map.get(key)
            if pending is not None:
                if not is_enabled:
                    queue.cancel(pending)
                    del pending_map[key]
                    if tracer is not None:
                        tracer.emit(_trace.ENGINE_CANCEL, time=now, activity=key)
                elif activity.reactivation:
                    queue.cancel(pending)
                    delay = activity.sample_delay(rng)
                    pending_map[key] = queue.schedule(now + delay, activity)
                    if tracer is not None:
                        tracer.emit(_trace.ENGINE_SCHEDULE, time=now,
                                    activity=key, at=now + delay)
            elif is_enabled:
                delay = activity.sample_delay(rng)
                pending_map[key] = queue.schedule(now + delay, activity)
                if tracer is not None:
                    tracer.emit(_trace.ENGINE_SCHEDULE, time=now,
                                activity=key, at=now + delay)

    # -- out-of-band mutation boundary ----------------------------------------

    def _sync_in(self) -> None:
        if _places.write_epoch() != self._synced_epoch:
            # Out-of-band writes: distrust every cached verdict.  The
            # watcher index stays — stale edges cause only spurious
            # refreshes, never missed invalidations.
            self._stale[:] = b"\x01" * len(self._stale)

    def _sync_out(self) -> None:
        self._synced_epoch = _places.write_epoch()

    # -- clock fast-forward ----------------------------------------------------

    def _try_fast_forward(self, head, until: float, spec) -> int:
        """Coalesce up to ``k`` clock ticks; returns the ticks skipped.

        Called at quiescence with the clock completion at the queue
        head.  Three bounds apply: the run horizon (the last coalesced
        tick must fall strictly before ``until``), the earliest other
        pending timed event (the span may not cross it — an event *at*
        tick ``j`` still wins its tie-break against the re-scheduled
        clock, exactly as step-by-step, because the fresh clock event
        always carries the younger sequence number), and the model's
        own certificate :meth:`max_skip`, which includes the scheduling
        algorithm's (evaluated under a read sink: pure observation).
        Fast-forwarding fewer than 2 ticks buys nothing, so the ordinary
        step runs instead.  The ``engine.fastforward`` record precedes
        whatever the span's closed form traces for the skipped ticks.
        """
        t_first = head.time
        k = math.ceil(until - t_first + 1.0) - 1
        if k < 2:
            return self._refused()
        pending = self._pending
        if len(pending) > 1:
            tick_key = self._tick_key
            horizon = min(
                event.time for key, event in pending.items() if key != tick_key
            )
            bound = math.ceil(horizon - t_first + 1.0) - 1
            if bound < k:
                k = bound
                if k < 2:
                    return self._refused()
        previous = _places._read_sink
        _places._read_sink = self._ff_reads
        try:
            k = spec.max_skip(k)
            if k < 2:
                return self._refused(spec)
        finally:
            _places._read_sink = previous
            self._ff_reads.clear()
        # Commit: pop the clock completion, batch the span, reschedule.
        event = self._queue.pop()
        del pending[self._tick_key]
        self._advance_rewards(t_first)
        self._advance_rewards_constant(t_first, k - 1)
        self.clock.advance_to(t_first + (k - 1))
        skipped_completions = k * spec.per_tick_completions
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.emit(
                _trace.ENGINE_FASTFORWARD,
                time=t_first,
                ticks=k,
                completions=skipped_completions,
            )
        previous = _places._dirty_sink
        _places._dirty_sink = self._dirty
        try:
            spec.apply(k)
        finally:
            _places._dirty_sink = previous
        self._completions += skipped_completions
        self.ticks_fast_forwarded += k
        pending[self._tick_key] = self._queue.schedule(t_first + k, event.payload)
        return k

    @staticmethod
    def _refused(spec=None) -> int:
        """A refused span: the tick executes.  0, counted when profiling.

        ``spec`` names the condition its certificate failed; without it
        the refusal is the engine's own ``bound`` (the horizon or another
        pending event is under two ticks away).
        """
        profiler = _profile._ACTIVE
        if profiler is not None:
            reason = "bound" if spec is None else spec.refusal_reason()
            profiler.count("engine.refused." + reason)
        return 0

    def _advance_rewards_constant(self, start: float, steps: int) -> None:
        """Per-unit-interval reward accumulation over a frozen state."""
        if steps > 0 and self._rate_rewards:
            previous = _places._read_sink
            _places._read_sink = self._reward_reads
            try:
                for reward in self._rate_rewards:
                    reward.observe_constant(start, steps)
            finally:
                _places._read_sink = previous

    def _begin_run(self, until: float) -> Optional[Any]:
        """Shared run prologue: enter the run and settle the start state.

        Rejects running backwards, syncs with out-of-band writes,
        settles the initial marking (its gate evaluations are
        attributed here) and arms fast-forward.  Returns the model's
        fast-forward spec, or ``None`` when it cannot engage this run.
        Every entry — serial ``run`` and the vectorized lane driver —
        pairs it with :meth:`_finish_run`.
        """
        if until < self.clock.now:
            raise SimulationError(
                f"cannot run to t={until}: clock is already at {self.clock.now}"
            )
        spec = self._ff_spec
        self._run_marks = (
            self.ticks_fired,
            self.ticks_fast_forwarded,
            spec.consumers_applied if spec is not None else 0,
        )
        self._sync_in()
        base = _gates._EVALUATIONS
        try:
            self._ensure_started()
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - base
        if spec is not None and self.fast_forward and not self._impulse_rewards:
            spec.armed = True
            return spec
        return None

    def _finish_run(self) -> None:
        """Shared run epilogue (always runs): disarm, count, epoch sync.

        The tick consumers the model's fan-out applied during the run
        join the completion count here, as a coalesced span's do, so
        ``completions`` equals rescan's once the run returns.
        """
        fired_before, skipped_before, applied_before = self._run_marks
        spec = self._ff_spec
        applied = 0
        if spec is not None:
            spec.armed = False
            applied = spec.consumers_applied - applied_before
            self._completions += applied
            self.consumers_applied += applied
        profiler = _profile._ACTIVE
        if profiler is not None:
            profiler.count("engine.ticks_fired", self.ticks_fired - fired_before)
            profiler.count(
                "engine.ticks_fast_forwarded",
                self.ticks_fast_forwarded - skipped_before,
            )
            profiler.count("engine.consumers_applied", applied)
        self._sync_out()

    def run(self, until: float) -> None:
        """Run until ``until``, fast-forwarding idle clock spans.

        Identical contract to the base ``run``; impulse rewards see
        every completion individually, so their presence disables
        fast-forward and the executed-tick shortcuts for the whole run
        (the countdown ticks the span skips *do* complete activities an
        impulse reward could match).  ``step()`` never fast-forwards —
        single-stepping is a debugging surface and must show every
        event.
        """
        spec = self._begin_run(until)
        eval_base = _gates._EVALUATIONS
        try:
            queue = self._queue
            tick = self._tick_activity
            while True:
                head = queue.peek()
                if head is None or head.time >= until:
                    break
                if spec is not None and head.payload is tick:
                    if self._try_fast_forward(head, until, spec):
                        continue
                self._step()
            self._advance_rewards(until)
            self.clock.advance_to(until)
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - eval_base
            self._finish_run()


# -- replication-batched execution --------------------------------------------


class BatchCompiledSANSimulator(CompiledSANSimulator):
    """A compiled lane that :func:`run_lanes` drives.

    One instance simulates one replication with exactly the compiled
    engine's lowered state and sample path, its own marking, event
    wheel and per-replication
    :class:`~repro.des.random_streams.StreamFactory`.  Built by
    ``build_simulator(engine="batch")``; standing alone it runs as a
    single-lane batch.
    """

    @property
    def engine(self) -> str:
        return "batch"

    def run(self, until: float) -> None:
        run_lanes((self,), until)


def run_lanes(
    lanes: Sequence[CompiledSANSimulator], until: float
) -> Dict[str, int]:
    """Run R lanes (replications of one spec) to ``until``.

    When every lane's model carries a fully-IR form — all gates carry
    vectorizable expressions and effects, all rewards vectorizable
    rates (see :mod:`repro.san.vector`) — the whole batch goes to the
    vectorized kernel runner, which advances all R lanes per
    Python-level step through one ``(R, n_places)`` int64 matrix and
    returns bit-identical per-lane results.  Otherwise (any closure
    gate or extended-place read, as in every VMM scheduler model, or an
    active tracer or profiler) each lane runs in turn on the serial
    compiled engine.

    Returns ``vectorized`` (1 on the kernel path, else 0) and the
    kernel runner's ``waves`` (event rounds) and ``lane_steps`` (timed
    events fired across lanes), both 0 on the serial path; correctness
    never depends on them.
    """
    if lanes:
        from . import vector as _vector  # deferred: vector imports this module

        plan = _vector.plan_lanes(lanes)
        if plan is not None:
            return _vector.run_vectorized(plan, lanes, until)
    for lane in lanes:
        CompiledSANSimulator.run(lane, until)
    return {"waves": 0, "lane_steps": 0, "vectorized": 0}


def place_matrix(lanes: Sequence[CompiledSANSimulator]) -> "numpy.ndarray":
    """Structure-of-arrays snapshot: ``(R, n_places)`` int64 token counts.

    Rows are lanes, columns are the token places of the (shared) model
    shape in name order — extended places hold arbitrary Python values
    and are excluded.  Lanes must share a spec; a lane whose place names
    differ from lane 0's raises :class:`ConfigurationError`.
    """
    import numpy

    if not lanes:
        return numpy.zeros((0, 0), dtype=numpy.int64)
    names = [
        name
        for name, place in sorted(lanes[0].model.places().items())
        if isinstance(place, Place)
    ]
    matrix = numpy.empty((len(lanes), len(names)), dtype=numpy.int64)
    for row, lane in enumerate(lanes):
        places = lane.model.places()
        try:
            for col, name in enumerate(names):
                matrix[row, col] = places[name].tokens
        except KeyError as exc:
            raise ConfigurationError(
                f"lane {row} does not share lane 0's place layout: missing {exc}"
            ) from None
    return matrix
