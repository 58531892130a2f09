"""The SAN discrete-event simulator (the Mobius simulation engine stand-in).

Execution policy, following Mobius's simulator over Sanders & Meyer
semantics:

1. **Settle instantaneous activities.**  While any instantaneous
   activity is enabled, complete the highest-priority one (ties broken
   by registration order) in zero simulated time.  A chain longer than
   ``max_instantaneous_chain`` aborts the run — it almost certainly
   means a model whose zero-time activities re-enable each other
   forever.
2. **(Re)schedule timed activities.**  Every enabled timed activity
   without a pending completion samples a delay from its own random
   stream and schedules a completion event.  Every pending activity
   that has become disabled is *aborted* (its event cancelled); if it
   re-enables later it samples a fresh delay.
3. **Advance.**  Pop the earliest event; first let every rate reward
   integrate over the elapsed interval (the state is stable between
   events by construction), advance the clock, then complete the
   activity (input-gate functions, case selection, output gates) and
   feed impulse rewards.  Repeat from step 1.

Determinism: for a fixed root seed and replication index, runs are
bit-for-bit reproducible — streams are keyed by activity qualified
name, the event queue breaks ties by insertion order, and instantaneous
settling follows a fixed priority order.

:class:`SANSimulator` is the **rescan** engine, the semantic oracle:
every input-gate predicate of every activity is re-evaluated after
every completion, with no caching to get wrong.  The default engine,
:class:`repro.san.compiled.CompiledSANSimulator`, subclasses it and
replaces only the enablement queries (cached verdicts over a lowered
model, plus clock-tick fast-forward).  The differential property
suite in ``tests/property`` holds both to identical metrics,
completions, and random-stream consumption.  Every engine issues schedule/cancel operations in
activity registration order, so event-queue insertion sequences — and
therefore simultaneous-event tie-breaks — are identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from time import perf_counter

from ..des.clock import SimulationClock
from ..des.event_queue import Event, EventQueue
from ..des.random_streams import StreamFactory
from ..errors import SimulationError
from ..observability import profile as _profile
from ..observability import trace as _trace
from . import gates as _gates
from . import places as _places
from .activities import Activity, InstantaneousActivity, TimedActivity
from .model import ModelBase
from .reward import ImpulseReward, RateReward, RewardVariable


class SANSimulator:
    """Runs one replication of a SAN model on the rescan engine.

    Args:
        model: the (atomic or composed) model to simulate.
        streams: replication random streams (default: seed 0, rep 0).
        max_instantaneous_chain: livelock guard for zero-time chains.

    Example:
        >>> sim = SANSimulator(model, StreamFactory(root_seed=1, replication=0))
        >>> sim.add_reward(my_rate_reward)
        >>> sim.run(until=10_000)
        >>> my_rate_reward.time_average()  # doctest: +SKIP
    """

    def __init__(
        self,
        model: ModelBase,
        streams: Optional[StreamFactory] = None,
        max_instantaneous_chain: int = 100_000,
    ) -> None:
        self.model = model
        self.streams = streams if streams is not None else StreamFactory()
        self.clock = SimulationClock()
        self.max_instantaneous_chain = int(max_instantaneous_chain)

        activities = model.activities()
        self._timed: List[TimedActivity] = [
            a for a in activities if isinstance(a, TimedActivity)
        ]
        instantaneous = [a for a in activities if isinstance(a, InstantaneousActivity)]
        # Stable order: priority first, then registration order.
        self._instantaneous: List[InstantaneousActivity] = sorted(
            instantaneous, key=lambda a: a.priority
        )
        self._queue = EventQueue()
        self._pending: Dict[str, Event] = {}  # qualified name -> event
        self._rate_rewards: List[RateReward] = []
        self._impulse_rewards: List[ImpulseReward] = []
        self._completions = 0
        self._started = False
        # Per-simulator gate-evaluation counter: public entry points
        # capture the process-global counter delta around their body,
        # so attribution stays exact even when simulators interleave
        # (batch lanes, sweep pools).
        self._own_gate_evaluations = 0
        self._reward_reads: set = set()  # discard sink for reward reads
        self._rngs: Dict[Activity, Any] = {}  # per-activity stream cache
        self._cell_names: Optional[Dict[int, str]] = None  # trace write names
        # Tick accounting for the compiled engine's clock fast-forward
        # and the tick consumers its Clock fan-out applies directly;
        # always present so stats() has a uniform shape across engines.
        self.ticks_fired = 0
        self.ticks_fast_forwarded = 0
        self.consumers_applied = 0
        self._bind_streams()

    # -- configuration ----------------------------------------------------

    def add_reward(self, reward: RewardVariable) -> RewardVariable:
        """Attach a reward variable; returns it for fluent use."""
        if isinstance(reward, RateReward):
            self._rate_rewards.append(reward)
        elif isinstance(reward, ImpulseReward):
            self._impulse_rewards.append(reward)
        else:
            raise SimulationError(
                f"unsupported reward type {type(reward).__name__} for {reward.name!r}"
            )
        return reward

    @property
    def completions(self) -> int:
        """Total activity completions so far (timed + instantaneous)."""
        return self._completions

    @property
    def engine(self) -> str:
        """Which enablement engine runs this simulator."""
        return "rescan"

    @property
    def gate_evaluations(self) -> int:
        """Input-gate predicate evaluations attributable to this simulator.

        Maintained per simulator by capturing the process-global
        counter delta around each public entry point (``step``,
        ``run``, ``run_to_quiescence``, and the batch lane hooks), so
        the attribution is exact even when several simulators
        interleave in one process.
        """
        return self._own_gate_evaluations

    def stats(self) -> Dict[str, Any]:
        """Machine-readable engine counters for benchmarks and tests."""
        stats: Dict[str, Any] = {
            "engine": self.engine,
            "completions": self._completions,
            "gate_evaluations": self.gate_evaluations,
            "ticks_fired": self.ticks_fired,
            "ticks_fast_forwarded": self.ticks_fast_forwarded,
            "consumers_applied": self.consumers_applied,
        }
        stats.update(self._queue.stats())
        return stats

    # -- lifecycle ----------------------------------------------------------

    def reset(self, streams: Optional[StreamFactory] = None) -> None:
        """Restore initial markings, clear events and rewards for a new run."""
        self.model.reset()
        self.clock.reset()
        self._queue.clear()
        self._pending.clear()
        self._completions = 0
        self._started = False
        if streams is not None:
            self.streams = streams
        self._bind_streams()
        self.ticks_fired = 0
        self.ticks_fast_forwarded = 0
        self.consumers_applied = 0
        for reward in self._rate_rewards:
            reward.reset()
        for reward in self._impulse_rewards:
            reward.reset()
        self._own_gate_evaluations = 0

    # -- core engine --------------------------------------------------------

    def _bind_streams(self) -> None:
        """Resolve every activity's random stream up front.

        Hot-loop hoist (found with the PR 3 profiler): the per-firing
        ``_rng_for`` dict probe and the per-reschedule stream lookups
        are paid once here instead of once per event.  Stream creation
        is a pure function of the activity's qualified name, so eager
        resolution draws nothing and changes no sample path.  The
        reschedule loops then walk prebuilt rows carrying the stream.
        """
        streams = self.streams
        self._rngs = {
            activity: streams.stream(activity.qualified_name)
            for activity in self._timed + self._instantaneous
        }
        self._timed_rows: List[tuple] = [
            (activity, activity.qualified_name, self._rngs[activity])
            for activity in self._timed
        ]

    def _rng_for(self, activity: Activity):
        rng = self._rngs.get(activity)
        if rng is None:
            rng = self.streams.stream(activity.qualified_name)
            self._rngs[activity] = rng
        return rng

    def _complete(self, activity: Activity) -> None:
        """Run one completion and feed the impulse rewards."""
        tracer = _trace._ACTIVE
        if tracer is not None:
            self._complete_traced(activity, tracer)
            return
        activity.complete(self._rngs[activity])
        self._completions += 1
        self._notify_impulse(activity)

    def _complete_traced(self, activity: Activity, tracer: "_trace.SimTracer") -> None:
        """Traced completion: capture the marking delta.

        A private write set records the completion's writes whatever
        the engine, so the emitted trace — like the sample path — is
        engine-independent.  Sink swaps here and in the reward paths use
        direct module-attribute assignment: the function-call form costs
        measurably at this frequency.
        """
        tracer._now = self.clock.now
        written: set = set()
        previous = _places._dirty_sink
        _places._dirty_sink = written
        try:
            activity.complete(self._rngs[activity])
        finally:
            _places._dirty_sink = previous
        tracer.emit(
            _trace.ACTIVITY_FIRE,
            time=self.clock.now,
            activity=activity.qualified_name,
            timed=isinstance(activity, TimedActivity),
            writes=self._write_names(written),
        )
        self._completions += 1
        self._notify_impulse(activity)

    def _write_names(self, written: set) -> List[str]:
        """Canonical place names for a set of written cells.

        Joined places share one cell; the lexicographically first
        qualified name is the canonical alias, keeping traces stable
        across engines and join orders.
        """
        if self._cell_names is None:
            names: Dict[int, str] = {}
            for qualified, place in self.model.places().items():
                key = id(place._cell)
                current = names.get(key)
                if current is None or qualified < current:
                    names[key] = qualified
            self._cell_names = names
        names = self._cell_names
        return sorted(names[key] for key in map(id, written) if key in names)

    def _chain_error(self, activity: Activity) -> SimulationError:
        return SimulationError(
            f"instantaneous chain exceeded {self.max_instantaneous_chain} "
            f"completions at t={self.clock.now}; last activity was "
            f"{activity.qualified_name!r} — the model likely livelocks"
        )

    def _settle_instantaneous(self) -> None:
        """Complete enabled instantaneous activities until quiescence."""
        chain = 0
        while True:
            fired = False
            for activity in self._instantaneous:
                if activity.enabled():
                    self._complete(activity)
                    fired = True
                    chain += 1
                    if chain > self.max_instantaneous_chain:
                        raise self._chain_error(activity)
                    break  # restart the priority scan after any state change
            if not fired:
                return

    def _reschedule_timed(self) -> None:
        """Abort disabled pending activities; schedule newly enabled ones.

        Activities with ``reactivation=True`` additionally resample
        while they stay enabled, so marking-dependent rates track the
        marking (Mobius reactivation semantics).  Every engine walks
        ``self._timed`` in registration order, so the schedule/cancel
        operation sequence — and hence event tie-breaking — is engine-
        independent.
        """
        tracer = _trace._ACTIVE
        for activity, key, rng in self._timed_rows:
            pending = self._pending.get(key)
            enabled = activity.enabled()
            if pending is not None and not enabled:
                self._queue.cancel(pending)
                del self._pending[key]
                if tracer is not None:
                    tracer.emit(_trace.ENGINE_CANCEL, time=self.clock.now,
                                activity=key)
            elif pending is not None and activity.reactivation:
                self._queue.cancel(pending)
                delay = activity.sample_delay(rng)
                self._pending[key] = self._queue.schedule(
                    self.clock.now + delay, activity
                )
                if tracer is not None:
                    tracer.emit(_trace.ENGINE_SCHEDULE, time=self.clock.now,
                                activity=key, at=self.clock.now + delay)
            elif pending is None and enabled:
                delay = activity.sample_delay(rng)
                event = self._queue.schedule(self.clock.now + delay, activity)
                self._pending[key] = event
                if tracer is not None:
                    tracer.emit(_trace.ENGINE_SCHEDULE, time=self.clock.now,
                                activity=key, at=self.clock.now + delay)

    def _advance_rewards(self, until: float) -> None:
        now = self.clock.now
        if until > now and self._rate_rewards:
            # Rate functions are pure observers of the marking; run them
            # under a read sink so their extended-place reads are not
            # conservatively counted as writes.
            previous = _places._read_sink
            _places._read_sink = self._reward_reads
            try:
                for reward in self._rate_rewards:
                    reward.observe(now, until)
            finally:
                _places._read_sink = previous

    def _notify_impulse(self, activity: Activity) -> None:
        if self._impulse_rewards:
            now = self.clock.now
            previous = _places._read_sink
            _places._read_sink = self._reward_reads
            try:
                for reward in self._impulse_rewards:
                    reward.on_completion(activity.qualified_name, now)
            finally:
                _places._read_sink = previous

    def _ensure_started(self) -> None:
        if not self._started:
            self._settle_instantaneous()
            self._reschedule_timed()
            self._started = True

    # -- out-of-band mutation boundary ---------------------------------------

    def _sync_in(self) -> None:
        """Entering a public call: engines that cache enablement distrust
        it here if places changed outside (rescan caches nothing)."""

    def _sync_out(self) -> None:
        """Leaving a public call: record the marking the cache reflects."""

    # -- stepping -------------------------------------------------------------

    def _step(self) -> bool:
        profiler = _profile._ACTIVE
        if profiler is not None:
            return self._step_profiled(profiler)
        self._ensure_started()
        head = self._queue.peek()
        if head is None:
            return False
        event = self._queue.pop()
        activity: TimedActivity = event.payload
        del self._pending[activity.qualified_name]
        self._advance_rewards(event.time)
        self.clock.advance_to(event.time)
        self._complete(activity)
        self._settle_instantaneous()
        self._reschedule_timed()
        return True

    def _step_profiled(self, profiler: "_profile.SimProfiler") -> bool:
        """The `_step` body with per-phase wall-clock attribution."""
        self._ensure_started()
        head = self._queue.peek()
        if head is None:
            return False
        event = self._queue.pop()
        activity: TimedActivity = event.payload
        del self._pending[activity.qualified_name]
        t0 = perf_counter()
        self._advance_rewards(event.time)
        t1 = perf_counter()
        self.clock.advance_to(event.time)
        self._complete(activity)
        t2 = perf_counter()
        self._settle_instantaneous()
        t3 = perf_counter()
        self._reschedule_timed()
        t4 = perf_counter()
        profiler.add_time("engine.rewards", t1 - t0)
        profiler.add_time("engine.completion", t2 - t1)
        profiler.add_time("engine.settle", t3 - t2)
        profiler.add_time("engine.reschedule", t4 - t3)
        profiler.count("engine.events")
        return True

    def step(self) -> bool:
        """Process the next timed completion.

        Returns:
            True if an event was processed; False if no event is pending
            (the simulation is quiescent).
        """
        self._sync_in()
        base = _gates._EVALUATIONS
        try:
            return self._step()
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - base
            self._sync_out()

    def run(self, until: float) -> None:
        """Run until simulated time ``until``.

        Events at exactly ``until`` are *not* processed (the interval is
        half-open), so rate rewards integrate exactly ``until`` time
        units from a zero start.
        """
        if until < self.clock.now:
            raise SimulationError(
                f"cannot run to t={until}: clock is already at {self.clock.now}"
            )
        self._sync_in()
        base = _gates._EVALUATIONS
        try:
            self._ensure_started()
            queue = self._queue
            while True:
                head = queue.peek()
                if head is None or head.time >= until:
                    break
                self._step()
            self._advance_rewards(until)
            self.clock.advance_to(until)
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - base
            self._sync_out()

    def run_to_quiescence(self, max_events: int = 10_000_000) -> None:
        """Run until no timed activity is pending (absorbing marking)."""
        self._sync_in()
        base = _gates._EVALUATIONS
        try:
            self._ensure_started()
            for _ in range(max_events):
                if not self._step():
                    return
            raise SimulationError(
                f"no quiescence after {max_events} events at t={self.clock.now}"
            )
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - base
            self._sync_out()
