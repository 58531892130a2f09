"""In-memory spans around the program's public calls, and their analysis.

The program has no span API of its own yet, so the traced run records
spans from here: :func:`instrument` wraps a fixed set of public entry
points (one wrapper per layer boundary) and :func:`uninstrument` puts
the originals back, so untraced units run the unmodified program.

Spans are kept in memory.  A pool worker is a forked copy of the
benchmark process, so it inherits the wrappers; it appends its finished
replication spans to a spool file (one per worker pid) before its
result travels back, and :meth:`Recorder.collect` merges the spool into
the parent's list.  Worker replication spans carry the replication's
identity (spec digest, root seed, replication, attempt), which is how
they are hung under the parent's ``sweep.dispatch`` span.

Engine phases and the ``Scheduling_Func`` gate run thousands of times
per replication, so they are not spans: a profiler installed around
each ``SANSimulator.run`` (the program's own ``profiling`` hook) sums
them into attributes of that ``san.run`` span.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer of a span, by the first dotted component of its name.
LAYERS = (
    "loadgen",
    "service",
    "sweep",
    "cache",
    "framework",
    "stats",
    "san",
    "vmm",
    "schedulers",
    "vector",
)

_CURRENT: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
_SCHEDULER: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_scheduler", default=None
)


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "job", "attrs")

    def __init__(self, sid, parent, name, start, end=None, job=None, attrs=None):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.job = job
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Spans of one traced unit; per-process, safe across threads."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _fork_check(self) -> None:
        # A forked worker starts with a copy of the parent's spans; it
        # must ship only its own.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._lock = threading.Lock()

    def _new_id(self) -> str:
        return f"{self.pid}-{next(self._ids)}"

    @contextmanager
    def span(self, name: str, job: Optional[str] = None, **attrs: Any) -> Iterator[Span]:
        self._fork_check()
        record = Span(self._new_id(), _CURRENT.get(), name, time.perf_counter(),
                      job=job, attrs=attrs)
        token = _CURRENT.set(record.sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            _CURRENT.reset(token)
            with self._lock:
                self.spans.append(record)
            if record.parent is None and os.getpid() != _PARENT_PID[0]:
                self._spool()

    def add(self, name: str, start: float, end: float, parent: Optional[str] = None,
            job: Optional[str] = None, **attrs: Any) -> Span:
        """Record a span whose bounds were observed elsewhere (callbacks)."""
        record = Span(self._new_id(), parent, name, start, end, job, attrs)
        with self._lock:
            self.spans.append(record)
        return record

    def _spool(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        path = os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record.to_dict()) + "\n")

    def collect(self) -> List[Span]:
        """All spans of the unit: this process's plus every worker's."""
        spans = list(self.spans)
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    spans.append(Span(**json.loads(line)))
            os.remove(path)
        return spans

    def clear(self) -> None:
        self.spans = []


_PARENT_PID = [os.getpid()]
_ACTIVE: List[Recorder] = []


def current() -> Optional[Recorder]:
    """The installed recorder, or None when the unit is untraced."""
    return _ACTIVE[0] if _ACTIVE else None


def spec_digest(spec: Any) -> str:
    """A short digest of a spec's identity (matches workers to dispatches)."""
    text = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def replication_key(spec: Any, root_seed: int, replication: int, attempt: int) -> str:
    """Identity of one replication attempt, as a worker sees it."""
    return f"{spec_digest(spec)}/{root_seed}/{replication}/{attempt}"


# -- wrappers ----------------------------------------------------------------

_PATCHES: List[Tuple[Any, str, Any]] = []


def _patch(owner: Any, attribute: str, make: Callable[[Any], Any]) -> None:
    original = getattr(owner, attribute)
    _PATCHES.append((owner, attribute, original))
    setattr(owner, attribute, make(original))


def instrument(recorder: Recorder) -> None:
    """Install the layer-boundary wrappers, recording into ``recorder``."""
    if _ACTIVE:
        raise RuntimeError("spans are already instrumented")
    _ACTIVE.append(recorder)
    _PARENT_PID[0] = os.getpid()

    import repro.core.experiment as experiment
    import repro.core.framework as framework
    import repro.core.sweeps as sweeps
    import repro.metrics.stats as stats
    import repro.san as san
    import repro.san.compiled as compiled
    import repro.san.simulator as simulator
    import repro.service.client as client
    import repro.service.server as server
    from repro.observability.profile import SimProfiler, profiling
    from repro.resilience.executor import retry_seed
    from repro.resilience.result_cache import ResultCache

    seen_simulators: "weakref.WeakSet[Any]" = weakref.WeakSet()

    # repro.core.framework: Simulation(...) build vs model-cache reuse.
    base = framework.Simulation

    class TracedSimulation(base):  # type: ignore[misc, valid-type]
        def __init__(self, spec, *args, **kwargs):
            with recorder.span("framework.build", scheduler=spec.scheduler) as record:
                super().__init__(spec, *args, **kwargs)
                if self.simulator in seen_simulators:
                    record.name = "framework.reuse"
                seen_simulators.add(self.simulator)

        def run(self):
            before = self.simulator.stats()
            token = _SCHEDULER.set(self.spec.scheduler)
            try:
                with recorder.span("framework.run", scheduler=self.spec.scheduler) as record:
                    result = super().run()
            finally:
                _SCHEDULER.reset(token)
            after = self.simulator.stats()
            record.attrs.update(
                completions=after["completions"],
                gate_evaluations=after["gate_evaluations"] - before["gate_evaluations"],
                ticks_fired=after["ticks_fired"] - before["ticks_fired"],
                ticks_fast_forwarded=(
                    after["ticks_fast_forwarded"] - before["ticks_fast_forwarded"]
                ),
            )
            return result

    TracedSimulation.__name__ = base.__name__
    TracedSimulation.__qualname__ = base.__qualname__
    _PATCHES.append((framework, "Simulation", base))
    framework.Simulation = TracedSimulation

    def wrap_simulate_once(original):
        @functools.wraps(original)
        def simulate_once(spec, replication=0, root_seed=0, *args, **kwargs):
            attempt = kwargs.get("attempt", 0)
            with recorder.span(
                "framework.replication",
                key=replication_key(spec, root_seed, replication, attempt),
            ):
                return original(spec, replication, root_seed, *args, **kwargs)

        return simulate_once

    _patch(framework, "simulate_once", wrap_simulate_once)

    # repro.san: SANSimulator.run, with the engine phases and the
    # Scheduling_Func gate (repro.vmm) and the algorithm inside it
    # (repro.schedulers) summed by a profiler.
    def wrap_run(original):
        @functools.wraps(original)
        def run(self, until):
            scheduler = _SCHEDULER.get()
            if scheduler is None:  # not run by a Simulation
                return original(self, until)
            profiler = SimProfiler()
            with recorder.span("san.run", scheduler=scheduler) as record:
                with profiling(profiler):
                    result = original(self, until)
            record.attrs.update(profile_seconds=dict(profiler.seconds),
                                profile_counts=dict(profiler.counters))
            return result

        return run

    for cls in (simulator.SANSimulator, compiled.CompiledSANSimulator):
        if "run" in vars(cls):
            _patch(cls, "run", wrap_run)

    # repro.san.vector and repro.san.exprs: run_lanes, which hands fully-IR
    # lanes to the vectorized kernels.
    def wrap_run_lanes(original):
        @functools.wraps(original)
        def run_lanes(lanes, until, *args, **kwargs):
            with recorder.span("vector.run", lanes=len(lanes)) as record:
                stats = original(lanes, until, *args, **kwargs)
            record.attrs["vectorized"] = stats.get("vectorized", 0)
            return stats

        return run_lanes

    for owner in (compiled, san, framework):
        _patch(owner, "run_lanes", wrap_run_lanes)

    # repro.core.sweeps / repro.resilience.executor: points and sweeps.
    def wrap_run_experiment(original):
        @functools.wraps(original)
        def run_experiment(spec, *args, **kwargs):
            with recorder.span("sweep.point", scheduler=spec.scheduler) as record:
                result = original(spec, *args, **kwargs)
            record.attrs["replications"] = result.replications
            return result

        return run_experiment

    _patch(experiment, "run_experiment", wrap_run_experiment)

    def wrap_sweep(original):
        @functools.wraps(original)
        def run_interleaved_sweep(points, *args, **kwargs):
            job = kwargs.get("label")
            jobs = kwargs["pool"].jobs if kwargs.get("pool") else kwargs.get("sweep_jobs") or 1
            open_dispatches: Dict[Tuple[int, int, int], float] = {}
            digests = [spec_digest(spec) for _point, spec in points]
            root_seed = kwargs.get("root_seed", 0)
            user_progress = kwargs.get("progress")
            with recorder.span("sweep.run", job=job, jobs=jobs) as record:
                parent = record.sid

                def progress(event):
                    now = time.perf_counter()
                    ident = (event["point"], event["replication"], event["attempt"])
                    if event["event"] == "dispatch":
                        open_dispatches[ident] = now
                    elif ident in open_dispatches:
                        point, replication, attempt = ident
                        seed = retry_seed(root_seed, replication, attempt)
                        recorder.add(
                            "sweep.dispatch", open_dispatches.pop(ident), now,
                            parent=parent, job=job,
                            key=f"{digests[point]}/{seed}/{replication}/{attempt}",
                        )
                    if user_progress is not None:
                        user_progress(event)

                kwargs["progress"] = progress
                outcome = original(points, *args, **kwargs)
            record.attrs.update(
                dispatches=outcome.stats.dispatches,
                executed=outcome.stats.executed,
                cache_hits=outcome.stats.cache_hits,
                replications=sum(r.replications for r in outcome.results),
            )
            return outcome

        return run_interleaved_sweep

    _patch(sweeps, "run_interleaved_sweep", wrap_sweep)
    _patch(server, "run_interleaved_sweep", wrap_sweep)

    # repro.metrics.stats: the convergence monitor (replications to target).
    def wrap_push(original):
        @functools.wraps(original)
        def push(self, metrics):
            with recorder.span("stats.push"):
                return original(self, metrics)

        return push

    _patch(stats.ConvergenceMonitor, "push", wrap_push)

    # repro.resilience.result_cache.
    def wrap_cache(name):
        def make(original):
            @functools.wraps(original)
            def method(self, key, *args):
                with recorder.span(name) as record:
                    result = original(self, key, *args)
                if name == "cache.load":
                    record.attrs["hit"] = result is not None
                return result

            return method

        return make

    _patch(ResultCache, "load", wrap_cache("cache.load"))
    _patch(ResultCache, "store", wrap_cache("cache.store"))

    # repro.service: every client request.
    def wrap_request(original):
        @functools.wraps(original)
        async def request(self, method, path, body=None):
            job = body.get("label") if isinstance(body, dict) else None
            with recorder.span("service.request", job=job, method=method, path=path):
                return await original(self, method, path, body)

        return request

    _patch(client.ServiceClient, "request", wrap_request)


def uninstrument() -> None:
    """Restore every wrapped attribute (reverse order)."""
    while _PATCHES:
        owner, attribute, original = _PATCHES.pop()
        setattr(owner, attribute, original)
    _ACTIVE.clear()


# -- analysis ----------------------------------------------------------------


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def link(spans: List[Span]) -> None:
    """Hang orphans under their causes: worker replications under their
    dispatch, job-thread sweeps under the load generator's job span."""
    dispatch_by_key = {s.attrs["key"]: s.sid for s in spans if s.name == "sweep.dispatch"}
    job_roots = {s.job: s.sid for s in spans if s.name == "loadgen.job"}
    for record in spans:
        if record.parent is not None:
            continue
        if record.name == "framework.replication":
            record.parent = dispatch_by_key.get(record.attrs.get("key"))
        elif record.job is not None and record.name != "loadgen.job":
            record.parent = job_roots.get(record.job)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds each layer spent in its own code, children excluded.

    Children of one span may overlap (concurrent dispatches), so a
    span's self time is its duration minus the union of its children's
    intervals, clipped to the span.  A ``san.run`` span's profiled
    ``Scheduling_Func`` seconds go to ``vmm``, and the algorithm's
    seconds inside them to ``schedulers``.
    """
    children: Dict[str, List[Span]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    totals = {layer: 0.0 for layer in LAYERS}
    totals["bench"] = 0.0
    for record in spans:
        covered = _union(
            [
                (max(child.start, record.start), min(child.end, record.end))
                for child in children.get(record.sid, [])
                if child.end > record.start and child.start < record.end
            ]
        )
        own = record.duration - covered
        if record.name == "san.run":
            seconds = record.attrs.get("profile_seconds", {})
            gate = seconds.get("vmm.scheduling_func", 0.0)
            algorithm = seconds.get("vmm.algorithm", 0.0)
            totals["vmm"] += gate - algorithm
            totals["schedulers"] += algorithm
            own -= gate
        layer = layer_of(record.name)
        totals[layer if layer in totals else "bench"] += own
    return totals


def coverage(spans: List[Span], root: Span) -> float:
    """Share of the root span's wall time covered by its child spans."""
    covered = _union(
        [(max(s.start, root.start), min(s.end, root.end))
         for s in spans if s.parent == root.sid]
    )
    return covered / root.duration if root.duration > 0 else 0.0
