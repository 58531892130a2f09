"""Lightweight per-subsystem profiling: wall-clock timers and counters.

A :class:`SimProfiler` accumulates named counters and elapsed-seconds
buckets while a run executes.  Instrumented sections — the simulator's
per-event phases (reward integration, completion, instantaneous
settling, timed rescheduling) and the hypervisor's ``Scheduling_Func``
gate — check the module-level ``_ACTIVE`` reference exactly like the
tracer does, so profiling is zero-overhead when off.

Results surface through ``Simulation.stats()`` and the CLI's
``--profile`` flag.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional


class SimProfiler:
    """Named wall-clock timers and event counters for one run.

    Example:
        >>> prof = SimProfiler()
        >>> with prof.section("scheduling_func"):
        ...     pass
        >>> prof.count("sched.ticks")
        >>> sorted(prof.stats()["counters"])
        ['sched.ticks']
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, dt: float) -> None:
        """Accumulate elapsed seconds into a named bucket."""
        self.seconds[name] = self.seconds.get(name, 0.0) + dt

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time a block into the ``name`` bucket (and count its entries)."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add_time(name, perf_counter() - start)
            self.count(name)

    def clear(self) -> None:
        self.counters.clear()
        self.seconds.clear()

    def stats(self) -> Dict[str, Any]:
        """Machine-readable snapshot (sorted for stable output)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "seconds": {k: round(v, 6) for k, v in sorted(self.seconds.items())},
        }

    def table(self) -> str:
        """Human-readable two-column summary for the CLI."""
        lines: List[str] = ["profile:"]
        for name, total in sorted(self.seconds.items(),
                                  key=lambda kv: kv[1], reverse=True):
            calls = self.counters.get(name)
            suffix = f"  ({calls} calls)" if calls else ""
            lines.append(f"  {name:<32} {total * 1000:10.3f} ms{suffix}")
        for name, value in sorted(self.counters.items()):
            if name not in self.seconds:
                lines.append(f"  {name:<32} {value:10d}")
        return "\n".join(lines)


_ACTIVE: Optional[SimProfiler] = None


def active() -> Optional[SimProfiler]:
    """The currently installed profiler, or ``None`` (profiling off)."""
    return _ACTIVE


@contextmanager
def profiling(profiler: SimProfiler) -> Iterator[SimProfiler]:
    """Install ``profiler`` as the process-global active profiler."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    try:
        yield profiler
    finally:
        _ACTIVE = previous
