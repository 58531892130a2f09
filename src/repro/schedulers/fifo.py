"""FIFO run-to-completion scheduling.

The simplest possible baseline for ablations: VCPUs are dispatched in
arrival order and keep their PCPU until they finish the current
workload (no timeslice preemption).  A dispatched VCPU that goes READY
(its load completed) relinquishes the PCPU on the next tick.

This scheduler exists to anchor the scheduler-zoo ablation: it shows
what happens with *no* multiplexing policy at all — extreme unfairness
under contention — which makes the fairness gains of RRS and the
latency gains of co-scheduling easy to see.
"""

from __future__ import annotations

from collections import deque
from typing import List

from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView, VCPUStatus


class FifoScheduler(SchedulingAlgorithm):
    """Arrival-order dispatch, release on workload completion."""

    name = "fifo"
    # All PCPUs assigned to BUSY VCPUs: no READY active to release,
    # nothing newly inactive, zero free PCPUs — a value-level no-op (the
    # queue is rebuilt but unchanged).  A READY holder is released on
    # the next tick, so quiet_ticks refuses any span holding one.
    tick_skip_safe = True

    # Effectively "no preemption": the granted timeslice exceeds any
    # realistic simulation length, so only the READY-release below ever
    # takes a PCPU away.
    RUN_TO_COMPLETION = 2**31

    def __init__(self, timeslice: int = 30) -> None:
        # The timeslice argument is accepted for interface uniformity but
        # unused: FIFO is deliberately non-preemptive.
        super().__init__(timeslice)
        self._queue: deque = deque()
        self._queued: set = set()

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._queued.clear()

    def quiet_ticks(self, active, slot_map, now, limit, ready=()) -> int:
        return 0 if ready else limit

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        decided = False

        # Release PCPUs held by VCPUs that finished their load.  (A READY
        # VCPU holds no work; under FIFO it yields instead of idling.)
        for view in vcpus:
            if view.active and view.status == VCPUStatus.READY:
                self.stop(view)
                decided = True

        newly_inactive = [
            v
            for v in vcpus
            if (not v.active or v.schedule_out) and v.vcpu_id not in self._queued
        ]
        for view in self.requeue_order(newly_inactive):
            self._queue.append(view.vcpu_id)
            self._queued.add(view.vcpu_id)

        stopping = sum(1 for v in vcpus if v.schedule_out and v.active)
        free = self.free_pcpu_count(pcpus) + stopping
        by_id = {view.vcpu_id: view for view in vcpus}
        skipped: List[int] = []
        while free > 0 and self._queue:
            vcpu_id = self._queue.popleft()
            view = by_id[vcpu_id]
            if view.active and not view.schedule_out:
                self._queued.discard(vcpu_id)
                continue
            if view.schedule_out:
                # Released this tick; it may not restart in the same tick.
                skipped.append(vcpu_id)
                continue
            self._queued.discard(vcpu_id)
            self.start(view, timeslice=self.RUN_TO_COMPLETION)
            free -= 1
            decided = True
        self._queue = deque(skipped + list(self._queue))
        return decided
