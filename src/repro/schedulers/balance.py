"""Balance scheduling (Sukwong & Kim, EuroSys 2011 — [1] in the paper).

Sukwong & Kim observed that synchronization latency explodes when
sibling VCPUs are *stacked* in the run queue of the same physical CPU:
a lock holder and a lock waiter then serialize behind one another.
Balance scheduling keeps per-PCPU run queues and places sibling VCPUs
on **distinct** PCPUs (when there are at least as many PCPUs as the
VM's VCPUs), without forcing co-start/co-stop — a middle ground
between plain round-robin and co-scheduling.

This is a related-work extension of the reproduction: the paper
discusses the algorithm (§I, §II.B) but does not evaluate it; the
scheduler-zoo ablation bench does.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView


class BalanceScheduler(SchedulingAlgorithm):
    """Per-PCPU run queues with sibling anti-stacking placement."""

    name = "balance"
    # Per-PCPU queues only change when a VCPU goes inactive or a PCPU
    # idles; a fully assigned host offers neither, whether its holders
    # are BUSY or READY (placement reads only ``active``).
    tick_skip_safe = True

    def __init__(self, timeslice: int = 30) -> None:
        super().__init__(timeslice)
        self._runqueues: Dict[int, deque] = {}
        self._queued: set = set()

    def reset(self) -> None:
        super().reset()
        self._runqueues.clear()
        self._queued.clear()

    def _pick_queue(
        self,
        view: VCPUHostView,
        vcpus: List[VCPUHostView],
        placement: Dict[int, int],
        num_pcpu: int,
    ) -> int:
        """Choose a run queue avoiding the VCPU's siblings, then shortest.

        ``placement`` maps vcpu_id -> pcpu_id for VCPUs that are running
        or already enqueued, so anti-stacking sees the full picture.
        """
        sibling_pcpus = {
            placement[v.vcpu_id]
            for v in vcpus
            if v.vm_id == view.vm_id and v.vcpu_id != view.vcpu_id and v.vcpu_id in placement
        }
        candidates = [p for p in range(num_pcpu) if p not in sibling_pcpus]
        if not candidates:  # more siblings than PCPUs: stacking unavoidable
            candidates = list(range(num_pcpu))
        return min(candidates, key=lambda p: (len(self._runqueues[p]), p))

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        for pcpu in range(num_pcpu):
            self._runqueues.setdefault(pcpu, deque())

        # Current placement: running VCPUs pin their PCPU; queued VCPUs
        # claim the queue they wait in.
        placement: Dict[int, int] = {
            v.vcpu_id: v.pcpu for v in vcpus if v.active and v.pcpu is not None
        }
        for pcpu, queue in self._runqueues.items():
            for vcpu_id in queue:
                placement[vcpu_id] = pcpu

        # Enqueue newly inactive VCPUs on a sibling-free (then shortest)
        # queue, in dispatch order for rotation fairness.
        newly_inactive = [
            v for v in vcpus if not v.active and v.vcpu_id not in self._queued
        ]
        for view in self.requeue_order(newly_inactive):
            pcpu = self._pick_queue(view, vcpus, placement, num_pcpu)
            self._runqueues[pcpu].append(view.vcpu_id)
            self._queued.add(view.vcpu_id)
            placement[view.vcpu_id] = pcpu

        # Each idle PCPU takes the head of its own run queue.
        decided = False
        by_id = {view.vcpu_id: view for view in vcpus}
        for pcpu_view in pcpus:
            if not pcpu_view.idle:
                continue
            queue = self._runqueues[pcpu_view.pcpu_id]
            while queue:
                vcpu_id = queue.popleft()
                self._queued.discard(vcpu_id)
                view = by_id[vcpu_id]
                if view.active:
                    continue
                self.start(view, pcpu=pcpu_view.pcpu_id)
                decided = True
                break
        return decided
