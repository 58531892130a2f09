"""A lightweight harness for exercising scheduling algorithms in isolation.

Users writing a new algorithm (the paper's "idea-based" evaluation
workflow) often want to poke it tick by tick without assembling the
full SAN system.  :class:`SchedulerHarness` is a miniature hypervisor:
it keeps the VCPU/PCPU state, performs the same timeslice accounting as
the real ``Scheduling_Func`` gate, hands the algorithm fresh view arrays
built from that state every tick (as the gate builds them from the
marking), resolves decisions with the gate's own
:func:`~repro.schedulers.interface.resolve_decisions`, and exposes
counters for quick fairness/utilization checks.

It deliberately has **no workload model** — drive loads by hand with
:meth:`set_load` — so tests can construct exact scenarios (e.g. "the
lock holder gets preempted mid-critical-section").

Example:
    >>> from repro.schedulers import RoundRobinScheduler
    >>> h = SchedulerHarness(RoundRobinScheduler(timeslice=2), topology=[1, 1], num_pcpus=1)
    >>> h.run(4)
    >>> h.active_time[0] == h.active_time[1]
    True
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from ..errors import SchedulingError
from .interface import (
    PCPUState,
    PCPUView,
    SchedulingAlgorithm,
    VCPUHostView,
    clear_decisions,
    resolve_decisions,
    vcpu_status,
)


class SchedulerHarness:
    """Drives one algorithm against synthetic VCPU/PCPU state.

    Args:
        algorithm: the algorithm under test.
        topology: VCPUs per VM (as for the real system builder).
        num_pcpus: physical CPU count.

    Attributes:
        views: the harness's own per-VCPU state, one
            :class:`~repro.schedulers.interface.VCPUHostView` each (read
            them; the algorithm only ever sees copies).
        pcpus: the harness's own per-PCPU state (mark one FAILED here to
            take it out of service).
        now: current tick (starts at 0; :meth:`tick` advances it first).
        active_time: per-VCPU ticks spent holding a PCPU.
        busy_time: per-VCPU ticks spent processing (load > 0 and active).
        pcpu_busy_time: per-PCPU ticks spent assigned.
    """

    def __init__(
        self,
        algorithm: SchedulingAlgorithm,
        topology: Sequence[int],
        num_pcpus: int,
    ) -> None:
        if num_pcpus < 1:
            raise SchedulingError(f"num_pcpus must be >= 1, got {num_pcpus}")
        if not topology or any(n < 1 for n in topology):
            raise SchedulingError(f"bad topology {topology!r}")
        self.algorithm = algorithm
        self.num_pcpus = int(num_pcpus)
        self.now = 0.0

        self.views: List[VCPUHostView] = []
        for vm_id, count in enumerate(topology):
            for vcpu_index in range(count):
                self.views.append(
                    VCPUHostView(
                        vcpu_id=len(self.views),
                        vm_id=vm_id,
                        vcpu_index=vcpu_index,
                    )
                )
        self.pcpus: List[PCPUView] = [PCPUView(pcpu_id=i) for i in range(num_pcpus)]
        self._loads: Dict[int, int] = {v.vcpu_id: 0 for v in self.views}
        self.active_time: Dict[int, int] = {v.vcpu_id: 0 for v in self.views}
        self.busy_time: Dict[int, int] = {v.vcpu_id: 0 for v in self.views}
        self.pcpu_busy_time: Dict[int, int] = {p.pcpu_id: 0 for p in self.pcpus}

    # -- scenario control ---------------------------------------------------

    def set_load(self, vcpu_id: int, load: int) -> None:
        """Give a VCPU ``load`` ticks of pending work."""
        if load < 0:
            raise SchedulingError(f"load must be >= 0, got {load}")
        self._loads[vcpu_id] = int(load)
        self._refresh_status(self.views[vcpu_id])

    def load_of(self, vcpu_id: int) -> int:
        """Remaining work of one VCPU."""
        return self._loads[vcpu_id]

    def saturate(self, load: int = 10**9) -> None:
        """Give every VCPU effectively infinite work (pure-contention runs)."""
        for view in self.views:
            self.set_load(view.vcpu_id, load)

    # -- the tick loop -------------------------------------------------------

    def tick(self) -> None:
        """Advance one time unit: account, schedule, apply, process.

        Unlike the SAN model (where a decision made at tick *t* takes
        effect from tick *t+1*), the harness applies decisions at the
        start of the tick, so a VCPU admitted on tick 1 accrues active
        time from tick 1 — which makes unit-test arithmetic exact.
        """
        self.now += 1.0

        # 1. Timeslice accounting (same rule as the SAN scheduler model).
        for view in self.views:
            if view.pcpu is None:
                continue
            view.timeslice -= 1
            if view.timeslice <= 0:
                self._release(view)

        # 2. The algorithm's decision, made on fresh copies of the state
        # and checked against the state itself, as the gate checks the
        # marking: whatever the algorithm writes into its views never
        # persists (a rejected tick raises before anything applies).
        vcpus = [replace(view) for view in self.views]
        clear_decisions(vcpus)
        pcpus = [replace(pcpu) for pcpu in self.pcpus]
        self.algorithm.schedule(vcpus, len(vcpus), pcpus, self.num_pcpus, self.now)
        outs, ins = resolve_decisions(
            vcpus,
            [view.pcpu for view in self.views],
            [pcpu.state for pcpu in self.pcpus],
            self.algorithm.timeslice,
            self.algorithm.name,
        )

        # 3. Apply: outs first, then ins.
        for vcpu_id in outs:
            self._release(self.views[vcpu_id])
        for vcpu_id, pcpu_index, timeslice in ins:
            view = self.views[vcpu_id]
            self.pcpus[pcpu_index].state = PCPUState.ASSIGNED
            self.pcpus[pcpu_index].vcpu = vcpu_id
            view.pcpu, view.timeslice = pcpu_index, timeslice
            view.last_scheduled_in = self.now
            self._refresh_status(view)

        # 4. Processing: every active VCPU with work burns one tick.
        for view in self.views:
            if view.pcpu is not None:
                self.active_time[view.vcpu_id] += 1
                self.pcpu_busy_time[view.pcpu] += 1
                if self._loads[view.vcpu_id] > 0:
                    self._loads[view.vcpu_id] -= 1
                    self.busy_time[view.vcpu_id] += 1
            self._refresh_status(view)

    def run(self, ticks: int, saturated: bool = True) -> None:
        """Run ``ticks`` time units; by default keeps all VCPUs loaded."""
        if saturated:
            self.saturate()
        for _ in range(ticks):
            self.tick()

    # -- internals -----------------------------------------------------------

    def _refresh_status(self, view: VCPUHostView) -> None:
        view.remaining_load = self._loads[view.vcpu_id]
        view.status = vcpu_status(view.pcpu, view.remaining_load)

    def _release(self, view: VCPUHostView) -> None:
        pcpu = self.pcpus[view.pcpu]
        pcpu.state = PCPUState.IDLE
        pcpu.vcpu = None
        view.pcpu = None
        view.timeslice = 0
        self._refresh_status(view)

    # -- observation -----------------------------------------------------------

    def active_ids(self) -> List[int]:
        """VCPU ids currently holding a PCPU."""
        return [v.vcpu_id for v in self.views if v.pcpu is not None]

    def assignment(self) -> Dict[int, int]:
        """Mapping vcpu_id -> pcpu_id for active VCPUs."""
        return {v.vcpu_id: v.pcpu for v in self.views if v.pcpu is not None}

    def availability(self, vcpu_id: int) -> float:
        """Active-time fraction of one VCPU so far."""
        if self.now == 0:
            return 0.0
        return self.active_time[vcpu_id] / self.now

    def pcpu_utilization(self) -> float:
        """Mean assigned fraction over all PCPUs so far."""
        if self.now == 0:
            return 0.0
        total = sum(self.pcpu_busy_time.values())
        return total / (self.now * self.num_pcpus)
