"""Relaxed Co-Scheduling (RCS).

VMware ESX 3/4's refinement of strict co-scheduling ([2] in the paper).
The scheduler makes a best effort to co-start and co-stop a VM's
VCPUs, but when resources are short it may start a single VCPU alone.
To bound the resulting divergence it tracks a *cumulative skew* per
VCPU relative to its siblings; once a VCPU's skew grows past a
threshold, the VM falls back to co-start-only behaviour (leaders stop,
laggards catch up) until the skew drops below a lower threshold.

Implementation notes (ESX 4.1 "relaxed" semantics, per the white
paper the ICDCSW paper cites):

* *Progress* of a VCPU counts the ticks it holds a PCPU.  ``lag(v)`` is
  the gap between the furthest-ahead sibling's progress and v's.
* When ``max lag > skew_threshold``, the VM enters *catch-up*: every
  *leader* (a VCPU whose lead over the slowest sibling exceeds the
  relax threshold) self-co-stops and may not restart; laggards remain
  individually schedulable — with one PCPU, this is exactly what lets
  RCS drive a 2-VCPU VM that SCS cannot schedule at all (Figure 8),
  albeit with less PCPU share than unconstrained 1-VCPU VMs, because
  leaders give up the tail of their timeslice.
* Catch-up clears when ``max lag < relax_threshold``.
* Dispatch uses an RRS-style global FIFO, with opportunistic co-start:
  when a VCPU is dispatched and free PCPUs remain, queued siblings are
  pulled forward to start together.

The algorithm tracks progress itself (it is invoked every clock tick,
like the paper's C function), so it needs no framework support beyond
the standard view arrays.

**Clock fast-forward.**  Skew accounting runs every tick, so RCS is not
``tick_skip_safe``; it certifies quiet spans itself instead
(:meth:`RelaxedCoScheduler.quiet_ticks`).  While the active set is
fixed, an active VCPU's progress grows by exactly one per tick and an
inactive one's not at all, so every sibling lag over a candidate span
is known in advance.  A tick in which no SMP VM enters or leaves
catch-up and no active VCPU is a catch-up leader decides nothing, and
the skipped calls need no replay: the next real call credits the whole
gap ``timestamp - last`` to the same active set, which for integer
ticks is exactly the sum of the per-tick credits.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..observability import trace as _trace
from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView


class RelaxedCoScheduler(SchedulingAlgorithm):
    """Skew-bounded best-effort co-scheduling (ESX 3/4 style).

    Args:
        timeslice: PCPU tenure granted on dispatch.
        skew_threshold: lag (in ticks) that trips catch-up mode.  Must be
            positive; values below the timeslice make the constraint
            actually bind (the paper's behaviour).  The default of 10 (a
            third of the default timeslice) was calibrated so the
            reproduction matches the paper's Figure 8/10 placement of
            RCS: visibly penalized vs 1-VCPU VMs on a starved host, and
            between RRS and SCS on VCPU utilization.  The paper does not
            report VMware's thresholds.
        relax_threshold: lag below which catch-up mode clears and above
            which a VCPU counts as a leader during catch-up.  Must be
            < skew_threshold.
    """

    name = "rcs"

    def __init__(
        self,
        timeslice: int = 30,
        skew_threshold: int = 10,
        relax_threshold: int = 5,
    ) -> None:
        super().__init__(timeslice)
        if skew_threshold <= 0:
            raise SchedulingError(f"skew_threshold must be > 0, got {skew_threshold}")
        if not 0 <= relax_threshold < skew_threshold:
            raise SchedulingError(
                "relax_threshold must satisfy 0 <= relax < skew "
                f"(got relax={relax_threshold}, skew={skew_threshold})"
            )
        self.skew_threshold = int(skew_threshold)
        self.relax_threshold = int(relax_threshold)
        self._queue: deque = deque()
        self._queued: set = set()
        self._progress: Dict[int, float] = {}
        self._catching_up: set = set()  # vm_ids currently in catch-up mode
        self._was_active: set = set()
        self._last_timestamp: Optional[float] = None

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._queued.clear()
        self._progress.clear()
        self._catching_up.clear()
        self._was_active.clear()
        self._last_timestamp = None

    # -- skew bookkeeping --------------------------------------------------

    def _update_progress(self, vcpus: List[VCPUHostView], timestamp: float) -> None:
        """Credit progress to every VCPU that held a PCPU since last tick."""
        if self._last_timestamp is not None:
            dt = timestamp - self._last_timestamp
            if dt > 0:
                for vcpu_id in self._was_active:
                    self._progress[vcpu_id] = self._progress.get(vcpu_id, 0.0) + dt
        self._last_timestamp = timestamp
        self._was_active = {v.vcpu_id for v in vcpus if v.active}

    def _lags(self, siblings: List[VCPUHostView]) -> Dict[int, float]:
        """Per-VCPU lag behind the furthest-ahead sibling."""
        progress = {v.vcpu_id: self._progress.get(v.vcpu_id, 0.0) for v in siblings}
        front = max(progress.values())
        return {vcpu_id: front - p for vcpu_id, p in progress.items()}

    def _tick_is_quiet(self, vm_id: int, progress: Sequence[float],
                       active: Sequence[bool]) -> bool:
        """Would one SMP VM's catch-up step decide nothing at this progress?

        Quiet means catch-up mode does not flip — outside it, the lag
        stays within ``skew_threshold``; inside, it stays at or above
        ``relax_threshold`` — and no *active* sibling is a leader that
        catch-up would co-stop.  (Inactive leaders are only skipped by
        dispatch, and a quiet span has no free PCPU to dispatch onto.)
        """
        slowest = min(progress)
        max_lag = max(progress) - slowest
        if vm_id not in self._catching_up:
            return max_lag <= self.skew_threshold
        if max_lag < self.relax_threshold:
            return False
        relax = self.relax_threshold
        for p, is_active in zip(progress, active):
            if is_active and p - slowest > relax:
                return False
        return True

    @staticmethod
    def _smp_vms(slot_map: Sequence[Tuple[int, int]]) -> List[Tuple[int, List[int]]]:
        """``(vm_id, sibling ids)`` per SMP VM, in :meth:`by_vm` order."""
        groups: Dict[int, List[int]] = {}
        for vcpu_id, (vm_id, _index) in enumerate(slot_map):
            groups.setdefault(vm_id, []).append(vcpu_id)
        return [(vm_id, ids) for vm_id, ids in groups.items() if len(ids) >= 2]

    def quiet_ticks(self, active, slot_map, now, limit, ready=()) -> int:
        """Leading ticks of ``now + 1 .. now + limit`` that decide nothing.

        ``ready`` needs no check: progress counts ticks a VCPU holds a
        PCPU, so a READY holder gains it exactly like a BUSY one.

        Refuses (0) unless skipping is replayable: a tick has been seen,
        the last tick's active set is the span's (so the next real
        call credits the whole gap to the right VCPUs), and every
        inactive VCPU is already queued (so no tick would enqueue one).
        Then tick ``j`` gives an active VCPU progress
        ``p + (now + j - last)`` and an inactive one ``p``; the count
        stops before the first tick some SMP VM is not quiet on.
        """
        last = self._last_timestamp
        if last is None:
            return 0
        active_set = set(active)
        if active_set != self._was_active:
            return 0
        queued = self._queued
        for vcpu_id in range(len(slot_map)):
            if vcpu_id not in active_set and vcpu_id not in queued:
                return 0
        quiet = limit
        get = self._progress.get
        for vm_id, ids in self._smp_vms(slot_map):
            flags = [vcpu_id in active_set for vcpu_id in ids]
            base = [get(vcpu_id, 0.0) for vcpu_id in ids]
            # All-active or all-inactive siblings keep their lags fixed
            # across the span, so the first tick speaks for all of them.
            horizon = quiet if any(flags) and not all(flags) else 1
            for j in range(1, horizon + 1):
                dt = (now + j) - last
                progress = [p + dt if f else p for p, f in zip(base, flags)]
                if not self._tick_is_quiet(vm_id, progress, flags):
                    quiet = j - 1
                    if quiet == 0:
                        return 0
                    break
        return quiet

    def trace_quiet_ticks(self, active, slot_map, now, ticks) -> None:
        """The ``sched.skew`` records of ``ticks`` skipped quiet ticks."""
        tracer = _trace._ACTIVE
        if tracer is None:
            return
        last = self._last_timestamp
        active_set = set(active)
        get = self._progress.get
        vms = [
            (vm_id, [(get(vcpu_id, 0.0), vcpu_id in active_set) for vcpu_id in ids])
            for vm_id, ids in self._smp_vms(slot_map)
        ]
        for j in range(1, ticks + 1):
            timestamp = now + j
            dt = timestamp - last
            for vm_id, siblings in vms:
                progress = [p + dt if f else p for p, f in siblings]
                tracer.emit(_trace.SCHED_SKEW, time=timestamp, vm=vm_id,
                            max_lag=max(progress) - min(progress),
                            catching_up=vm_id in self._catching_up)

    def skew_of(self, vcpu_id: int, vcpus: List[VCPUHostView]) -> float:
        """Public probe of a VCPU's current lag (used by tests/benches)."""
        target = next(v for v in vcpus if v.vcpu_id == vcpu_id)
        siblings = [v for v in vcpus if v.vm_id == target.vm_id]
        return self._lags(siblings)[vcpu_id]

    # -- the scheduling function --------------------------------------------

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        self._update_progress(vcpus, timestamp)
        decided = False
        vms = self.by_vm(vcpus)

        tracer = _trace._ACTIVE
        if tracer is not None:
            # Observability: the pre-decision sibling lag per SMP VM, the
            # quantity the skew-bound invariant asserts on.
            for vm_id, siblings in vms.items():
                if len(siblings) < 2:
                    continue
                tracer.emit(_trace.SCHED_SKEW, time=timestamp, vm=vm_id,
                            max_lag=max(self._lags(siblings).values()),
                            catching_up=vm_id in self._catching_up)

        # 1. Maintain catch-up mode and self-co-stop leaders.
        leaders: set = set()
        for vm_id, siblings in vms.items():
            if len(siblings) < 2:
                continue
            lags = self._lags(siblings)
            max_lag = max(lags.values())
            if vm_id in self._catching_up:
                if max_lag < self.relax_threshold:
                    self._catching_up.discard(vm_id)
            elif max_lag > self.skew_threshold:
                self._catching_up.add(vm_id)
            if vm_id in self._catching_up:
                slowest = min(
                    self._progress.get(v.vcpu_id, 0.0) for v in siblings
                )
                for view in siblings:
                    lead = self._progress.get(view.vcpu_id, 0.0) - slowest
                    if lead > self.relax_threshold:
                        leaders.add(view.vcpu_id)
                        if view.active:
                            self.stop(view)
                            decided = True

        # 2. Admit newly inactive VCPUs to the FIFO, in dispatch order so
        #    simultaneous timeslice expiries rotate fairly.
        newly_inactive = [
            v
            for v in vcpus
            if (not v.active or v.schedule_out) and v.vcpu_id not in self._queued
        ]
        for view in self.requeue_order(newly_inactive):
            self._queue.append(view.vcpu_id)
            self._queued.add(view.vcpu_id)

        # 3. Dispatch: FIFO order, skipping leaders of catching-up VMs;
        #    opportunistic co-start pulls queued siblings forward.
        stopping = sum(1 for v in vcpus if v.schedule_out and v.active)
        free = self.free_pcpu_count(pcpus) + stopping
        by_id = {view.vcpu_id: view for view in vcpus}
        skipped: List[int] = []
        started: set = set()
        while free > 0 and self._queue:
            vcpu_id = self._queue.popleft()
            view = by_id[vcpu_id]
            if view.active or view.vcpu_id in started:
                self._queued.discard(vcpu_id)
                continue
            if vcpu_id in leaders or view.schedule_out:
                skipped.append(vcpu_id)
                continue
            self._queued.discard(vcpu_id)
            self.start(view)
            started.add(vcpu_id)
            free -= 1
            decided = True
            # Best-effort co-start: bring queued, non-leader siblings along.
            for sibling in vms[view.vm_id]:
                if free == 0:
                    break
                sid = sibling.vcpu_id
                if (
                    sid != vcpu_id
                    and sid in self._queued
                    and sid not in leaders
                    and not sibling.active
                    and not sibling.schedule_out
                    and sid not in started
                ):
                    self._queue.remove(sid)
                    self._queued.discard(sid)
                    self.start(sibling)
                    started.add(sid)
                    free -= 1
        self._queue = deque(skipped + list(self._queue))
        return decided
