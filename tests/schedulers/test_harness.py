"""Unit tests for the scheduler-testing harness itself."""

import pytest

from repro.errors import SchedulingError
from repro.schedulers import (
    FunctionScheduler,
    RoundRobinScheduler,
    SchedulerHarness,
)


def test_basic_dispatch_and_accounting():
    h = SchedulerHarness(RoundRobinScheduler(timeslice=10), topology=[1], num_pcpus=1)
    h.run(10)
    assert h.active_time[0] == 10
    assert h.busy_time[0] == 10
    assert h.pcpu_utilization() == pytest.approx(1.0)


def test_unsaturated_run_counts_ready_time():
    h = SchedulerHarness(RoundRobinScheduler(timeslice=100), topology=[1], num_pcpus=1)
    h.set_load(0, 3)
    h.run(10, saturated=False)
    assert h.busy_time[0] == 3
    assert h.active_time[0] == 10  # holds the PCPU even when idle


def test_availability_and_assignment_probes():
    h = SchedulerHarness(RoundRobinScheduler(timeslice=5), topology=[1, 1], num_pcpus=1)
    h.run(20)
    assert set(h.assignment().values()) <= {0}
    assert h.availability(0) + h.availability(1) == pytest.approx(1.0)


def test_bad_topology_rejected():
    with pytest.raises(SchedulingError):
        SchedulerHarness(RoundRobinScheduler(), topology=[], num_pcpus=1)
    with pytest.raises(SchedulingError):
        SchedulerHarness(RoundRobinScheduler(), topology=[1], num_pcpus=0)


def test_explicit_pcpu_request_honoured():
    def pin(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        v = vcpus[0]
        if not v.active:
            v.schedule_in = True
            v.next_timeslice = 3
            v.next_pcpu = 1
        return True

    h = SchedulerHarness(FunctionScheduler("pin", pin), topology=[1], num_pcpus=2)
    h.saturate()
    h.tick()
    assert h.assignment() == {0: 1}
