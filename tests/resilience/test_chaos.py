"""Unit tests for the deterministic fault-injection harness."""

import time

import pytest

from repro.des import StreamFactory
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.resilience import ChaosScheduler, ChaosSpec, CORRUPT_KINDS, InjectedFault
from repro.resilience import GuardPolicy, GuardState
from repro.resilience.failures import FailureKind
from repro.san import SANSimulator
from repro.schedulers import RoundRobinScheduler
from repro.schedulers.interface import PCPUView, VCPUHostView
from repro.vmm import build_vcpu_scheduler


def make_views(num_vcpu=3, num_pcpu=2):
    vcpus = [
        VCPUHostView(vcpu_id=i, vm_id=0, vcpu_index=i, status="ready", remaining_load=5)
        for i in range(num_vcpu)
    ]
    pcpus = [PCPUView(pcpu_id=i) for i in range(num_pcpu)]
    return vcpus, pcpus


def drive(chaos, timestamp):
    vcpus, pcpus = make_views()
    chaos.schedule(vcpus, len(vcpus), pcpus, len(pcpus), timestamp)
    return vcpus


class TestChaosSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(corrupt_kind="nonsense").validate()
        with pytest.raises(ConfigurationError):
            ChaosSpec(stall_seconds=-1).validate()
        with pytest.raises(ConfigurationError):
            ChaosSpec(fault_rate=1.5).validate()
        with pytest.raises(ConfigurationError):
            ChaosSpec(inject_after=-0.1).validate()
        ChaosSpec().validate()

    def test_round_trip(self):
        spec = ChaosSpec(
            seed=9,
            crash_replications=(1, 3),
            corrupt_replications=(2,),
            inject_after=50.0,
            corrupt_kind="conflict",
        )
        assert ChaosSpec.from_dict(spec.to_dict()) == spec


class TestInjection:
    def test_crash_fires_once_at_inject_after(self):
        spec = ChaosSpec(crash_replications=(0,), inject_after=100.0)
        chaos = ChaosScheduler(RoundRobinScheduler(), spec, replication=0)
        drive(chaos, 50.0)  # before the injection point: clean
        with pytest.raises(InjectedFault, match="t=100"):
            drive(chaos, 100.0)
        drive(chaos, 101.0)  # one-shot: the same instance never refires

    def test_untargeted_replication_untouched(self):
        spec = ChaosSpec(crash_replications=(1,))
        chaos = ChaosScheduler(RoundRobinScheduler(), spec, replication=0)
        drive(chaos, 0.0)
        drive(chaos, 1.0)

    def test_first_attempt_only_disarms_retries(self):
        spec = ChaosSpec(crash_replications=(0,))
        retry = ChaosScheduler(RoundRobinScheduler(), spec, replication=0, attempt=1)
        assert not retry.armed
        drive(retry, 0.0)  # no fault

    def test_every_attempt_when_configured(self):
        spec = ChaosSpec(crash_replications=(0,), first_attempt_only=False)
        retry = ChaosScheduler(RoundRobinScheduler(), spec, replication=0, attempt=5)
        with pytest.raises(InjectedFault):
            drive(retry, 0.0)

    def test_stall_sleeps_wall_clock(self):
        spec = ChaosSpec(stall_replications=(0,), stall_seconds=0.05)
        chaos = ChaosScheduler(RoundRobinScheduler(), spec, replication=0)
        start = time.monotonic()
        drive(chaos, 0.0)
        assert time.monotonic() - start >= 0.05
        start = time.monotonic()
        drive(chaos, 1.0)  # one-shot
        assert time.monotonic() - start < 0.05

    @pytest.mark.parametrize("kind", CORRUPT_KINDS)
    def test_corruption_is_caught_by_the_guard(self, kind):
        spec = ChaosSpec(corrupt_replications=(0,), corrupt_kind=kind)
        chaos = ChaosScheduler(RoundRobinScheduler(), spec, replication=0)
        model = build_vcpu_scheduler(chaos, 2, [1, 1, 1])
        model.guard = GuardState(GuardPolicy())
        with pytest.raises(SimulationError) as caught:
            SANSimulator(model, StreamFactory(0)).run(until=3.5)
        assert isinstance(caught.value.__cause__, SchedulingError)
        assert [(f.kind, f.sim_time) for f in model.guard.failures] == [
            (FailureKind.INVALID_DECISION, 1.0)
        ]

    def test_fault_rate_only_hits_targeted_replications(self):
        spec = ChaosSpec(crash_replications=(1,), fault_rate=1.0)
        bystander = ChaosScheduler(RoundRobinScheduler(), spec, replication=0)
        for tick in range(20):
            drive(bystander, float(tick))  # untargeted: never faults

    def test_fault_rate_is_deterministic(self):
        spec = ChaosSpec(seed=3, crash_replications=(0,), fault_rate=0.5)

        def first_fault_tick():
            chaos = ChaosScheduler(
                RoundRobinScheduler(), spec, replication=0, attempt=0
            )
            chaos._crashed = True  # isolate the rate-driven path
            for tick in range(200):
                try:
                    drive(chaos, float(tick))
                except InjectedFault:
                    return tick
            return None

        assert first_fault_tick() == first_fault_tick() is not None
