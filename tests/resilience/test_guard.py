"""Unit tests for the scheduler decision guard."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.resilience import GUARD_MODES, GuardedScheduler, GuardPolicy
from repro.resilience.failures import FailureKind
from repro.schedulers import FunctionScheduler, PCPUState, RoundRobinScheduler
from repro.schedulers.interface import PCPUView, VCPUHostView, validate_decisions


def make_views(num_vcpu=2, num_pcpu=2):
    vcpus = [
        VCPUHostView(vcpu_id=i, vm_id=0, vcpu_index=i, status="ready", remaining_load=5)
        for i in range(num_vcpu)
    ]
    pcpus = [PCPUView(pcpu_id=i) for i in range(num_pcpu)]
    return vcpus, pcpus


def crasher(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
    raise ValueError("kaboom")


def double_assigner(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
    for v in vcpus[:2]:
        v.schedule_in = True
        v.next_pcpu = 0
        v.next_timeslice = 1
    return True


class TestGuardPolicy:
    def test_modes_constant(self):
        assert GUARD_MODES == ("fail_fast", "degrade")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GuardPolicy(mode="yolo").validate()
        with pytest.raises(ConfigurationError):
            GuardPolicy(quarantine_after=0).validate()
        GuardPolicy().validate()

    def test_round_trip(self):
        policy = GuardPolicy(mode="degrade", quarantine_after=7)
        assert GuardPolicy.from_dict(policy.to_dict()) == policy

    def test_guard_rejects_non_algorithm(self):
        with pytest.raises(ConfigurationError):
            GuardedScheduler(object())


class TestFailFast:
    def test_exception_reraised_as_scheduling_error(self):
        guard = GuardedScheduler(FunctionScheduler("boom", crasher))
        vcpus, pcpus = make_views()
        with pytest.raises(SchedulingError, match="kaboom"):
            guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), 1.0)
        assert len(guard.failures) == 1
        failure = guard.failures[0]
        assert failure.kind == FailureKind.EXCEPTION
        assert failure.sim_time == 1.0
        assert "ValueError" in failure.message

    def test_invalid_decision_classified(self):
        guard = GuardedScheduler(FunctionScheduler("dup", double_assigner))
        vcpus, pcpus = make_views()
        with pytest.raises(SchedulingError):
            guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), 2.0)
        assert guard.failures[0].kind == FailureKind.INVALID_DECISION

    def test_clean_scheduler_untouched(self):
        guard = GuardedScheduler(RoundRobinScheduler(timeslice=5))
        vcpus, pcpus = make_views()
        guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), 0.0)
        assert guard.failures == []
        assert not guard.quarantined


class TestDegrade:
    def test_faulty_tick_decisions_cleared(self):
        policy = GuardPolicy(mode="degrade", quarantine_after=10)
        guard = GuardedScheduler(FunctionScheduler("dup", double_assigner), policy)
        vcpus, pcpus = make_views()
        guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), 0.0)
        # The invalid decisions were discarded wholesale.
        for view in vcpus:
            assert not view.schedule_in and not view.schedule_out
            assert view.next_pcpu is None and view.next_timeslice is None
        assert len(guard.failures) == 1
        assert not guard.quarantined

    def test_quarantine_after_consecutive_faults(self):
        policy = GuardPolicy(mode="degrade", quarantine_after=3)
        guard = GuardedScheduler(FunctionScheduler("boom", crasher), policy)
        vcpus, pcpus = make_views()
        for tick in range(3):
            guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), float(tick))
        assert guard.quarantined
        # Post-quarantine, the round-robin fallback actually schedules.
        vcpus, pcpus = make_views()
        guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), 10.0)
        assert any(v.schedule_in for v in vcpus)
        # And the inner algorithm is never consulted again (no new faults).
        assert len(guard.failures) == 3

    def test_success_resets_consecutive_counter(self):
        calls = {"n": 0}

        def flaky(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise RuntimeError("every other tick")
            return False

        policy = GuardPolicy(mode="degrade", quarantine_after=2)
        guard = GuardedScheduler(FunctionScheduler("flaky", flaky), policy)
        vcpus, pcpus = make_views()
        for tick in range(6):  # fault, ok, fault, ok, ... never 2 in a row
            guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), float(tick))
        assert not guard.quarantined
        assert len(guard.failures) == 3

    def test_reset_clears_quarantine(self):
        policy = GuardPolicy(mode="degrade", quarantine_after=1)
        guard = GuardedScheduler(FunctionScheduler("boom", crasher), policy)
        vcpus, pcpus = make_views()
        guard.schedule(vcpus, len(vcpus), pcpus, len(pcpus), 0.0)
        assert guard.quarantined
        guard.reset()
        assert not guard.quarantined
        assert guard.failures == []


class TestValidateDecisions:
    def test_conflicting_in_and_out(self):
        vcpus, pcpus = make_views()
        vcpus[0].schedule_in = True
        vcpus[0].schedule_out = True
        with pytest.raises(SchedulingError, match="both"):
            validate_decisions(vcpus, pcpus, len(pcpus))

    def test_double_assignment_same_pcpu(self):
        vcpus, pcpus = make_views()
        for v in vcpus:
            v.schedule_in = True
            v.next_pcpu = 0
            v.next_timeslice = 1
        with pytest.raises(SchedulingError):
            validate_decisions(vcpus, pcpus, len(pcpus))

    def test_out_of_range_pcpu(self):
        vcpus, pcpus = make_views()
        vcpus[0].schedule_in = True
        vcpus[0].next_pcpu = 99
        vcpus[0].next_timeslice = 1
        with pytest.raises(SchedulingError):
            validate_decisions(vcpus, pcpus, len(pcpus))

    def test_assignment_to_failed_pcpu(self):
        vcpus, pcpus = make_views()
        pcpus[0].state = PCPUState.FAILED
        vcpus[0].schedule_in = True
        vcpus[0].next_pcpu = 0
        vcpus[0].next_timeslice = 1
        with pytest.raises(SchedulingError, match="FAILED"):
            validate_decisions(vcpus, pcpus, len(pcpus))

    def test_timeslice_below_one(self):
        vcpus, pcpus = make_views()
        vcpus[0].schedule_in = True
        vcpus[0].next_timeslice = 0
        with pytest.raises(SchedulingError):
            validate_decisions(vcpus, pcpus, len(pcpus))

    def test_valid_decisions_pass(self):
        vcpus, pcpus = make_views()
        vcpus[0].schedule_in = True
        validate_decisions(vcpus, pcpus, len(pcpus))
