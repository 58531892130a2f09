"""The scheduler decision guard, as the ``Scheduling_Func`` gate enforces it."""

import sys

import pytest

from repro.core import SystemSpec, VMSpec, registry, simulate_once
from repro.des import StreamFactory
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.observability import SimTracer
from repro.resilience import GUARD_MODES, ChaosSpec, GuardPolicy, GuardState
from repro.resilience.failures import FailureKind
from repro.san import SANSimulator
from repro.schedulers import FunctionScheduler, PCPUState, RoundRobinScheduler
from repro.schedulers.interface import resolve_decisions
from repro.vmm import build_vcpu_scheduler

SPEC = SystemSpec(vms=[VMSpec(2), VMSpec(1)], pcpus=2, sim_time=60, warmup=0)


def crasher(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
    raise ValueError("kaboom")


def double_assigner(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
    # The first schedule-in alone is valid: a partial apply would show.
    for v in vcpus[:2]:
        v.schedule_in, v.next_pcpu, v.next_timeslice = True, 0, 1
    return True


def guarded(algorithm, policy=None):
    """A two-VCPU, two-PCPU scheduler model under a fresh guard."""
    model = build_vcpu_scheduler(algorithm, 2, [1, 1])
    model.guard = GuardState(policy if policy is not None else GuardPolicy())
    return model


def run(model, until):
    SANSimulator(model, StreamFactory(0)).run(until=until)


def assignment(model):
    held = [model.place(f"VCPU{g}_PCPU").value for g in (1, 2)]
    return {g: p for g, p in enumerate(held) if p is not None}


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

    def test_guard_state_validates_its_policy(self):
        with pytest.raises(ConfigurationError):
            GuardState(GuardPolicy(mode="yolo"))
        with pytest.raises(ConfigurationError):
            simulate_once(SPEC, guard=GuardPolicy(quarantine_after=0))


class TestFailFast:
    def test_exception_reraised_as_scheduling_error(self):
        model = guarded(FunctionScheduler("boom", crasher))
        with pytest.raises(SimulationError) as caught:
            run(model, 3.5)
        assert isinstance(caught.value.__cause__, SchedulingError)
        assert str(caught.value.__cause__) == (
            "boom faulted at t=1: ValueError: kaboom"
        )
        assert [(f.kind, f.message, f.scheduler, f.sim_time)
                for f in model.guard.failures] == [
            (FailureKind.EXCEPTION, "ValueError: kaboom", "boom", 1.0)
        ]

    def test_invalid_decision_classified(self):
        model = guarded(FunctionScheduler("dup", double_assigner))
        with pytest.raises(SimulationError):
            run(model, 3.5)
        assert [f.kind for f in model.guard.failures] == [
            FailureKind.INVALID_DECISION
        ]
        assert assignment(model) == {}

    def test_clean_scheduler_untouched(self):
        model = guarded(RoundRobinScheduler(timeslice=5))
        run(model, 3.5)
        assert model.guard.failures == [] and not model.guard.quarantined
        assert assignment(model) == {0: 0, 1: 1}


class TestDegrade:
    def test_faulty_tick_decisions_cleared(self):
        policy = GuardPolicy(mode="degrade", quarantine_after=10)
        model = guarded(FunctionScheduler("dup", double_assigner), policy)
        run(model, 3.5)
        # Every tick's invalid decisions were discarded wholesale.
        assert assignment(model) == {}
        assert [e["state"] for e in model.place("PCPUs").value] == [
            PCPUState.IDLE, PCPUState.IDLE
        ]
        assert [f.sim_time for f in model.guard.failures] == [1.0, 2.0, 3.0]
        assert not model.guard.quarantined

    def test_quarantine_after_consecutive_faults(self):
        calls = []

        def counting_crasher(*args):
            calls.append(args[-1])
            crasher(*args)

        policy = GuardPolicy(mode="degrade", quarantine_after=3)
        model = guarded(FunctionScheduler("boom", counting_crasher), policy)
        run(model, 2.5)
        assert not model.guard.quarantined and assignment(model) == {}
        run(model, 5.5)
        # The round-robin fallback took over on the quarantine tick, and
        # the plugged algorithm is never consulted again.
        assert model.guard.quarantined and assignment(model) == {0: 0, 1: 1}
        assert calls == [1.0, 2.0, 3.0] and len(model.guard.failures) == 3

    def test_success_resets_consecutive_counter(self):
        calls = {"n": 0}

        def flaky(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise RuntimeError("every other tick")
            return False

        policy = GuardPolicy(mode="degrade", quarantine_after=2)
        model = guarded(FunctionScheduler("flaky", flaky), policy)
        run(model, 6.5)  # fault, ok, fault, ok, ... never 2 in a row
        assert not model.guard.quarantined
        assert len(model.guard.failures) == 3

    def test_reset_clears_quarantine(self):
        # Replication 0 crashes once and is quarantined; the next
        # replication on the reused model starts with a fresh guard.
        policy = GuardPolicy(mode="degrade", quarantine_after=1)
        chaos = ChaosSpec(crash_replications=(0,), inject_after=10.0)
        runs = [simulate_once(SPEC, replication=r, guard=policy, chaos=chaos,
                              reuse=True) for r in (0, 1)]
        assert [(r.degraded, len(r.failures)) for r in runs] == [
            (True, 1), (False, 0)
        ]


def liar(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
    """Places VCPU 0 on PCPU 0, then hides that and schedules VCPU 1 there."""
    if vcpus[0].pcpu is None:
        vcpus[0].schedule_in, vcpus[0].next_pcpu = True, 0
    else:
        pcpus[0].state, pcpus[0].vcpu = PCPUState.IDLE, None
        vcpus[1].schedule_in, vcpus[1].next_pcpu = True, 0
    return True


# One PCPU: the fallback finds none free.  A spare PCPU: the fallback
# fills it on the quarantine tick (on the lying views it over-commits).
@pytest.mark.parametrize("vms, pcpus, placed", [
    (2, 1, []), (3, 2, [(2.0, 1, 1)]),
], ids=["one_pcpu", "spare_pcpu"])
def test_quarantine_fallback_starts_from_the_marking(monkeypatch, vms, pcpus,
                                                     placed):
    monkeypatch.setitem(registry._REGISTRY, "liar",
                        lambda **_: FunctionScheduler("liar", liar))
    spec = SystemSpec(vms=[VMSpec(1)] * vms, pcpus=pcpus, scheduler="liar",
                      sim_time=2.5, warmup=0)
    tracer = SimTracer(kinds=("sched.in",))
    result = simulate_once(spec, tracer=tracer,
                           guard=GuardPolicy(mode="degrade", quarantine_after=1))
    assert [(f.kind, f.message, f.sim_time) for f in result.failures] == [(
        FailureKind.INVALID_DECISION,
        "SchedulingError: liar: VCPU 1 requested PCPU 0, which is not idle", 2.0,
    )]
    assert result.degraded
    assert [(r.t, r.get("vcpu"), r.get("pcpu")) for r in tracer.records] == [
        (1.0, 0, 0)
    ] + placed


def test_one_resolve_per_guarded_tick(monkeypatch):
    calls = []
    schedules = []

    def spy(*args):
        calls.append(args)
        return resolve_decisions(*args)

    # Every module that holds the rule by name, so no call escapes.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro.") and (
            getattr(module, "resolve_decisions", None) is resolve_decisions
        ):
            monkeypatch.setattr(module, "resolve_decisions", spy)
    schedule = RoundRobinScheduler.schedule

    def counting(self, *args):
        schedules.append(args[-1])
        return schedule(self, *args)

    monkeypatch.setattr(RoundRobinScheduler, "schedule", counting)
    tracer = SimTracer(kinds=("activity.fire",))
    simulate_once(SPEC, guard=GuardPolicy(), tracer=tracer)
    firings = [r for r in tracer.records
               if r.get("activity").endswith(".Scheduling_Func")]
    # Each tick that calls the algorithm checks its decisions once; a
    # certified-quiet tick calls neither.
    assert calls and len(calls) == len(schedules)
    assert len(schedules) < len(firings)


def test_reused_model_drops_the_guard():
    chaos = ChaosSpec(corrupt_replications=(0, 2), inject_after=30.0)
    runs = [
        dict(replication=0, chaos=chaos,
             guard=GuardPolicy(mode="degrade", quarantine_after=1)),
        dict(replication=1),
        dict(replication=2, chaos=chaos, guard=GuardPolicy(mode="degrade")),
        dict(replication=3),
    ]
    reused = [simulate_once(SPEC, reuse=True, **kwargs) for kwargs in runs]
    assert reused == [simulate_once(SPEC, **kwargs) for kwargs in runs]
    assert [(r.degraded, len(r.failures)) for r in reused] == [
        (True, 1), (False, 0), (False, 1), (False, 0)
    ]
