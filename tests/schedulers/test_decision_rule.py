"""One decision rule, three surfaces.

``resolve_decisions`` is the only code that knows whether one tick's
decisions are consistent.  The ``Scheduling_Func`` gate (which also
enforces the decision guard), the ``SchedulerHarness`` and
``validate_decisions`` all run it, so each hostile decision below must
be rejected with one identical message wherever it is made, and each
accepted one must leave the same assignment.
"""

from typing import Callable, Dict, NamedTuple, Tuple

import pytest

from repro.des import StreamFactory
from repro.errors import SchedulingError, SimulationError
from repro.resilience import GuardPolicy, GuardState
from repro.resilience.degradation import DegradationModel
from repro.resilience.failures import FailureKind
from repro.san import SANSimulator
from repro.schedulers import FunctionScheduler, PCPUState, SchedulerHarness
from repro.schedulers.interface import (
    PCPUView,
    VCPUHostView,
    resolve_decisions,
    validate_decisions,
)
from repro.vmm import build_vcpu_scheduler

TOPOLOGY = (1, 1, 1)
NUM_PCPUS = 2
NAME = "hostile"


class Row(NamedTuple):
    decide: Callable[[list], None]
    message: str
    held: Dict[int, int] = {}  # vcpu -> PCPU it holds when ``decide`` runs
    failed: Tuple[int, ...] = ()  # PCPUs out of service


def _set(view, **fields):
    for name, value in fields.items():
        setattr(view, name, value)


def _both(vcpus):
    _set(vcpus[0], schedule_in=True, schedule_out=True)


def _out_idle(vcpus):
    _set(vcpus[1], schedule_out=True)


def _in_holding(vcpus):
    _set(vcpus[0], schedule_in=True)


def _all_in(vcpus):
    for view in vcpus:
        _set(view, schedule_in=True)


def _two_onto_one(vcpus):
    for view in vcpus[:2]:
        _set(view, schedule_in=True, next_pcpu=1)


def _out_of_range(vcpus):
    _set(vcpus[0], schedule_in=True, next_pcpu=7)


def _onto_pcpu1(vcpus):
    _set(vcpus[0], schedule_in=True, next_pcpu=1)


def _zero_timeslice(vcpus):
    _set(vcpus[0], schedule_in=True, next_timeslice=0)


ROWS = {
    "both_flags": Row(
        _both,
        f"{NAME}: VCPU 0 marked for both schedule_in and schedule_out in one tick",
    ),
    "out_without_pcpu": Row(
        _out_idle, f"{NAME}: schedule_out for VCPU 1, which holds no PCPU"
    ),
    "in_while_holding": Row(
        _in_holding,
        f"{NAME}: schedule_in for VCPU 0, which already holds a PCPU",
        held={0: 0},
    ),
    "over_commitment": Row(
        _all_in,
        f"{NAME}: schedule_in for VCPU 2 but no PCPU is free "
        "(over-commitment in one tick)",
    ),
    "two_ins_one_pcpu": Row(
        _two_onto_one, f"{NAME}: VCPU 1 requested PCPU 1, which is not idle"
    ),
    "out_of_range_pcpu": Row(
        _out_of_range, f"{NAME}: VCPU 0 requested PCPU 7, outside 0..1"
    ),
    "failed_pcpu": Row(
        _onto_pcpu1, f"{NAME}: VCPU 0 requested PCPU 1, which is FAILED", failed=(1,)
    ),
    "zero_timeslice": Row(
        _zero_timeslice, f"{NAME}: VCPU 0 granted a timeslice of 0; must be >= 1"
    ),
}


class Accepted(NamedTuple):
    decide: Callable[[list], None]
    assignment: Dict[int, int]  # vcpu -> PCPU once the tick has applied
    held: Dict[int, int] = {}
    failed: Tuple[int, ...] = ()


def _handover(vcpus):
    _set(vcpus[0], schedule_out=True)
    _set(vcpus[2], schedule_in=True, next_pcpu=0)


def _default_pcpu(vcpus):
    _set(vcpus[2], schedule_in=True)


ACCEPTED = {
    # Outs apply before ins: a PCPU handed over within one tick is free.
    "handover": Accepted(
        _handover, {1: 1, 2: 0}, held={0: 0, 1: 1}
    ),
    # No next_pcpu: the lowest IDLE PCPU, skipping a FAILED one.
    "default_pcpu": Accepted(
        _default_pcpu, {2: 1}, failed=(0,)
    ),
}


def staged(row):
    """A scheduler that first places ``row.held``, then runs ``row.decide``
    once."""
    decided = []

    def schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        if decided:
            return False
        pending = [g for g, p in row.held.items() if vcpus[g].pcpu != p]
        for g in pending:
            _set(vcpus[g], schedule_in=True, next_pcpu=row.held[g],
                 next_timeslice=100)
        if not pending:
            row.decide(vcpus)
            decided.append(timestamp)
        return True

    return FunctionScheduler(NAME, schedule)


def on_validate(row):
    vcpus, index = [], 0
    for vm_id, count in enumerate(TOPOLOGY):
        for vcpu_index in range(count):
            vcpus.append(VCPUHostView(vcpu_id=index, vm_id=vm_id,
                                      vcpu_index=vcpu_index,
                                      pcpu=row.held.get(index)))
            index += 1
    pcpus = [PCPUView(pcpu_id=i) for i in range(NUM_PCPUS)]
    for g, p in row.held.items():
        _set(pcpus[p], state=PCPUState.ASSIGNED, vcpu=g)
    for p in row.failed:
        pcpus[p].state = PCPUState.FAILED
    row.decide(vcpus)
    if isinstance(row, Row):
        with pytest.raises(SchedulingError) as caught:
            validate_decisions(vcpus, pcpus, NUM_PCPUS, 30, NAME)
        return str(caught.value)
    validate_decisions(vcpus, pcpus, NUM_PCPUS, 30, NAME)
    held = {view.vcpu_id: view.pcpu for view in vcpus}
    outs, ins = resolve_decisions(vcpus, held, [p.state for p in pcpus], 30, NAME)
    assignment = {g: p for g, p in row.held.items() if g not in outs}
    assignment.update({g: p for g, p, _ in ins})
    return assignment


def on_gate(row):
    degradation = None
    if row.failed:
        # Terminal health from t=0 takes a PCPU out of service.
        degradation = DegradationModel(
            h_max=1,
            mtbe=1e9,
            initial_health=[int(i in row.failed) for i in range(NUM_PCPUS)],
        )
    model = build_vcpu_scheduler(staged(row), NUM_PCPUS, list(TOPOLOGY),
                                 degradation=degradation)
    simulator = SANSimulator(model, StreamFactory(0))
    if isinstance(row, Accepted):
        simulator.run(until=3.5)
        held = [model.place(f"VCPU{g + 1}_PCPU").value
                for g in range(sum(TOPOLOGY))]
        return {g: p for g, p in enumerate(held) if p is not None}
    with pytest.raises(SimulationError) as caught:
        simulator.run(until=3.5)
    assert isinstance(caught.value.__cause__, SchedulingError)
    return str(caught.value.__cause__)


def on_harness(row):
    harness = SchedulerHarness(staged(row), topology=list(TOPOLOGY),
                               num_pcpus=NUM_PCPUS)
    for p in row.failed:
        harness.pcpus[p].state = PCPUState.FAILED
    harness.saturate()
    if isinstance(row, Accepted):
        for _ in range(3):
            harness.tick()
        return harness.assignment()
    with pytest.raises(SchedulingError) as caught:
        for _ in range(3):
            harness.tick()
    return str(caught.value)


SURFACES = pytest.mark.parametrize(
    "surface", [on_validate, on_gate, on_harness],
    ids=["validate", "gate", "harness"],
)


@SURFACES
@pytest.mark.parametrize("row", list(ROWS.values()), ids=list(ROWS))
def test_one_message_per_row_on_every_surface(row, surface):
    assert surface(row) == row.message


@SURFACES
@pytest.mark.parametrize("row", list(ACCEPTED.values()), ids=list(ACCEPTED))
def test_accepted_on_every_surface(row, surface):
    assert surface(row) == row.assignment


@pytest.mark.parametrize("rewrite, target, message, decide_at", [
    (lambda vcpus, pcpus: _set(pcpus[0], state=PCPUState.IDLE, vcpu=None),
     1, "VCPU 1 requested PCPU 0, which is not idle", 2),
    (lambda vcpus, pcpus: _set(vcpus[0], pcpu=None, status="INACTIVE"),
     0, "schedule_in for VCPU 0, which already holds a PCPU", 2),
    # The rewrite on a tick that decides nothing must not persist either:
    # the next tick's views come from the state, not from the last ones.
    (lambda vcpus, pcpus: _set(pcpus[0], state=PCPUState.IDLE, vcpu=None),
     1, "VCPU 1 requested PCPU 0, which is not idle", 3),
], ids=["pcpu_marked_idle", "vcpu_marked_unplaced", "pcpu_marked_idle_a_tick_early"])
def test_rewritten_views_cannot_double_assign(rewrite, target, message, decide_at):
    # VCPU 0 takes PCPU 0; on tick 2 the algorithm rewrites the views to
    # hide that, and on tick ``decide_at`` schedules onto it.  The gate
    # checks the marking and the harness its own state, which no view
    # rewrite reaches.
    def schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        if timestamp == 1:
            _set(vcpus[0], schedule_in=True, next_pcpu=0, next_timeslice=100)
            return True
        if timestamp == 2:
            rewrite(vcpus, pcpus)
        if timestamp == decide_at:
            _set(vcpus[target], schedule_in=True, next_pcpu=0, next_timeslice=5)
        return True

    until = decide_at + 0.5
    model = build_vcpu_scheduler(FunctionScheduler(NAME, schedule), 1, [1, 1])
    with pytest.raises(SimulationError) as caught:
        SANSimulator(model, StreamFactory(0)).run(until=until)
    assert str(caught.value.__cause__) == f"{NAME}: {message}"

    harness = SchedulerHarness(FunctionScheduler(NAME, schedule),
                               topology=[1, 1], num_pcpus=1)
    harness.saturate()
    for _ in range(decide_at - 1):
        harness.tick()
    with pytest.raises(SchedulingError) as caught:
        harness.tick()
    assert str(caught.value) == f"{NAME}: {message}"
    assert harness.assignment() == {0: 0}

    # Guarded, the gate drops the tick as an invalid decision and the
    # replication finishes.
    model = build_vcpu_scheduler(FunctionScheduler(NAME, schedule), 1, [1, 1])
    model.guard = GuardState(GuardPolicy(mode="degrade"))
    SANSimulator(model, StreamFactory(0)).run(until=until)
    assert [(f.kind, f.message) for f in model.guard.failures] == [
        (FailureKind.INVALID_DECISION, f"SchedulingError: {NAME}: {message}")
    ]
    assert model.place("VCPU1_PCPU").value == 0
    assert model.place("VCPU2_PCPU").value is None


def test_rejected_tick_leaves_harness_unchanged():
    # Tick 1 places VCPU 0; tick 2 pairs a valid schedule_out of it with
    # an out-of-range schedule_in, so the whole tick must be rejected.
    def schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        if timestamp == 1:
            _set(vcpus[0], schedule_in=True, next_pcpu=0, next_timeslice=100)
        else:
            _set(vcpus[0], schedule_out=True)
            _set(vcpus[1], schedule_in=True, next_pcpu=7)
        return True

    harness = SchedulerHarness(FunctionScheduler(NAME, schedule), topology=[1, 1],
                               num_pcpus=2)
    harness.saturate()
    harness.tick()
    before = (harness.assignment(), [(p.state, p.vcpu) for p in harness.pcpus])
    with pytest.raises(SchedulingError, match="outside"):
        harness.tick()
    assert (harness.assignment(), [(p.state, p.vcpu) for p in harness.pcpus]) == before
    assert harness.views[0].status == "BUSY"
