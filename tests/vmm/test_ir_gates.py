"""The VMM gates as scalar IR, and pure observation inside completions.

Three properties keep the compiled engine's cached verdicts both sound
and cheap on the paper's models:

* every input gate of the Figure-8 and Figure-10 models is an ``expr=``
  gate, so the engine runs it as a specialized evaluator with a derived
  read set (no closure predicate left);
* each ``expr=`` gate decides exactly what the closure it replaced
  decided — the closures are written out below as the oracle;
* ``Scheduling_Func`` only *observes* the slots it builds its views
  from, so a tick that decides nothing writes no slot, ``PCPU`` or
  ``Last_Scheduled_In`` cell.
"""

import itertools
import random

import pytest

from repro.core import Simulation, SystemSpec, VMSpec, WorkloadSpec
from repro.paper import (
    FIG8_PCPU_RANGE,
    FIG8_TOPOLOGY,
    FIG9_VM_SETS,
    PAPER_PCPUS,
    PAPER_SYNC_RATIO,
)
from repro.resilience.degradation import (
    DegradationModel,
    HVOverheadModel,
    MaintenancePolicy,
)
from repro.san.places import capturing_writes
from repro.schedulers import FunctionScheduler, PCPUState, VCPUStatus
from repro.vmm import (
    build_job_scheduler,
    build_vcpu_model,
    build_vcpu_scheduler,
    build_workload_generator,
)
from repro.workloads.generators import WorkloadModel


def _gate(model, activity_name):
    activity = next(a for a in model.activities() if a.name == activity_name)
    (gate,) = activity.input_gates
    return gate


def _paper_spec(topology, pcpus):
    return SystemSpec(
        vms=[VMSpec(n, WorkloadSpec(sync_ratio=PAPER_SYNC_RATIO)) for n in topology],
        pcpus=pcpus,
        scheduler="rrs",
        sim_time=100,
        warmup=10,
    )


def _assert_all_ir(simulator):
    for index, activity in enumerate(simulator._acts):
        assert activity.input_gates, activity.qualified_name
        assert all(g.expr is not None for g in activity.input_gates), (
            activity.qualified_name
        )
        on_ir = (
            simulator._ir_preds[index] is not None
            or simulator._ir_consts[index] is not None
        )
        assert on_ir, activity.qualified_name


# -- coverage --------------------------------------------------------------


@pytest.mark.parametrize("pcpus", FIG8_PCPU_RANGE)
def test_fig8_model_gates_all_take_the_ir_path(pcpus):
    sim = Simulation(_paper_spec(FIG8_TOPOLOGY, pcpus))
    assert sim.simulator.engine == "compiled"
    _assert_all_ir(sim.simulator)


@pytest.mark.parametrize("topology", list(FIG9_VM_SETS.values()))
def test_fig10_topologies_gates_all_take_the_ir_path(topology):
    _assert_all_ir(Simulation(_paper_spec(topology, PAPER_PCPUS)).simulator)


# -- truth tables against the closures the IR replaced ----------------------

ME, OTHER = 1, 2


def _old_vcpu_gates(schedule_in, schedule_out, tick, status, critical, lock):
    return {
        "Handle_Schedule_In": schedule_in > 0,
        "Handle_Schedule_Out": schedule_out > 0,
        "Acquire_lock": status == VCPUStatus.BUSY and critical == 1 and lock is None,
        "Spin_tick": tick > 0
        and status == VCPUStatus.BUSY
        and critical == 1
        and lock is not None
        and lock != ME,
        "Processing_load": tick > 0
        and status == VCPUStatus.BUSY
        and (critical == 0 or lock == ME),
        "Discard_tick": tick > 0 and status != VCPUStatus.BUSY,
    }


def test_vcpu_gates_match_the_closure_semantics():
    model = build_vcpu_model("VCPU1", lock_owner_id=ME)
    places = model.places()
    names = _old_vcpu_gates(0, 0, 0, "", 0, None)
    gates = {name: _gate(model, name) for name in names}
    cases = itertools.product(
        (0, 1), (0, 1), (0, 1, 2), VCPUStatus.ALL, (0, 1), (None, ME, OTHER)
    )
    for case in cases:
        schedule_in, schedule_out, tick, status, critical, lock = case
        places["Schedule_In"].tokens = schedule_in
        places["Schedule_Out"].tokens = schedule_out
        places["Tick"].tokens = tick
        places["VCPU_slot"].value["status"] = status
        places["VCPU_slot"].value["critical"] = critical
        places["Lock"].value = lock
        want = _old_vcpu_gates(*case)
        got = {name: gate.holds() for name, gate in gates.items()}
        assert got == want, case


def _old_job_scheduler_gates(workload, num_ready, blocked, loads):
    return {
        "Scheduling": workload is not None and num_ready > 0,
        "Unblock": blocked != 0
        and workload is None
        and all(load == 0 for load in loads),
    }


def test_job_scheduler_gates_match_the_closure_semantics():
    model = build_job_scheduler("VM_Job_Scheduler", num_vcpus=2)
    places = model.places()
    slots = [places["VCPU1_slot"], places["VCPU2_slot"]]
    gates = {name: _gate(model, name) for name in ("Scheduling", "Unblock")}
    job = {"load": 3, "sync_point": 0, "critical": 0}
    cases = itertools.product(
        (None, job), (0, 1, 2), (0, 1), itertools.product((0, 4), repeat=2)
    )
    for case in cases:
        workload, num_ready, blocked, loads = case
        places["Workload"].value = workload
        places["Num_VCPUs_ready"].tokens = num_ready
        places["Blocked"].tokens = blocked
        for slot, load in zip(slots, loads):
            slot.value["remaining_load"] = load
        want = _old_job_scheduler_gates(*case)
        got = {name: gate.holds() for name, gate in gates.items()}
        assert got == want, case


def test_workload_generator_gate_matches_the_closure_semantics():
    model = build_workload_generator(
        "Workload_Generator", WorkloadModel(), random.Random(0)
    )
    places = model.places()
    gate = _gate(model, "WL_gen")
    job = {"load": 3, "sync_point": 0, "critical": 0}
    for workload, blocked, num_ready in itertools.product(
        (None, job), (0, 1, 2), (0, 1, 2)
    ):
        places["Workload"].value = workload
        places["Blocked"].tokens = blocked
        places["Num_VCPUs_ready"].tokens = num_ready
        want = workload is None and blocked == 0 and num_ready > 0
        assert gate.holds() == want, (workload, blocked, num_ready)


def _old_maint_needed(policy, threshold, h_max, entry):
    if entry["maint"]:
        return False
    h = entry["health"]
    if h >= h_max:
        return True
    if policy == "condition_based":
        return h >= threshold
    if policy == "periodic":
        return bool(entry["due"])
    return False


@pytest.mark.parametrize("policy", ["corrective", "periodic", "condition_based"])
def test_maintenance_trigger_matches_the_closure_semantics(policy):
    h_max, threshold = 3, 2
    model = build_vcpu_scheduler(
        FunctionScheduler("idle", lambda *args: True),
        1,
        [1],
        degradation=DegradationModel(h_max=h_max),
        maintenance=MaintenancePolicy(policy=policy, threshold=threshold),
    )
    gate = next(
        g
        for a in model.activities()
        for g in a.input_gates
        if g.name == "Maint_trigger0"
    )
    (entry,) = model.place("PCPU_Health").value
    for health, maint, due in itertools.product(range(h_max + 1), (0, 1), (0, 1)):
        entry.update(health=health, maint=maint, due=due)
        want = _old_maint_needed(policy, threshold, h_max, entry)
        assert gate.holds() == want, (health, maint, due)


# -- pure observation --------------------------------------------------------


def test_scheduling_func_observation_does_not_dirty_slots():
    decided = []

    def no_decisions(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        decided.append([v.status for v in vcpus])
        return True

    model = build_vcpu_scheduler(
        FunctionScheduler("idle", no_decisions), 2, [1, 1]
    )
    places = model.places()
    # Slot 1 holds PCPU 0 with time to spare (the tick decrements its
    # timeslice but does not expire it); slot 2 is unassigned.
    places["VCPU1_PCPU"].value = 0
    places["VCPU1_Timeslice"].tokens = 5
    places["PCPUs"].value[0] = {"state": PCPUState.ASSIGNED, "vcpu": 0}
    places["VCPU1_slot"].value["remaining_load"] = 3
    places["Sched_tick"].tokens = 1
    activity = next(a for a in model.activities() if a.name == "Scheduling_Func")
    assert activity.enabled()

    with capturing_writes(set()) as written:
        activity.complete(None)

    assert decided == [[VCPUStatus.BUSY, VCPUStatus.INACTIVE]]
    observed = [places["PCPUs"]]
    for g in (1, 2):
        observed += [
            places[f"VCPU{g}_slot"],
            places[f"VCPU{g}_PCPU"],
            places[f"VCPU{g}_Last_Scheduled_In"],
        ]
    dirtied = [place.name for place in observed if place._cell in written]
    assert dirtied == []
    # The tick's genuine writes are still seen.
    assert places["Sched_tick"]._cell in written
    assert places["VCPU1_Timeslice"]._cell in written


@pytest.mark.parametrize("health", [0, 1])
def test_pristine_tick_fanout_does_not_dirty_health(health):
    model = build_vcpu_scheduler(
        FunctionScheduler("idle", lambda *args: True),
        1,
        [1],
        degradation=DegradationModel(h_max=3, initial_health=[health]),
        hv_overhead=HVOverheadModel(cost=1),
    )
    places = model.places()
    places["VCPU1_PCPU"].value = 0
    clock = next(a for a in model.activities() if a.name == "Clock")
    with capturing_writes(set()) as written:
        clock.complete(None)
    # A degraded core's leaky bucket is a real write; a pristine one
    # only observes.  No world-switch debt is outstanding either way.
    assert (places["PCPU_Health"]._cell in written) == bool(health)
    assert places["HV_Debts"]._cell not in written
    assert places["VCPU1_PCPU"]._cell not in written
