"""Unit and integration tests for the critical-section extension.

The paper's §V names richer synchronization as future work and §II.B
motivates co-scheduling with lock-holder preemption; this extension
implements it: CRITICAL jobs hold a VM-wide lock while processing, and
sibling VCPUs with critical jobs spin (burn PCPU time, no progress)
until the lock frees.  A preempted holder keeps the lock.
"""

import random

import pytest

from repro.des import Deterministic, StreamFactory
from repro.metrics import mean_goodput, mean_spin_fraction, spin_tick_counts
from repro.san import SANSimulator, build_simulator
from repro.schedulers import BUILTIN_ALGORITHMS, VCPUStatus
from repro.vmm import build_vcpu_model, build_virtual_system
from repro.workloads import Job, JobKind, LockingWorkloadModel, WorkloadModel


@pytest.fixture
def rng():
    return random.Random(0)


def fire(model, name, rng):
    activity = next(a for a in model.activities() if a.name == name)
    assert activity.enabled(), f"{name} is not enabled"
    activity.complete(rng)


def activity(model, name):
    return next(a for a in model.activities() if a.name == name)


class TestVCPULockMechanics:
    """Drive one or two VCPU models by hand through the lock protocol."""

    def make_pair(self):
        a = build_vcpu_model("VCPU1", lock_owner_id=1)
        b = build_vcpu_model("VCPU2", lock_owner_id=2)
        # Emulate the VM join: unify the Lock cells.
        from repro.san import share

        share([a.place("Lock"), b.place("Lock")])
        return a, b

    def arm_critical(self, vcpu, rng, load=3):
        slot = vcpu.place("VCPU_slot").value
        slot["remaining_load"] = load
        slot["critical"] = 1
        vcpu.place("Schedule_In").add()
        fire(vcpu, "Handle_Schedule_In", rng)

    def test_acquire_when_free(self, rng):
        a, b = self.make_pair()
        self.arm_critical(a, rng)
        fire(a, "Acquire_lock", rng)
        assert a.place("Lock").value == 1
        assert b.place("Lock").value == 1  # shared

    def test_processing_requires_lock(self, rng):
        a, b = self.make_pair()
        self.arm_critical(a, rng)
        self.arm_critical(b, rng)
        fire(a, "Acquire_lock", rng)
        a.place("Tick").add()
        b.place("Tick").add()
        assert activity(a, "Processing_load").enabled()
        assert not activity(b, "Processing_load").enabled()
        assert activity(b, "Spin_tick").enabled()

    def test_spin_burns_tick_without_progress(self, rng):
        a, b = self.make_pair()
        self.arm_critical(a, rng)
        self.arm_critical(b, rng, load=5)
        fire(a, "Acquire_lock", rng)
        b.place("Tick").add()
        fire(b, "Spin_tick", rng)
        assert b.place("VCPU_slot").value["remaining_load"] == 5
        assert b.place("Spin_ticks").tokens == 1
        assert b.place("Tick").tokens == 0

    def test_completion_releases_lock(self, rng):
        a, b = self.make_pair()
        self.arm_critical(a, rng, load=1)
        fire(a, "Acquire_lock", rng)
        a.place("Tick").add()
        fire(a, "Processing_load", rng)
        assert a.place("Lock").value is None
        assert a.place("VCPU_slot").value["critical"] == 0
        assert a.place("VCPU_slot").value["status"] == VCPUStatus.READY

    def test_preempted_holder_keeps_lock(self, rng):
        # The lock-holder-preemption problem, verbatim.
        a, b = self.make_pair()
        self.arm_critical(a, rng, load=5)
        fire(a, "Acquire_lock", rng)
        a.place("Schedule_Out").add()
        fire(a, "Handle_Schedule_Out", rng)
        assert a.place("VCPU_slot").value["status"] == VCPUStatus.INACTIVE
        assert a.place("Lock").value == 1  # still held!
        # The sibling, scheduled and critical, can only spin.
        self.arm_critical(b, rng)
        b.place("Tick").add()
        assert not activity(b, "Acquire_lock").enabled()
        assert activity(b, "Spin_tick").enabled()

    def test_non_critical_jobs_ignore_the_lock(self, rng):
        a, b = self.make_pair()
        self.arm_critical(a, rng)
        fire(a, "Acquire_lock", rng)
        slot = b.place("VCPU_slot").value
        slot["remaining_load"] = 2
        b.place("Schedule_In").add()
        fire(b, "Handle_Schedule_In", rng)
        b.place("Tick").add()
        assert activity(b, "Processing_load").enabled()


class TestLockingWorkloadModel:
    def test_critical_ratio(self, rng):
        model = LockingWorkloadModel(critical_ratio=3)
        kinds = [model.next_job(i, rng).kind for i in range(9)]
        assert kinds.count(JobKind.CRITICAL) == 3
        assert kinds[2] == JobKind.CRITICAL

    def test_critical_sections_are_short(self, rng):
        model = LockingWorkloadModel(critical_ratio=1)
        for i in range(50):
            job = model.next_job(i, rng)
            assert job.kind == JobKind.CRITICAL
            assert 1 <= job.load <= 3

    def test_barriers_interleave_without_collision(self, rng):
        model = LockingWorkloadModel(critical_ratio=4, barrier_ratio=4)
        kinds = [model.next_job(i, rng).kind for i in range(16)]
        assert JobKind.CRITICAL in kinds
        assert JobKind.BARRIER in kinds

    def test_base_model_emits_no_critical_jobs(self, rng):
        model = WorkloadModel(Deterministic(5))
        assert all(model.next_job(i, rng).kind != JobKind.CRITICAL for i in range(20))

    def test_job_validation(self):
        with pytest.raises(Exception):
            Job(0)
        with pytest.raises(Exception):
            Job(5, "spin")


class TestEndToEnd:
    def run_system(
        self, scheduler, topology=(2, 3), pcpus=4, critical_ratio=2, engine="rescan"
    ):
        workloads = [
            LockingWorkloadModel(critical_ratio=critical_ratio) for _ in topology
        ]
        system = build_virtual_system(
            list(zip(topology, workloads)),
            BUILTIN_ALGORITHMS[scheduler](),
            pcpus,
            StreamFactory(3),
        )
        sim = build_simulator(system, StreamFactory(3), engine=engine)
        spin = sim.add_reward(mean_spin_fraction(system, warmup=100))
        goodput = sim.add_reward(mean_goodput(system, warmup=100))
        sim.run(until=1200)
        return system, spin.result(), goodput.result()

    @pytest.mark.parametrize("scheduler", ["rrs", "scs", "rcs"])
    def test_compiled_engine_matches_rescan(self, scheduler):
        # Lock hand-offs are where a write the compiled engine missed
        # would show: a dispatched critical job must re-enable
        # Acquire_lock although nothing else its gate reads changes.
        runs = {
            engine: self.run_system(scheduler, engine=engine)
            for engine in ("rescan", "compiled")
        }
        (rescan_system, *rescan), (compiled_system, *compiled) = runs.values()
        assert compiled == rescan
        assert spin_tick_counts(compiled_system) == spin_tick_counts(rescan_system)

    def test_spin_waste_is_measurable_under_rrs(self):
        system, spin, goodput = self.run_system("rrs")
        assert spin > 0.005
        assert 0.0 < goodput < 1.0
        assert sum(spin_tick_counts(system).values()) > 0

    def test_co_scheduling_reduces_spin_waste(self):
        _, spin_rrs, _ = self.run_system("rrs")
        _, spin_scs, _ = self.run_system("scs")
        assert spin_scs < spin_rrs

    def test_lock_is_always_consistent(self):
        # The lock must always be either free or held by a VCPU whose
        # current job is critical and unfinished.
        from repro.vmm import slot_value_place

        workloads = [LockingWorkloadModel(critical_ratio=2) for _ in (2, 2)]
        system = build_virtual_system(
            list(zip((2, 2), workloads)),
            BUILTIN_ALGORITHMS["rrs"](),
            2,
            StreamFactory(1),
        )
        sim = SANSimulator(system, StreamFactory(1))
        for stop in range(10, 400, 10):
            sim.run(until=stop + 0.5)
            for vm_index, vm_name in enumerate(system.vm_names):
                holder = system.place(f"{vm_name}.Lock").value
                if holder is None:
                    continue
                slots = [
                    slot_value_place(system, g)
                    for g, (vm_id, _) in enumerate(system.slot_map)
                    if vm_id == vm_index
                ]
                slot = slots[holder - 1].value
                assert slot["critical"] == 1
                assert slot["remaining_load"] > 0

    def test_spin_zero_without_critical_jobs(self):
        system = build_virtual_system(
            [(2, WorkloadModel()), (2, WorkloadModel())],
            BUILTIN_ALGORITHMS["rrs"](),
            2,
            StreamFactory(0),
        )
        sim = SANSimulator(system, StreamFactory(0))
        spin = sim.add_reward(mean_spin_fraction(system))
        sim.run(until=500)
        assert spin.result() == 0.0
