"""Unit tests for the hypervisor VCPU Scheduler model (paper Figure 6)."""

import pytest

from repro.des import StreamFactory
from repro.errors import ModelError
from repro.san import SANSimulator
from repro.schedulers import RoundRobinScheduler
from repro.vmm import build_vcpu_scheduler


def make(algorithm=None, num_pcpus=2, topology=(1, 1), **kwargs):
    algo = algorithm if algorithm is not None else RoundRobinScheduler()
    return build_vcpu_scheduler(algo, num_pcpus, list(topology), **kwargs)


class TestStructure:
    def test_sixteen_static_slots_by_default(self):
        model = make()
        for index in range(1, 17):
            assert f"VCPU{index}_Schedule_In" in model.places()
            assert f"VCPU{index}_slot" in model.places()

    def test_unplugged_slots_hold_none(self):
        model = make(topology=(1, 1))
        assert model.place("VCPU3_slot").value is None
        assert model.place("VCPU2_slot").value is not None

    def test_num_pcpus_place(self):
        model = make(num_pcpus=3)
        assert model.place("Num_PCPUs").tokens == 3

    def test_pcpu_array_initially_idle(self):
        model = make(num_pcpus=2)
        assert model.place("PCPUs").value == [
            {"state": "IDLE", "vcpu": None},
            {"state": "IDLE", "vcpu": None},
        ]

    def test_slot_map(self):
        model = make(topology=(2, 1))
        assert model.slot_map == [(0, 0), (0, 1), (1, 0)]

    def test_too_many_vcpus_rejected(self):
        with pytest.raises(ModelError, match="statically defined"):
            make(topology=(10, 7))

    def test_larger_slot_count_accepted(self):
        model = make(topology=(10, 10), num_slots=24)
        assert model.total_vcpus == 20

    def test_bad_inputs_rejected(self):
        with pytest.raises(ModelError):
            make(num_pcpus=0)
        with pytest.raises(ModelError):
            make(topology=())
        with pytest.raises(ModelError):
            make(topology=(0,))
        with pytest.raises(ModelError):
            build_vcpu_scheduler("not-an-algorithm", 1, [1])


class TestClockAndScheduling:
    def run_model(self, model, until):
        sim = SANSimulator(model, StreamFactory(0))
        sim.run(until=until)
        return sim

    def test_clock_advances_timestamp(self):
        model = make()
        self.run_model(model, until=5.5)
        assert model.place("Timestamp").tokens == 5

    def test_tick_fanout_reaches_plugged_slots_only(self):
        model = make(topology=(1, 1))
        self.run_model(model, until=1.5)
        # The standalone scheduler has no VCPU models consuming ticks, so
        # the fan-out tokens pile up in the plugged tick places.
        assert model.place("VCPU1_Tick").tokens == 1
        assert model.place("VCPU3_Tick").tokens == 0

    def test_algorithm_assigns_pcpus_and_notifies(self):
        model = make(topology=(1, 1), num_pcpus=1)
        self.run_model(model, until=1.5)
        # RRS dispatched global slot 1 on the single PCPU.
        assert model.place("VCPU1_PCPU").value == 0
        assert model.place("VCPU1_Schedule_In").tokens == 1
        assert model.place("PCPUs").value[0] == {"state": "ASSIGNED", "vcpu": 0}
        assert model.place("VCPU1_Timeslice").tokens == 30
        assert model.place("VCPU1_Last_Scheduled_In").value == 1.0

    def test_timeslice_decrements_each_tick(self):
        model = make(topology=(1,), num_pcpus=1)
        self.run_model(model, until=3.5)
        # Assigned at t=1 with 30; decremented at t=2 and t=3.
        assert model.place("VCPU1_Timeslice").tokens == 28

    def test_expiry_releases_pcpu_and_notifies(self):
        algo = RoundRobinScheduler(timeslice=3)
        model = make(algorithm=algo, topology=(1,), num_pcpus=2)
        self.run_model(model, until=4.5)
        # Assigned t=1 (ts=3); expires at t=4... and is immediately
        # re-dispatched by RRS (it is the only VCPU).
        assert model.place("VCPU1_Schedule_Out").tokens == 1
        assert model.place("VCPU1_Schedule_In").tokens == 2
        assert model.place("VCPU1_PCPU").value is not None
