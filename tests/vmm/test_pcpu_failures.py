"""Tests for the PCPU fail/repair dependability extension.

Binary fail/repair is the two-state degradation chain (``p = 1``,
``h_max = 1``) with one corrective crew per PCPU; ``pcpu_failures`` is
the spec's shorthand for it.
"""

import pytest

from repro.core import SystemSpec, VMSpec, WorkloadSpec, simulate_once
from repro.des import StreamFactory
from repro.errors import ConfigurationError
from repro.resilience.degradation import DegradationModel, MaintenancePolicy
from repro.san import RateReward, SANSimulator
from repro.schedulers import BUILTIN_ALGORITHMS, PCPUState
from repro.vmm import build_virtual_system, pcpus_place
from repro.workloads import NoSync, WorkloadModel


def build_failing_system(scheduler="rrs", topology=(1,), pcpus=1,
                         mtbf=200.0, mttr=50.0, seed=0, rep=0):
    system = build_virtual_system(
        [(n, WorkloadModel(sync_policy=NoSync())) for n in topology],
        BUILTIN_ALGORITHMS[scheduler](),
        pcpus,
        StreamFactory(seed, rep),
        degradation=DegradationModel(p=1.0, h_max=1, mtbe=mtbf),
        maintenance=MaintenancePolicy(crews=pcpus, mttr=mttr),
    )
    return system


class TestDynamics:
    def test_operational_fraction_matches_analytic(self):
        # One PCPU, no VMs... well, one idle-ish VM; measure the FAILED
        # fraction against mtbf/(mtbf+mttr).
        values = []
        for rep in range(4):
            system = build_failing_system(mtbf=300, mttr=100, rep=rep)
            pcpus = pcpus_place(system)
            sim = SANSimulator(system, StreamFactory(0, rep))
            reward = sim.add_reward(
                RateReward(
                    "up",
                    lambda: 1.0
                    if pcpus.value[0]["state"] != PCPUState.FAILED
                    else 0.0,
                    warmup=200,
                )
            )
            sim.run(until=12_000)
            values.append(reward.result())
        mean = sum(values) / len(values)
        assert mean == pytest.approx(0.75, abs=0.06)

    def test_failure_descheduled_victim_is_redispatched_after_repair(self):
        system = build_failing_system(mtbf=100, mttr=30)
        sim = SANSimulator(system, StreamFactory(1, 1))
        from repro.vmm import slot_value_place

        slot = slot_value_place(system, 0)
        pcpus = pcpus_place(system)
        saw_failed = saw_recovered = False
        for stop in range(10, 2000, 10):
            sim.run(until=stop + 0.5)
            state = pcpus.value[0]["state"]
            if state == PCPUState.FAILED:
                saw_failed = True
                # The victim must have been descheduled.
                assert slot.value["status"] == "INACTIVE"
            elif saw_failed and slot.value["status"] in ("READY", "BUSY"):
                saw_recovered = True
                break
        assert saw_failed and saw_recovered

    def test_availability_degrades_with_failures(self):
        healthy = simulate_once(
            SystemSpec(
                vms=[VMSpec(1, WorkloadSpec(sync_ratio=None))],
                pcpus=1,
                scheduler="rrs",
                sim_time=4000,
                warmup=200,
            )
        ).metrics["vcpu_availability"]
        failing = simulate_once(
            SystemSpec(
                vms=[VMSpec(1, WorkloadSpec(sync_ratio=None))],
                pcpus=1,
                scheduler="rrs",
                sim_time=4000,
                warmup=200,
                pcpu_failures={"mtbf": 300, "mttr": 100},
            )
        ).metrics["vcpu_availability"]
        assert healthy == pytest.approx(1.0, abs=0.01)
        assert failing == pytest.approx(0.75, abs=0.12)

    def test_invariants_hold_under_failures(self):
        from ..integration.test_invariants import check_invariants

        system = build_failing_system(
            scheduler="rrs", topology=(2, 1), pcpus=2, mtbf=80, mttr=20, seed=3
        )
        sim = SANSimulator(system, StreamFactory(3, 0))
        for stop in range(20, 801, 20):
            sim.run(until=stop + 0.5)
            check_invariants(system)


class TestSpecPlumbing:
    def test_spec_validation(self):
        spec = SystemSpec(
            vms=[VMSpec(1)], pcpus=1, sim_time=100, warmup=0,
            pcpu_failures={"mtbf": 100},
        )
        with pytest.raises(ConfigurationError, match="mtbf"):
            spec.validate()
        spec.pcpu_failures = {"mtbf": 100, "mttr": 0}
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_round_trip(self):
        spec = SystemSpec(
            vms=[VMSpec(1)], pcpus=1, sim_time=100, warmup=0,
            pcpu_failures={"mtbf": 100.0, "mttr": 25.0},
        )
        restored = SystemSpec.from_dict(spec.to_dict())
        assert restored.pcpu_failures == {"mtbf": 100.0, "mttr": 25.0}

    def test_with_overrides_preserves_failures(self):
        spec = SystemSpec(
            vms=[VMSpec(1)], pcpus=1, sim_time=100, warmup=0,
            pcpu_failures={"mtbf": 100.0, "mttr": 25.0},
        )
        swept = spec.with_overrides(pcpus=2)
        assert swept.pcpu_failures == {"mtbf": 100.0, "mttr": 25.0}

    def test_schedulers_survive_failures_end_to_end(self):
        for scheduler in ("rrs", "scs", "rcs", "credit"):
            spec = SystemSpec(
                vms=[VMSpec(2), VMSpec(1)],
                pcpus=2,
                scheduler=scheduler,
                sim_time=600,
                warmup=50,
                pcpu_failures={"mtbf": 150, "mttr": 40},
            )
            result = simulate_once(spec)
            assert 0.0 <= result.metrics["pcpu_utilization"] <= 1.0
