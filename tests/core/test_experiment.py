"""Unit tests for the experiment runner (replications + sweeps)."""

import os

import pytest

import repro.core.framework as framework
import repro.core.registry as registry
from repro.core import (
    SystemSpec,
    VMSpec,
    WorkloadSpec,
    run_experiment,
    run_interleaved_sweep,
    run_sweep,
)
from repro.errors import ConfigurationError
from repro.observability import SimTracer, tracing
from repro.resilience import ResilienceConfig
from repro.resilience.failures import FailureKind
from repro.schedulers.round_robin import RoundRobinScheduler


@pytest.fixture
def spec():
    return SystemSpec(
        vms=[VMSpec(1), VMSpec(1)],
        pcpus=1,
        scheduler="rrs",
        sim_time=300,
        warmup=50,
    )


class TestRunExperiment:
    def test_estimates_all_metrics(self, spec):
        result = run_experiment(spec, min_replications=2, max_replications=3)
        assert "vcpu_availability" in result.estimates
        assert "vcpu_availability[VCPU1.1]" in result.estimates
        assert result.replications >= 2

    def test_stops_early_when_converged(self, spec):
        # With one PCPU shared by two saturated VCPUs, availability is
        # deterministic (0.5): the CI closes immediately at min reps.
        result = run_experiment(
            spec, min_replications=2, max_replications=20, target_half_width=0.1
        )
        assert result.replications == 2

    def test_runs_to_budget_when_noisy(self):
        # A 2-VCPU VM under RRS has random barrier stalls, so its VCPU
        # utilization varies across replications and an impossible target
        # forces the runner to the budget.
        noisy = SystemSpec(
            vms=[VMSpec(2), VMSpec(1)],
            pcpus=1,
            scheduler="rrs",
            sim_time=300,
            warmup=50,
        )
        result = run_experiment(
            noisy,
            min_replications=2,
            max_replications=4,
            target_half_width=1e-9,  # unreachable
        )
        assert result.replications == 4

    def test_default_label(self, spec):
        result = run_experiment(spec, min_replications=2, max_replications=2)
        assert result.label == "rrs/vms=1+1/pcpus=1"

    def test_parameters_recorded(self, spec):
        result = run_experiment(spec, min_replications=2, max_replications=2)
        assert result.parameters["scheduler"] == "rrs"
        assert result.parameters["pcpus"] == 1
        assert result.parameters["topology"] == "1+1"

    def test_unknown_watch_metric_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="not produced"):
            run_experiment(
                spec,
                watch_metrics=["tail_latency"],
                min_replications=2,
                max_replications=2,
            )

    def test_budget_validation(self, spec):
        with pytest.raises(ConfigurationError):
            run_experiment(spec, min_replications=1)
        with pytest.raises(ConfigurationError):
            run_experiment(spec, min_replications=5, max_replications=4)

    def test_estimate_accessors(self, spec):
        result = run_experiment(spec, min_replications=3, max_replications=3)
        mean = result.mean("pcpu_utilization")
        half = result.half_width("pcpu_utilization")
        assert 0.0 <= mean <= 1.0
        assert half >= 0.0
        with pytest.raises(KeyError):
            result.mean("nope")


#: (replication, attempt) the current process is simulating; set by the
#: ``simulate_once`` wrapper the worker-death test installs.
_CURRENT = [None]


class TestEngineBesideResilience:
    """An explicit ``engine=`` replaces the resilience config's field."""

    @staticmethod
    def _traced_engines(entry, spec, **kwargs):
        protocol = dict(min_replications=2, max_replications=2, **kwargs)
        tracer = SimTracer()
        with tracing(tracer):
            if entry == "run_experiment":
                run_experiment(spec, **protocol)
            elif entry == "run_sweep":
                run_sweep(spec, [{"pcpus": 1}, {"pcpus": 2}], **protocol)
            else:
                run_interleaved_sweep([({}, spec)], **protocol)
        return [r.data["engine"] for r in tracer.records if r.kind == "run.start"]

    @pytest.mark.parametrize(
        "entry", ["run_experiment", "run_sweep", "run_interleaved_sweep"]
    )
    def test_engine_beside_resilience_is_not_dropped(self, spec, entry):
        engines = self._traced_engines(
            entry, spec, engine="rescan",
            resilience=ResilienceConfig(jobs=1, retries=1),
        )
        assert engines and set(engines) == {"rescan"}
        # Without an explicit engine the config's own field stands.
        engines = self._traced_engines(
            entry, spec,
            resilience=ResilienceConfig(jobs=1, retries=1, engine="rescan"),
        )
        assert engines and set(engines) == {"rescan"}


class _DiesInReplicationOne(RoundRobinScheduler):
    """Round-robin that kills its worker process in replication 1, attempt 0."""

    parent = os.getpid()

    def schedule(self, vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        if _CURRENT[0] == (1, 0) and os.getpid() != self.parent:
            os._exit(1)
        return super().schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp)


class TestWorkerDeath:
    def test_run_experiment_worker_death_is_retried(self, monkeypatch):
        monkeypatch.setitem(
            registry._REGISTRY, "test-dies-in-rep1", _DiesInReplicationOne
        )
        spec = SystemSpec(
            vms=[VMSpec(2), VMSpec(1)],
            pcpus=1,
            scheduler="test-dies-in-rep1",
            sim_time=300,
            warmup=50,
        )
        protocol = dict(
            min_replications=3, max_replications=3, target_half_width=1e-9
        )
        clean = run_experiment(spec, **protocol)

        original = framework.simulate_once

        def tracked(spec, replication=0, root_seed=0, **kwargs):
            _CURRENT[0] = (replication, kwargs.get("attempt", 0))
            return original(spec, replication, root_seed, **kwargs)

        # Installed before the pool forks, so the workers inherit it.
        monkeypatch.setattr(framework, "simulate_once", tracked)
        result = run_experiment(
            spec, resilience=ResilienceConfig(jobs=2, retries=1), **protocol
        )
        assert result.replications == 3
        crashes = [f for f in result.failures if f.kind == FailureKind.WORKER_CRASH]
        assert [(f.replication, f.attempt) for f in crashes] == [(1, 0)]
        # Replication 1 re-ran under a reseeded stream; the survivors
        # are exactly the clean run's.
        for name, estimate in clean.estimates.items():
            values = result.estimates[name].values
            assert [values[0], values[2]] == [estimate.values[0], estimate.values[2]]


class TestRunSweep:
    def test_field_sweep(self, spec):
        results = run_sweep(
            spec,
            [{"pcpus": 1}, {"pcpus": 2}],
            min_replications=2,
            max_replications=2,
        )
        assert len(results) == 2
        assert results[0].parameters["pcpus"] == 1
        assert results[1].parameters["pcpus"] == 2
        # With 2 PCPUs for 2 VCPUs, availability jumps to ~1.
        assert results[1].mean("vcpu_availability") > results[0].mean("vcpu_availability")

    def test_sweep_with_mutate_hook(self, spec):
        def set_sync(spec, point):
            for vm in spec.vms:
                vm.workload = WorkloadSpec(sync_ratio=point["sync_ratio"])
            return spec

        results = run_sweep(
            spec,
            [{"sync_ratio": 5}, {"sync_ratio": 2}],
            mutate=set_sync,
            min_replications=2,
            max_replications=2,
        )
        assert results[0].parameters["sync_ratio"] == 5
        assert results[1].parameters["sync_ratio"] == 2

    def test_non_field_key_without_mutate_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="mutate"):
            run_sweep(spec, [{"sync_ratio": 2}], min_replications=2, max_replications=2)

    def test_method_name_key_is_not_a_field(self, spec):
        # ``topology`` is a SystemSpec *method*; a hasattr() check would
        # accept it and silently shadow the method on the instance.
        with pytest.raises(ConfigurationError, match="topology"):
            run_sweep(spec, [{"topology": [2, 2]}], min_replications=2, max_replications=2)

    def test_method_name_key_routed_to_mutate(self, spec):
        from repro.core import VMSpec as VM

        seen = []

        def mutate(s, point):
            seen.append(point)
            return SystemSpec(
                vms=[VM(n) for n in point["topology"]],
                pcpus=s.pcpus,
                scheduler=s.scheduler,
                sim_time=s.sim_time,
                warmup=s.warmup,
            )

        results = run_sweep(
            spec,
            [{"topology": [1, 1, 1]}],
            mutate=mutate,
            min_replications=2,
            max_replications=2,
        )
        assert seen == [{"topology": [1, 1, 1]}]
        assert results[0].parameters["topology"] == [1, 1, 1]
        # And the spec's method was never shadowed by assignment.
        assert callable(type(spec).topology)

    def test_scheduler_sweep(self, spec):
        results = run_sweep(
            spec,
            [{"scheduler": name} for name in ("rrs", "scs", "rcs")],
            min_replications=2,
            max_replications=2,
        )
        assert [r.parameters["scheduler"] for r in results] == ["rrs", "scs", "rcs"]
