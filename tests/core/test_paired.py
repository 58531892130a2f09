"""Tests for paired scheduler comparison (common random numbers)."""

import pytest

from repro.core import SystemSpec, VMSpec, WorkloadSpec, compare_schedulers
from repro.errors import ConfigurationError


@pytest.fixture
def spec():
    return SystemSpec(
        vms=[VMSpec(2, WorkloadSpec(sync_ratio=5)), VMSpec(3, WorkloadSpec(sync_ratio=5))],
        pcpus=4,
        sim_time=600,
        warmup=100,
    )


class TestCompareSchedulers:
    def test_scs_beats_rrs_on_vcpu_utilization(self, spec):
        comparison = compare_schedulers(
            spec, baseline="rrs", challenger="scs", replications=4
        )
        diff = comparison["vcpu_utilization"]
        assert diff.mean > 0
        assert diff.verdict() == "better"
        assert len(diff.differences) == 4

    def test_scs_loses_pcpu_utilization(self, spec):
        comparison = compare_schedulers(
            spec, baseline="rrs", challenger="scs", replications=4
        )
        assert comparison["pcpu_utilization"].verdict() == "worse"

    def test_identical_schedulers_indistinguishable(self, spec):
        comparison = compare_schedulers(
            spec, baseline="rrs", challenger="rrs", replications=3
        )
        for metric in ("vcpu_availability", "pcpu_utilization", "vcpu_utilization"):
            diff = comparison[metric]
            assert diff.mean == 0.0
            assert diff.verdict() == "indistinguishable"

    def test_pairing_reduces_variance(self, spec):
        # The paired half-width on the difference should be no larger
        # than the sum of the two unpaired half-widths (usually far
        # smaller); with CRN the workload noise cancels.
        from repro.core import run_experiment

        comparison = compare_schedulers(
            spec, baseline="rrs", challenger="rcs", replications=5
        )
        paired_half = comparison["vcpu_utilization"].half_width
        a = run_experiment(
            spec.with_overrides(scheduler="rrs"),
            min_replications=5, max_replications=5,
        )
        b = run_experiment(
            spec.with_overrides(scheduler="rcs"),
            min_replications=5, max_replications=5,
        )
        unpaired = a.half_width("vcpu_utilization") + b.half_width("vcpu_utilization")
        assert paired_half <= unpaired + 1e-9

    def test_each_model_is_built_once(self, spec, monkeypatch):
        # The pairs run on the replication driver, which reuses each
        # scheduler's built model across its replications.
        import repro.core.framework as framework

        framework.clear_model_cache()
        original = framework._build_model
        builds = []

        def counting(spec, *args, **kwargs):
            builds.append(spec.scheduler)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(framework, "_build_model", counting)
        comparison = compare_schedulers(
            spec, baseline="rrs", challenger="scs", replications=4
        )
        assert len(comparison["vcpu_utilization"].differences) == 4
        assert builds == ["rrs", "scs"]

    def test_summary_text(self, spec):
        comparison = compare_schedulers(
            spec, baseline="rrs", challenger="scs", replications=2
        )
        text = comparison.summary()
        assert "scs vs rrs" in text
        assert "vcpu_utilization" in text

    def test_empty_differences_raise_statistics_error(self):
        # An empty PairedDifference must fail as a diagnosable
        # StatisticsError, not a bare ZeroDivisionError.
        from repro.core import PairedDifference
        from repro.errors import StatisticsError

        empty = PairedDifference(metric="vcpu_utilization")
        with pytest.raises(StatisticsError, match="vcpu_utilization"):
            empty.mean
        with pytest.raises(StatisticsError, match="no replications"):
            empty.half_width

    def test_validation(self, spec):
        with pytest.raises(ConfigurationError):
            compare_schedulers(spec, "rrs", "scs", replications=1)
        with pytest.raises(ConfigurationError):
            compare_schedulers(
                spec, "rrs", "scs", metrics=["latency_p99"], replications=2
            )
        with pytest.raises(KeyError):
            compare_schedulers(spec, "rrs", "scs", replications=2)["nope"]
