"""Unit tests for the multi-state PCPU health layer.

Covers the degradation matrix generator/validator, the three model
dataclasses (validation + dict round-trips), the failure-record
satellites (unknown-kind folding, typed ``failure_summary``), and the
build-time wiring rules in :func:`build_vcpu_scheduler`.
"""

import pytest

from repro.core import SystemSpec, VMSpec
from repro.errors import ConfigurationError
from repro.resilience import (
    MAINTENANCE_POLICIES,
    DegradationModel,
    FailureKind,
    HVOverheadModel,
    MaintenancePolicy,
    ReplicationFailure,
    ReplicationOutcome,
    ResultCache,
    failure_summary,
    generate_degradation_matrix,
    validate_degradation_matrix,
)


class TestGenerateDegradationMatrix:
    def test_shape_and_rows(self):
        matrix = generate_degradation_matrix(0.25, h_max=3)
        assert len(matrix) == 4
        assert all(len(row) == 4 for row in matrix)
        for row in matrix:
            assert sum(row) == pytest.approx(1.0)

    def test_birth_chain_structure(self):
        matrix = generate_degradation_matrix(0.25, h_max=2)
        assert matrix[0] == [0.75, 0.25, 0.0]
        assert matrix[1] == [0.0, 0.75, 0.25]
        assert matrix[2] == [0.0, 0.0, 1.0]  # terminal state is absorbing

    def test_p_one_is_deterministic_decay(self):
        matrix = generate_degradation_matrix(1.0, h_max=1)
        assert matrix == [[0.0, 1.0], [0.0, 1.0]]

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ConfigurationError):
            generate_degradation_matrix(p, h_max=2)

    def test_rejects_bad_h_max(self):
        with pytest.raises(ConfigurationError):
            generate_degradation_matrix(0.5, h_max=0)


class TestValidateDegradationMatrix:
    def test_accepts_generated(self):
        validate_degradation_matrix(generate_degradation_matrix(0.3, 4))

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            validate_degradation_matrix([[0.5, 0.5], [1.0]])

    def test_rejects_too_small(self):
        with pytest.raises(ConfigurationError):
            validate_degradation_matrix([[1.0]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ConfigurationError):
            validate_degradation_matrix([[1.5, -0.5], [0.0, 1.0]])

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ConfigurationError):
            validate_degradation_matrix([[0.5, 0.4], [0.0, 1.0]])


class TestDegradationModel:
    def test_defaults(self):
        model = DegradationModel()
        assert model.h_max == 4
        assert model.effective_capacity() == [1.0, 0.75, 0.5, 0.25, 0.0]
        assert len(model.effective_matrix()) == 5

    def test_custom_matrix_overrides_h_max(self):
        matrix = generate_degradation_matrix(0.5, h_max=2)
        model = DegradationModel(matrix=matrix, h_max=7)
        assert model.h_max == 2

    def test_health_at_defaults_to_zero(self):
        model = DegradationModel(initial_health=[2, 0])
        assert model.health_at(0) == 2
        assert model.health_at(1) == 0
        assert model.health_at(5) == 0  # beyond the list: pristine

    def test_rejects_initial_health_out_of_range(self):
        with pytest.raises(ConfigurationError):
            DegradationModel(h_max=2, initial_health=[3])

    def test_rejects_capacity_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            DegradationModel(h_max=2, capacity=[1.0, 0.5])

    def test_rejects_bad_mtbe(self):
        with pytest.raises(ConfigurationError):
            DegradationModel(mtbe=0.0)

    def test_dict_round_trip(self):
        model = DegradationModel(p=0.2, h_max=3, mtbe=75.0,
                                 initial_health=[1, 0, 2])
        clone = DegradationModel.from_dict(model.to_dict())
        assert clone.to_dict() == model.to_dict()
        assert clone.effective_matrix() == model.effective_matrix()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            DegradationModel.from_dict({"p": 0.1, "mtbf": 50})


class TestMaintenancePolicy:
    def test_policies_registry(self):
        assert MAINTENANCE_POLICIES == ("corrective", "periodic",
                                        "condition_based")

    def test_defaults_valid(self):
        policy = MaintenancePolicy()
        assert policy.policy == "corrective"
        assert policy.crews == 1

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            MaintenancePolicy(policy="preventive")

    @pytest.mark.parametrize(
        "kwargs",
        [dict(crews=0), dict(mttr=0.0), dict(period=0.0), dict(threshold=0)],
    )
    def test_rejects_non_positive_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            MaintenancePolicy(**kwargs)

    def test_dict_round_trip(self):
        policy = MaintenancePolicy(policy="periodic", crews=2, mttr=5.0,
                                   period=50.0)
        assert MaintenancePolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            MaintenancePolicy.from_dict({"policy": "corrective", "teams": 3})


class TestHVOverheadModel:
    def test_enabled_flag(self):
        assert not HVOverheadModel(cost=0).enabled
        assert HVOverheadModel(cost=3).enabled

    def test_rejects_negative_cost(self):
        with pytest.raises(ConfigurationError):
            HVOverheadModel(cost=-1)

    def test_dict_round_trip(self):
        model = HVOverheadModel(cost=2)
        assert HVOverheadModel.from_dict(model.to_dict()) == model


class TestFailureRecordSatellites:
    def test_new_kinds_in_closed_set(self):
        assert FailureKind.DEGRADATION in FailureKind.ALL
        assert FailureKind.MAINTENANCE in FailureKind.ALL

    def test_unknown_kind_makes_entry_a_miss(self, tmp_path):
        record = ReplicationFailure(kind="cosmic-ray", message="bit flip")
        with pytest.raises(ValueError, match="cosmic-ray"):
            ReplicationFailure.from_dict(record.to_dict())
        cache = ResultCache(str(tmp_path))
        key = cache.key({}, "compiled", 0, 0)
        cache.store(key, {
            "ok": True, "metrics": {"pcpu_utilization": 0.5}, "attempt": 0,
            "completions": 1, "degraded": False, "failures": [record.to_dict()],
        })
        assert cache.load(key, lambda p: ReplicationOutcome.from_payload(0, p)) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_from_dict_keeps_known_kind(self):
        record = ReplicationFailure.from_dict(
            ReplicationFailure(kind=FailureKind.TIMEOUT, message="slow").to_dict()
        )
        assert record.kind == FailureKind.TIMEOUT

    def test_summary_empty_is_no_failures(self):
        assert failure_summary([]) == "no failures"
        assert failure_summary(iter([])) == "no failures"

    def test_summary_counts_and_sorts(self):
        failures = [
            ReplicationFailure(FailureKind.TIMEOUT, "a"),
            ReplicationFailure(FailureKind.EXCEPTION, "b"),
            ReplicationFailure(FailureKind.TIMEOUT, "c"),
        ]
        assert failure_summary(failures) == "exception x1, timeout x2"


class TestBuildTimeWiring:
    def _build(self, **kwargs):
        from repro.schedulers import BUILTIN_ALGORITHMS
        from repro.vmm.vcpu_scheduler import build_vcpu_scheduler

        algorithm = BUILTIN_ALGORITHMS["rrs"]()
        return build_vcpu_scheduler(algorithm, num_pcpus=2, topology=[1, 1],
                                    **kwargs)

    def test_degradation_excludes_pcpu_failures(self):
        # pcpu_failures is shorthand for a health chain of its own, so
        # it cannot be stacked on another one.
        spec = SystemSpec(vms=[VMSpec(1)], pcpus=2,
                          pcpu_failures={"mtbf": 50.0, "mttr": 10.0},
                          degradation={"p": 0.5})
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            spec.validate()

    def test_maintenance_requires_degradation(self):
        with pytest.raises(ConfigurationError):
            self._build(maintenance=MaintenancePolicy())

    def test_initial_health_must_fit_host(self):
        with pytest.raises(ConfigurationError):
            self._build(degradation=DegradationModel(initial_health=[0, 1, 2]))

    def test_condition_threshold_bounded_by_h_max(self):
        with pytest.raises(ConfigurationError):
            self._build(
                degradation=DegradationModel(h_max=2),
                maintenance=MaintenancePolicy(policy="condition_based",
                                              threshold=3),
            )

    def test_zero_cost_overhead_is_normalized_away(self):
        model = self._build(hv_overhead=HVOverheadModel(cost=0))
        assert model.hv_overhead is None
