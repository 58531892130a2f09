"""Public-API surface tests: the documented entry points must exist.

README, docs/, and EXPERIMENTS.md reference these names; this module
pins them so a refactor cannot silently break the documentation.
"""

import os
import subprocess
import sys

import repro


def test_import_leaves_scipy_unloaded():
    # scipy costs about a second to import and only t-quantiles and the
    # CTMC solve use it, so they import it on first use; a fresh
    # interpreter importing the package (and the CLI) must not.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, repro, repro.cli; print('scipy' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert completed.stdout.strip() == "False"


def test_top_level_exports():
    for name in (
        "SystemSpec",
        "VMSpec",
        "WorkloadSpec",
        "simulate_once",
        "run_experiment",
        "run_sweep",
        "__version__",
    ):
        assert hasattr(repro, name), name


def test_subpackages_importable():
    for name in (
        "core",
        "des",
        "san",
        "vmm",
        "schedulers",
        "workloads",
        "metrics",
        "analysis",
        "paper",
        "resilience",
    ):
        assert hasattr(repro, name), name


def test_resilience_api():
    for name in ("ResilienceConfig", "GuardPolicy", "ChaosSpec", "ReplicationFailure"):
        assert hasattr(repro, name), name
    from repro.resilience import (  # noqa: F401
        ChaosScheduler,
        CheckpointStore,
        GuardedScheduler,
        ReplicationOutcome,
        retry_seed,
        run_replications,
    )
    from repro.schedulers import validate_decisions  # noqa: F401


def test_core_api():
    from repro.core import (  # noqa: F401
        ExperimentResult,
        MetricEstimate,
        PairedComparison,
        Simulation,
        build_system,
        compare_schedulers,
        create_scheduler,
        list_schedulers,
        register_schedule_function,
        register_scheduler,
        render_table,
        results_to_csv,
    )


def test_san_api():
    from repro.san import (  # noqa: F401
        CTMCSolver,
        Case,
        ComposedModel,
        ExtendedPlace,
        ImpulseReward,
        InputGate,
        InstantaneousActivity,
        MarkingTrace,
        OutputGate,
        Place,
        RateReward,
        RatioRateReward,
        ReachabilityAnalyzer,
        SANModel,
        SANSimulator,
        SharedVariable,
        TimedActivity,
        join,
        replicate,
        save_dot,
        share,
        to_dot,
    )


def test_scheduler_api():
    from repro.schedulers import (  # noqa: F401
        BUILTIN_ALGORITHMS,
        BalanceScheduler,
        CreditScheduler,
        FifoScheduler,
        FunctionScheduler,
        HealthAwareScheduler,
        HybridScheduler,
        RelaxedCoScheduler,
        RoundRobinScheduler,
        SEDFScheduler,
        SchedulerHarness,
        SchedulingAlgorithm,
        StrictCoScheduler,
    )

    assert set(BUILTIN_ALGORITHMS) == {
        "rrs", "scs", "rcs", "balance", "credit", "sedf", "hybrid", "fifo",
        "health_aware",
    }


def test_metrics_api():
    from repro.metrics import (  # noqa: F401
        BatchMeansEstimator,
        ReplicationEstimator,
        RunningStats,
        StateTimeline,
        confidence_interval,
        jain_fairness,
        mean_goodput,
        mean_spin_fraction,
        standard_rewards,
        welch_warmup,
    )


def test_vmm_api():
    from repro.vmm import (  # noqa: F401
        PCPUFailureModel,
        build_job_scheduler,
        build_vcpu_model,
        build_vcpu_scheduler,
        build_virtual_system,
        build_vm_model,
        build_workload_generator,
        pcpus_place,
        slot_value_place,
        vcpu_label,
    )


def test_workloads_api():
    from repro.workloads import (  # noqa: F401
        BernoulliRatio,
        DeterministicRatio,
        Job,
        JobKind,
        LockingWorkloadModel,
        NoSync,
        RecordingWorkloadModel,
        TraceWorkloadModel,
        WorkloadModel,
        WorkloadTrace,
    )


def test_paper_api():
    from repro.paper import (  # noqa: F401
        FigureResult,
        run_figure8,
        run_figure9,
        run_figure10,
        table1,
        table2,
    )


def test_version_is_semver_like():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)
