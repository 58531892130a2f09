"""Public-API surface tests: the documented entry points must exist.

README, docs/, and EXPERIMENTS.md reference these names; this module
pins them so a refactor cannot silently break the documentation.
"""

import os
import subprocess
import sys

import repro


# Blocks numpy (forked workers inherit the block), then drives the
# default paths: the package, CLI, paper and service imports, an
# adaptive experiment in-process and on two workers, a figure on a
# two-worker sweep and a CLI run.  Any numpy import on the way raises.
# Last it lifts the block, solves a CTMC (which loads numpy itself)
# and reports whether scipy was ever imported.
_DEFAULT_PATH_PROBE = """
import os, sys, tempfile
sys.modules["numpy"] = None
import repro, repro.cli, repro.paper, repro.service
from repro.resilience import ResilienceConfig

spec = repro.SystemSpec(vms=[repro.VMSpec(vcpus=2)], pcpus=1, sim_time=200, warmup=40)
for jobs in (1, 2):
    result = repro.run_experiment(
        spec, min_replications=2, max_replications=4,
        resilience=ResilienceConfig(jobs=jobs),
    )
    assert 2 <= result.replications <= 4, result.replications
    assert result.failures == [], result.failures
figure = repro.paper.run_figure8(
    schedulers=("rrs",), pcpu_range=(1, 2), sim_time=100, warmup=20,
    replications=(2, 3), sweep_jobs=2,
)
assert len(figure.results) == 2, figure.results
assert all(r.failures == [] for r in figure.results)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "spec.json")
    with open(path, "w") as fh:
        fh.write('{"vms": [{"vcpus": 1}, {"vcpus": 1}], "pcpus": 1, '
                 '"sim_time": 200, "warmup": 40}')
    code = repro.cli.main([
        "run", "--spec", path, "--jobs", "2",
        "--min-replications", "2", "--max-replications", "3", "--csv",
    ])
    assert code == 0, code

del sys.modules["numpy"]
from repro.san import CTMCSolver
from tests.san.test_ctmc import on_off_model

solver = CTMCSolver(on_off_model()[0])
solver.explore()
assert abs(solver.steady_state().sum() - 1.0) < 1e-12
print("scipy" in sys.modules)
"""


def test_default_path_loads_neither_numpy_nor_scipy():
    # numpy is imported only by the vectorized lanes and the CTMC
    # solve, and scipy by nothing: plain runs, pooled sweeps, figures
    # and the CLI must work in an interpreter where numpy cannot load.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    completed = subprocess.run(
        [sys.executable, "-c", _DEFAULT_PATH_PROBE], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "False"


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
        GuardState,
        ReplicationOutcome,
        retry_seed,
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
