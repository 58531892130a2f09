"""Ablation: scheduler brittleness under PCPU failures (dependability).

SANs are a dependability formalism, and the paper's framework runs on
them; this ablation adds what the paper did not evaluate: an
exponential fail/repair process per PCPU (the classic SAN pattern; the
spec's ``pcpu_failures`` shorthand, which runs as the two-state health
chain with one corrective crew per PCPU) and asks how each scheduling
discipline degrades as the host loses and regains capacity.  Each cell
is the mean with its 95% confidence half-width.

Finding: strict co-scheduling is *brittle* — a 4-VCPU gang needs all
four PCPUs simultaneously, so any single failure starves it outright,
and its availability collapses super-linearly with the failure rate.
Per-VCPU disciplines (RRS) and relaxed co-scheduling degrade
gracefully, roughly tracking the host's operational capacity.
"""

from repro.core import SystemSpec, VMSpec, WorkloadSpec, run_experiment
from repro.core.results import render_table

from conftest import bench_params

TOPOLOGY = (4, 2)  # the 4-VCPU VM is the brittleness probe
PCPUS = 4
FAILURE_LEVELS = [
    ("none", None),
    ("mild (A=0.9)", {"mtbf": 450.0, "mttr": 50.0}),
    ("harsh (A=0.6)", {"mtbf": 150.0, "mttr": 100.0}),
]
WIDE_VM_METRIC = "vcpu_availability[VCPU1.1]"


def measure(scheduler, failures, params):
    spec = SystemSpec(
        vms=[VMSpec(n, WorkloadSpec(sync_ratio=5)) for n in TOPOLOGY],
        pcpus=PCPUS,
        scheduler=scheduler,
        sim_time=params["sim_time"],
        warmup=200,
        pcpu_failures=failures,
    )
    result = run_experiment(
        spec,
        min_replications=params["replications"][0],
        max_replications=params["replications"][1],
        watch_metrics=["vcpu_availability"],
    )
    return result


def run_sweep():
    params = bench_params()
    rows = []
    values = {}
    for label, failures in FAILURE_LEVELS:
        row = [label]
        for scheduler in ("rrs", "scs", "rcs"):
            result = measure(scheduler, failures, params)
            wide = result.mean(WIDE_VM_METRIC)
            values[(scheduler, label)] = wide
            row.append(f"{wide:.3f} ± {result.half_width(WIDE_VM_METRIC):.3f}")
        rows.append(row)
    table = render_table(
        ["pcpu failures", "rrs", "scs", "rcs"],
        rows,
        title=(
            "Ablation: wide-VM (4 VCPUs) availability under PCPU failures "
            f"(VMs {'+'.join(map(str, TOPOLOGY))}, {PCPUS} PCPUs)"
        ),
    )
    return values, table


def test_failure_ablation(benchmark, save_artifact):
    values, table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save_artifact("ablation_pcpu_failures", table)
    print("\n" + table)

    # Per-PCPU availability mtbf / (mtbf + mttr) names each level.
    for label, failures in FAILURE_LEVELS[1:]:
        level = failures["mtbf"] / (failures["mtbf"] + failures["mttr"])
        assert f"A={level:g})" in label

    # Everyone loses availability as failures appear...
    for scheduler in ("rrs", "scs", "rcs"):
        assert (
            values[(scheduler, "harsh (A=0.6)")]
            < values[(scheduler, "none")]
        )

    # ...but SCS collapses: its strict co-start needs ALL four PCPUs up
    # at once, so even the mild level hits it far harder than RRS.
    rrs_drop = values[("rrs", "none")] - values[("rrs", "mild (A=0.9)")]
    scs_drop = values[("scs", "none")] - values[("scs", "mild (A=0.9)")]
    assert scs_drop > 2 * rrs_drop

    # Under the harsh level SCS starves the wide VM almost entirely,
    # while RRS keeps it meaningfully scheduled.
    assert values[("scs", "harsh (A=0.6)")] < 0.1
    assert values[("rrs", "harsh (A=0.6)")] > 0.25

    # Relaxed co-scheduling sits between the two disciplines.
    assert (
        values[("scs", "harsh (A=0.6)")]
        < values[("rcs", "harsh (A=0.6)")]
        <= values[("rrs", "harsh (A=0.6)")] + 0.02
    )
