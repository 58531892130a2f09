"""The paper's evaluation, packaged as runnable experiment definitions.

One function per table/figure of Pham et al. (ICDCSW 2013):

* :func:`table1` / :func:`table2` — the join-place tables of the VM and
  Virtual System composed models (structural, no simulation);
* :func:`run_figure8` — VCPU availability fairness (§IV.A);
* :func:`run_figure9` — PCPU utilization / fragmentation (§IV.B);
* :func:`run_figure10` — VCPU utilization / synchronization latency
  (§IV.C).

Each ``run_*`` function returns a :class:`FigureResult` carrying the raw
:class:`~repro.core.results.ExperimentResult` objects plus a rendered
ASCII table, so callers (benches, examples, EXPERIMENTS.md generation)
share one source of truth.  Replication control follows the paper: 95%
confidence, target half-width < 0.1.

All functions accept ``sim_time`` / ``replications`` knobs so tests can
run them cheaply while benches run them at full fidelity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis.tables import figure_series_table
from .core.config import SystemSpec, VMSpec, WorkloadSpec
from .core.experiment import run_sweep
from .core.results import ExperimentResult, render_table
from .resilience import ResilienceConfig
from .vmm.system import build_virtual_system
from .vmm.virtual_machine import build_vm_model
from .schedulers import RoundRobinScheduler
from .workloads.generators import WorkloadModel

# The paper's §IV setups.
PAPER_SCHEDULERS = ("rrs", "scs", "rcs")
FIG8_TOPOLOGY = (2, 1, 1)  # one 2-VCPU VM + two 1-VCPU VMs
FIG8_PCPU_RANGE = (1, 2, 3, 4)
FIG9_VM_SETS = {"set1 (2+2)": (2, 2), "set2 (2+3)": (2, 3), "set3 (2+4)": (2, 4)}
FIG10_SYNC_RATIOS = (5, 4, 3, 2)  # "varied from 1:5 to 1:2"
PAPER_SYNC_RATIO = 5
PAPER_PCPUS = 4


@dataclass
class FigureResult:
    """One reproduced figure: raw experiments plus a rendered table."""

    figure: str
    results: List[ExperimentResult] = field(default_factory=list)
    table: str = ""

    def by_params(self, **params) -> ExperimentResult:
        """Find the experiment whose parameters match ``params``."""
        for result in self.results:
            if all(result.parameters.get(k) == v for k, v in params.items()):
                return result
        raise KeyError(f"no experiment with parameters {params}")


def _spec(
    topology: Sequence[int],
    pcpus: int,
    scheduler: str,
    sync_ratio: int,
    sim_time: int,
    warmup: int,
) -> SystemSpec:
    return SystemSpec(
        vms=[VMSpec(n, WorkloadSpec(sync_ratio=sync_ratio)) for n in topology],
        pcpus=pcpus,
        scheduler=scheduler,
        sim_time=sim_time,
        warmup=warmup,
    )


def _sweep(
    base_spec: SystemSpec,
    points: List[Dict],
    mutate,
    replications: Tuple[int, int],
    root_seed: int,
    resilience: Optional[ResilienceConfig],
) -> List[ExperimentResult]:
    min_reps, max_reps = replications
    return run_sweep(
        base_spec,
        points,
        mutate=mutate,
        min_replications=min_reps,
        max_replications=max_reps,
        root_seed=root_seed,
        resilience=resilience,
    )


# ---------------------------------------------------------------------------
# Tables 1 and 2 (model structure)
# ---------------------------------------------------------------------------


def table1(num_vcpus: int = 2) -> str:
    """Render the VM composed model's join places (paper Table 1)."""
    vm = build_vm_model(
        f"VM_{num_vcpus}VCPU_1", num_vcpus, WorkloadModel(), random.Random(0)
    )
    rows = [
        [row["state_variable"], "\n".join(row["submodel_variables"])]
        for row in vm.join_place_table()
    ]
    flat_rows = []
    for state_variable, members in rows:
        for i, member in enumerate(members.split("\n")):
            flat_rows.append([state_variable if i == 0 else "", member])
    return render_table(
        ["State Name", "Sub-model Variables"],
        flat_rows,
        title=f"TABLE 1: JOIN PLACES IN VIRTUAL MACHINE MODEL ({num_vcpus} VCPUs)",
    )


def table2(vms: Sequence[int] = (2, 2), pcpus: int = 2) -> str:
    """Render the Virtual System join places (paper Table 2)."""
    system = build_virtual_system(
        [(n, WorkloadModel()) for n in vms],
        RoundRobinScheduler(),
        pcpus,
    )
    flat_rows = []
    for row in system.join_place_table():
        for i, member in enumerate(row["submodel_variables"]):
            flat_rows.append([row["state_variable"] if i == 0 else "", member])
    return render_table(
        ["State Variable Name", "Sub-model Variables"],
        flat_rows,
        title="TABLE 2: JOIN PLACES IN VIRTUAL SYSTEM MODEL",
    )


# ---------------------------------------------------------------------------
# Figure 8: VCPU availability fairness
# ---------------------------------------------------------------------------


def figure8_sweep(
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    pcpu_range: Sequence[int] = FIG8_PCPU_RANGE,
    sim_time: int = 2000,
    warmup: int = 200,
) -> Tuple[SystemSpec, List[Dict]]:
    """The Figure-8 campaign as a ``run_sweep`` input: base spec + points.

    Shared by :func:`run_figure8`, the sweep differential tests, and
    the sweep benchmark in ``benchmarks/`` — all three must benchmark
    and verify the *same* sweep.
    """
    base = _spec(
        FIG8_TOPOLOGY, pcpu_range[0], schedulers[0], PAPER_SYNC_RATIO, sim_time, warmup
    )
    points = [
        {"pcpus": pcpus, "scheduler": scheduler}
        for pcpus in pcpu_range
        for scheduler in schedulers
    ]
    return base, points


def run_figure8(
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    pcpu_range: Sequence[int] = FIG8_PCPU_RANGE,
    sim_time: int = 2000,
    warmup: int = 200,
    replications: Tuple[int, int] = (5, 30),
    root_seed: int = 0,
    resilience: Optional[ResilienceConfig] = None,
) -> FigureResult:
    """Reproduce Figure 8: per-VCPU availability, VMs 2+1+1, sync 1:5.

    Returns a figure whose table has one row per (pcpus, scheduler) and
    one column per VCPU (paper labels VCPU1.1 .. VCPU3.1).
    """
    labels = ["VCPU1.1", "VCPU1.2", "VCPU2.1", "VCPU3.1"]
    base, points = figure8_sweep(schedulers, pcpu_range, sim_time, warmup)
    results = _sweep(base, points, None, replications, root_seed, resilience)
    rows = []
    for result in results:
        row = [result.parameters["pcpus"], result.parameters["scheduler"]]
        for label in labels:
            metric = f"vcpu_availability[{label}]"
            row.append(f"{result.mean(metric):.3f} ±{result.half_width(metric):.3f}")
        rows.append(row)
    table = render_table(
        ["pcpus", "scheduler"] + labels,
        rows,
        title=(
            "Figure 8: availability of four VCPUs in three VMs "
            "(2VCPUs + 1VCPU + 1VCPU), sync 1:5, 95% confidence"
        ),
    )
    return FigureResult(figure="figure8", results=results, table=table)


# ---------------------------------------------------------------------------
# Figure 9: PCPU utilization
# ---------------------------------------------------------------------------


def run_figure9(
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    vm_sets: Optional[Dict[str, Sequence[int]]] = None,
    sim_time: int = 2000,
    warmup: int = 200,
    replications: Tuple[int, int] = (5, 30),
    root_seed: int = 0,
    resilience: Optional[ResilienceConfig] = None,
) -> FigureResult:
    """Reproduce Figure 9: averaged PCPU utilization, 4 PCPUs, sync 1:5."""
    vm_sets = vm_sets if vm_sets is not None else dict(FIG9_VM_SETS)
    first_topology = next(iter(vm_sets.values()))
    base = _spec(
        first_topology, PAPER_PCPUS, schedulers[0], PAPER_SYNC_RATIO, sim_time, warmup
    )
    points = [
        {"vm_set": set_label, "scheduler": scheduler}
        for set_label in vm_sets
        for scheduler in schedulers
    ]

    def mutate(spec: SystemSpec, other: Dict) -> SystemSpec:
        topology = vm_sets[other["vm_set"]]
        return spec.with_overrides(
            vms=[VMSpec(n, WorkloadSpec(sync_ratio=PAPER_SYNC_RATIO)) for n in topology]
        )

    results = _sweep(base, points, mutate, replications, root_seed, resilience)
    series: Dict[str, List[Tuple[float, float]]] = {s: [] for s in schedulers}
    for result in results:
        series[result.parameters["scheduler"]].append(
            (result.mean("pcpu_utilization"), result.half_width("pcpu_utilization"))
        )
    table = figure_series_table(
        "Figure 9: averaged PCPU utilization of four PCPUs, sync 1:5, 95% confidence",
        "vm_set",
        list(vm_sets),
        series,
    )
    return FigureResult(figure="figure9", results=results, table=table)


# ---------------------------------------------------------------------------
# Figure 10: VCPU utilization
# ---------------------------------------------------------------------------


def run_figure10(
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    vm_sets: Optional[Dict[str, Sequence[int]]] = None,
    sync_ratios: Sequence[int] = FIG10_SYNC_RATIOS,
    sim_time: int = 2000,
    warmup: int = 200,
    replications: Tuple[int, int] = (5, 30),
    root_seed: int = 0,
    resilience: Optional[ResilienceConfig] = None,
) -> FigureResult:
    """Reproduce Figure 10: averaged VCPU utilization, 4 PCPUs,
    sync ratio varied 1:5 -> 1:2."""
    vm_sets = vm_sets if vm_sets is not None else dict(FIG9_VM_SETS)
    first_topology = next(iter(vm_sets.values()))
    base = _spec(
        first_topology, PAPER_PCPUS, schedulers[0], sync_ratios[0], sim_time, warmup
    )
    points = [
        {"vm_set": set_label, "scheduler": scheduler, "sync_ratio": ratio}
        for ratio in sync_ratios
        for set_label in vm_sets
        for scheduler in schedulers
    ]

    def mutate(spec: SystemSpec, other: Dict) -> SystemSpec:
        topology = vm_sets[other["vm_set"]]
        ratio = other["sync_ratio"]
        return spec.with_overrides(
            vms=[VMSpec(n, WorkloadSpec(sync_ratio=ratio)) for n in topology]
        )

    results = _sweep(base, points, mutate, replications, root_seed, resilience)
    rows = []
    cursor = iter(results)
    for ratio in sync_ratios:
        for set_label in vm_sets:
            row = [f"1:{ratio}", set_label]
            for _scheduler in schedulers:
                result = next(cursor)
                row.append(
                    f"{result.mean('vcpu_utilization'):.3f} "
                    f"±{result.half_width('vcpu_utilization'):.3f}"
                )
            rows.append(row)
    table = render_table(
        ["sync", "vm_set"] + list(schedulers),
        rows,
        title=(
            "Figure 10: averaged VCPU utilization with four PCPUs, "
            "95% confidence (BUSY time / ACTIVE time)"
        ),
    )
    return FigureResult(figure="figure10", results=results, table=table)
