"""Sweep-engine benchmarks: shared pool + adaptive allocation + cache.

The paper's campaigns are *sweeps* — Figure 8 alone is 12 (pcpus,
scheduler) points, each replicated to confidence.  PR 5's engine runs
the whole sweep through one shared worker pool with spec-affinity
placement, allocates replications across points by CI distance, and
memoizes finished replications in a persistent content-addressed
cache.  This bench quantifies all three against the status quo.

Run directly (``python benchmarks/bench_sweep_engine.py``) the module
executes the Figure 8 sweep four ways and writes ``BENCH_pr5.json``:

* ``serial`` — the baseline: one ``run_experiment`` per point in
  order, each spinning up its own ``ResilienceConfig(jobs=J)`` worker
  pool, so only that point's floor replications run in parallel;
* ``interleaved`` — the shared-pool adaptive engine, no cache;
* ``interleaved_cold`` — same, writing a fresh result cache;
* ``interleaved_warm`` — rerun against that cache, which must execute
  **zero** replications.

Every variant's metric estimates must be exactly ``==`` the serial
baseline's (the engine's core contract).  ``--fail-under`` turns the
interleaved-over-serial ratio into a CI gate; metric divergence or a
warm rerun that executes work fails unconditionally.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time

from repro.core import run_experiment
from repro.core.experiment import resolve_sweep_points
from repro.core.sweeps import run_interleaved_sweep
from repro.paper import figure8_sweep
from repro.resilience import ResilienceConfig

_VARIANTS = ("serial", "interleaved", "interleaved_cold", "interleaved_warm")


def _extract(results):
    """Canonical per-point view for exact cross-variant comparison."""
    return [
        {
            "replications": result.replications,
            "values": {
                name: estimate.values for name, estimate in result.estimates.items()
            },
        }
        for result in results
    ]


def _stats_entry(outcome):
    stats = outcome.stats
    return {
        "points": stats.points,
        "executed": stats.executed,
        "cache_hits": stats.cache_hits,
        "dispatches": stats.dispatches,
        "executed_per_point": list(stats.executed_per_point),
    }


def run_serial(base, points, jobs, sim_args):
    """Baseline: one ``run_experiment`` per point, a fresh J-worker pool each."""
    resolved = resolve_sweep_points(base, points)
    start = time.perf_counter()
    results = []
    for point, spec in resolved:
        result = run_experiment(
            spec,
            resilience=ResilienceConfig(jobs=jobs, engine="compiled"),
            **sim_args,
        )
        result.parameters.update(point)
        results.append(result)
    elapsed = time.perf_counter() - start
    return results, {"wall_seconds": elapsed, "jobs": jobs}


def run_interleaved(base, points, jobs, sim_args, cache_dir=None):
    """Shared-pool adaptive engine, optionally against a result cache."""
    resolved = resolve_sweep_points(base, points)
    start = time.perf_counter()
    outcome = run_interleaved_sweep(
        resolved,
        resilience=ResilienceConfig(jobs=jobs, engine="compiled", cache_dir=cache_dir),
        **sim_args,
    )
    elapsed = time.perf_counter() - start
    entry = {"wall_seconds": elapsed, "jobs": jobs}
    entry.update(_stats_entry(outcome))
    return outcome.results, entry


def compare_sweep_engines(
    sim_time=400, warmup=100, min_replications=3, max_replications=8, jobs=2
):
    """Run the Figure 8 sweep through every variant; return the report."""
    base, points = figure8_sweep(sim_time=sim_time, warmup=warmup)
    sim_args = {
        "min_replications": min_replications,
        "max_replications": max_replications,
        "root_seed": 0,
    }

    entries = {}
    extracted = {}
    results, entries["serial"] = run_serial(base, points, jobs, sim_args)
    extracted["serial"] = _extract(results)
    results, entries["interleaved"] = run_interleaved(base, points, jobs, sim_args)
    extracted["interleaved"] = _extract(results)

    cache_dir = tempfile.mkdtemp(prefix="bench_sweep_cache_")
    try:
        results, entries["interleaved_cold"] = run_interleaved(
            base, points, jobs, sim_args, cache_dir=cache_dir
        )
        extracted["interleaved_cold"] = _extract(results)
        results, entries["interleaved_warm"] = run_interleaved(
            base, points, jobs, sim_args, cache_dir=cache_dir
        )
        extracted["interleaved_warm"] = _extract(results)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    reference = extracted["serial"]
    all_equal = all(extracted[variant] == reference for variant in _VARIANTS)
    serial_wall = entries["serial"]["wall_seconds"]
    interleaved_speedup = serial_wall / entries["interleaved"]["wall_seconds"]
    cached_speedup = serial_wall / entries["interleaved_warm"]["wall_seconds"]
    return {
        "benchmark": "sweep-engine",
        "config": {
            "sweep": "figure8",
            "points": len(points),
            "sim_time": sim_time,
            "warmup": warmup,
            "min_replications": min_replications,
            "max_replications": max_replications,
            "jobs": jobs,
            "root_seed": 0,
            "engine": "compiled",
        },
        "results": entries,
        "summary": {
            "interleaved_over_serial": interleaved_speedup,
            "warm_cache_over_serial": cached_speedup,
            "warm_executed": entries["interleaved_warm"]["executed"],
            "warm_cache_hits": entries["interleaved_warm"]["cache_hits"],
            "all_metrics_equal": all_equal,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the interleaved sweep engine and result cache "
        "against the serial per-point baseline"
    )
    parser.add_argument("--out", default="BENCH_pr5.json", help="report path")
    parser.add_argument("--sim-time", type=int, default=400)
    parser.add_argument("--warmup", type=int, default=100)
    parser.add_argument("--min-replications", type=int, default=3)
    parser.add_argument("--max-replications", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=2, help="worker processes")
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        help="exit 1 if interleaved-over-serial falls below this ratio",
    )
    args = parser.parse_args(argv)

    report = compare_sweep_engines(
        sim_time=args.sim_time,
        warmup=args.warmup,
        min_replications=args.min_replications,
        max_replications=args.max_replications,
        jobs=args.jobs,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    summary = report["summary"]
    for variant in _VARIANTS:
        entry = report["results"][variant]
        executed = entry.get("executed")
        detail = (
            f", executed {executed}, cache hits {entry['cache_hits']}"
            if executed is not None
            else ""
        )
        print(f"{variant}: {entry['wall_seconds']:.2f} s{detail}")
    print(
        f"interleaved {summary['interleaved_over_serial']:.2f}x over serial, "
        f"warm cache {summary['warm_cache_over_serial']:.2f}x over serial "
        f"(warm rerun executed {summary['warm_executed']} replications), "
        f"all_metrics_equal={summary['all_metrics_equal']}, wrote {args.out}"
    )

    if not summary["all_metrics_equal"]:
        print(
            "FAIL: sweep variants diverged — metrics are not exactly equal",
            file=sys.stderr,
        )
        return 1
    if summary["warm_executed"] != 0:
        print(
            f"FAIL: warm-cache rerun executed {summary['warm_executed']} "
            "replications (expected 0)",
            file=sys.stderr,
        )
        return 1
    floor = summary["interleaved_over_serial"]
    if args.fail_under is not None and floor < args.fail_under:
        print(
            f"FAIL: interleaved-over-serial {floor:.2f}x below "
            f"--fail-under {args.fail_under}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
