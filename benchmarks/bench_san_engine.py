"""SAN engine micro-benchmarks.

The paper's pitch is *rapid* evaluation — assembling and simulating a
virtualization model in seconds instead of hacking a 300K-line
hypervisor.  These benches quantify the engine: raw timed-activity
throughput, instantaneous settle cost, and full virtualization-system
throughput in simulated ticks per second.

Run directly (``python benchmarks/bench_san_engine.py``) the module
compares the default compiled engine (with and without its clock-tick
fast-forward, ablating the skip from the flat-array lowering) against
the full-rescan reference on the Figure 8 configuration and writes a
machine-readable report
(``BENCH_pr4.json``): wall-clock, events/second, input-gate
evaluations, tick fast-forward counters, speedup ratios, model-reuse
build amortization, and a bit-identical cross-check of every variant's
metrics.  ``--fail-under`` turns it into a CI gate.
"""

import argparse
import json
import sys
import time

from repro.core.framework import Simulation
from repro.des import Deterministic, Exponential, StreamFactory
from repro.san import (
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    SANSimulator,
    TimedActivity,
)
from repro.core import SystemSpec, VMSpec, simulate_once


def build_clock_model():
    m = SANModel("clock")
    count = m.add_place(Place("count"))
    m.add_activity(
        TimedActivity(
            "tick",
            Deterministic(1),
            input_gates=[InputGate("always", lambda: True)],
            output_gates=[OutputGate("bump", count.add)],
        )
    )
    return m


def test_timed_activity_throughput(benchmark):
    """Events per second for a bare deterministic clock."""

    def run():
        sim = SANSimulator(build_clock_model(), StreamFactory(0))
        sim.run(until=20_000)
        return sim.completions

    completions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert completions == 19_999


def test_stochastic_race_throughput(benchmark):
    """Enable/abort churn: two exponential activities racing on a token."""

    def build():
        m = SANModel("race")
        token = m.add_place(Place("token", initial=1))
        for name in ("a", "b"):
            m.add_activity(
                TimedActivity(
                    name,
                    Exponential(1.0),
                    input_gates=[
                        InputGate(f"g{name}", lambda: token.tokens > 0, token.remove)
                    ],
                    output_gates=[OutputGate(f"o{name}", token.add)],
                )
            )
        return m

    def run():
        sim = SANSimulator(build(), StreamFactory(1))
        sim.run(until=5_000)
        return sim.completions

    completions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert completions > 1_000


def test_instantaneous_settle_throughput(benchmark):
    """A clock fanning out to 16 instantaneous consumers each tick."""

    def build():
        m = SANModel("fanout")
        channels = [m.add_place(Place(f"ch{i}")) for i in range(16)]

        def deposit_all():
            for channel in channels:
                channel.add()

        m.add_activity(
            TimedActivity(
                "clock",
                Deterministic(1),
                input_gates=[InputGate("always", lambda: True)],
                output_gates=[OutputGate("fan", deposit_all)],
            )
        )
        for i, channel in enumerate(channels):
            m.add_activity(
                InstantaneousActivity(
                    f"consume{i}",
                    input_gates=[
                        InputGate(f"g{i}", lambda c=channel: c.tokens > 0, channel.remove)
                    ],
                )
            )
        return m

    def run():
        sim = SANSimulator(build(), StreamFactory(0))
        sim.run(until=1_000)
        return sim.completions

    completions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert completions == 999 * 17


def test_full_system_ticks_per_second(benchmark):
    """Simulated ticks/second of the paper's Figure 8 system (6 sub-models)."""

    spec = SystemSpec(
        vms=[VMSpec(2), VMSpec(1), VMSpec(1)],
        pcpus=2,
        scheduler="rrs",
        sim_time=2_000,
        warmup=0,
    )

    def run():
        return simulate_once(spec).completions

    completions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert completions > 10_000


# -- engine comparison (the PR 4 acceptance bench) ---------------------------
#
# The Figure 8 *shape* — more runnable VCPUs than PCPUs, so scheduling
# decisions bind every tick — scaled to four 2-VCPU VMs: co-scheduling
# comparisons need SMP VMs, and the engines' advantages grow with gate
# count, so the bench uses the larger of the paper's starved-host
# configurations.  Three variants run interleaved: compiled, compiled
# with tick fast-forward disabled (the ablation isolating the FF win
# from the flat-array lowering), and the rescan reference.  rcs skips
# ticks only while its skew thresholds certify them quiet, so it is the
# scheduler where fast-forward engages least.

FIG8_TOPOLOGY = (2, 2, 2, 2)
FIG8_PCPUS = 2
FIG8_SCHEDULERS = ("rrs", "scs", "rcs")

_VARIANTS = ("compiled", "compiled_no_ff", "rescan")


def _fig8_spec(scheduler, sim_time):
    return SystemSpec(
        vms=[VMSpec(n) for n in FIG8_TOPOLOGY],
        pcpus=FIG8_PCPUS,
        scheduler=scheduler,
        sim_time=sim_time,
        warmup=0,
    )


def _run_once(scheduler, sim_time, variant, root_seed=0):
    """Run one replication and report wall clock plus engine effort.

    ``gate_evaluations`` is a process-global delta, so it must be read
    immediately after the run, before any other simulator executes —
    which also makes it identical across reps (same seed, same path).
    """
    engine = "compiled" if variant.startswith("compiled") else variant
    sim = Simulation(
        _fig8_spec(scheduler, sim_time),
        replication=0,
        root_seed=root_seed,
        engine=engine,
    )
    if variant == "compiled_no_ff":
        sim.simulator.fast_forward = False
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    stats = sim.simulator.stats()
    return {
        "wall_seconds": elapsed,
        "events_per_second": result.completions / elapsed if elapsed > 0 else 0.0,
        "gate_evaluations": sim.simulator.gate_evaluations,
        "completions": result.completions,
        "ticks_fired": stats["ticks_fired"],
        "ticks_fast_forwarded": stats["ticks_fast_forwarded"],
        "consumers_applied": stats["consumers_applied"],
        "metrics": result.metrics,
    }


def _shortcut_counters(scheduler, sim_time, root_seed=0):
    """Where the compiled engine's executed ticks come from (untimed).

    One profiled replication: the tick consumers its Clock fan-out
    applied directly, the Scheduling_Func ticks it certified quiet, and
    why each executed tick was not fast-forwarded.
    """
    sim = Simulation(
        _fig8_spec(scheduler, sim_time),
        replication=0,
        root_seed=root_seed,
        engine="compiled",
        profile=True,
    )
    sim.run()
    counters = sim.stats()["profile"]["counters"]
    prefix = "engine.refused."
    return {
        "consumers_applied": counters.get("engine.consumers_applied", 0),
        "quiet_ticks_skipped": counters.get("vmm.quiet_ticks_skipped", 0),
        "refused": {
            name[len(prefix):]: count
            for name, count in sorted(counters.items())
            if name.startswith(prefix)
        },
    }


def _measure_variants(scheduler, sim_time, reps):
    """Best-of-``reps`` for every engine variant, measured interleaved.

    The variants cycle (compiled, compiled_no_ff, rescan, compiled,
    ...) rather than running in blocks, so background-load
    drift on the host cannot systematically favour one side of a ratio.
    """
    best = {}
    for _ in range(max(1, reps)):
        for variant in _VARIANTS:
            sample = _run_once(scheduler, sim_time, variant)
            if (
                variant not in best
                or sample["wall_seconds"] < best[variant]["wall_seconds"]
            ):
                best[variant] = sample
    return best


def measure_tracing_overhead(sim_time=2000, reps=3, scheduler="rrs"):
    """Wall-clock cost of the tracing hooks when tracing is *off*.

    The observability layer promises zero overhead when disabled: every
    hook site is one module-level pointer test.  This measures the
    untraced run (hooks compiled in, tracer inactive) against a fully
    traced run for scale, reporting the untraced wall clock so drift in
    the disabled path shows up in the report next to the engine
    numbers.
    """
    from repro.observability import SimTracer

    def best_of(tracer_factory):
        best = None
        for _ in range(max(1, reps)):
            sim = Simulation(
                _fig8_spec(scheduler, sim_time),
                replication=0,
                root_seed=0,
                tracer=tracer_factory(),
            )
            start = time.perf_counter()
            sim.run()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best

    off = best_of(lambda: None)
    on = best_of(SimTracer)
    return {
        "scheduler": scheduler,
        "untraced_wall_seconds": off,
        "traced_wall_seconds": on,
        "traced_over_untraced": on / off if off > 0 else float("inf"),
    }


def measure_model_reuse(sim_time=500, reps=3, scheduler="rrs"):
    """Build-cost amortization of cross-replication model reuse.

    Times full ``Simulation`` construction (the part reuse elides) for a
    fresh build vs a cache checkout of the compiled engine.
    """
    from repro.core.framework import clear_model_cache

    spec = _fig8_spec(scheduler, sim_time)

    def best_construction(reuse):
        best = None
        for replication in range(max(1, reps)):
            if not reuse:
                clear_model_cache()
            start = time.perf_counter()
            sim = Simulation(
                spec, replication=replication, engine="compiled", reuse=True
            )
            elapsed = time.perf_counter() - start
            sim.run()  # releases the cache entry for the next checkout
            if replication == 0 and reuse:
                continue  # the first reuse=True build primes the cache
            if best is None or elapsed < best:
                best = elapsed
        return best

    fresh = best_construction(reuse=False)
    reused = best_construction(reuse=True)
    clear_model_cache()
    return {
        "scheduler": scheduler,
        "fresh_build_seconds": fresh,
        "reused_build_seconds": reused,
        "build_speedup": fresh / reused if reused and reused > 0 else float("inf"),
    }


def compare_engines(sim_time=2000, reps=3, schedulers=FIG8_SCHEDULERS):
    """Benchmark compiled (with and without tick fast-forward) against
    rescan; returns the full report dict."""
    results = {}
    for scheduler in schedulers:
        best = _measure_variants(scheduler, sim_time, reps)
        reference = best["rescan"]
        compiled = best["compiled"]
        bit_identical = all(
            best[variant]["metrics"] == reference["metrics"]
            and best[variant]["completions"] == reference["completions"]
            for variant in _VARIANTS
        )
        entry = {
            variant: {k: v for k, v in best[variant].items() if k != "metrics"}
            for variant in _VARIANTS
        }
        entry.update(
            compiled_over_rescan=(
                reference["wall_seconds"] / compiled["wall_seconds"]
            ),
            fast_forward_speedup=(
                best["compiled_no_ff"]["wall_seconds"] / compiled["wall_seconds"]
            ),
            fast_forward_engaged=compiled["ticks_fast_forwarded"] > 0,
            shortcuts=_shortcut_counters(scheduler, sim_time),
            direct_consumers_engaged=compiled["consumers_applied"] > 0,
            bit_identical=bit_identical,
        )
        results[scheduler] = entry
    return {
        "benchmark": "san-enablement-engine",
        "config": {
            "topology": list(FIG8_TOPOLOGY),
            "pcpus": FIG8_PCPUS,
            "sim_time": sim_time,
            "reps": reps,
            "schedulers": list(schedulers),
            "root_seed": 0,
            "replication": 0,
        },
        "results": results,
        "tracing_overhead": measure_tracing_overhead(
            sim_time=sim_time, reps=reps
        ),
        "model_reuse": measure_model_reuse(reps=reps),
        "summary": {
            "min_compiled_over_rescan": min(
                r["compiled_over_rescan"] for r in results.values()
            ),
            "all_bit_identical": all(r["bit_identical"] for r in results.values()),
            "direct_consumers_engaged": {
                scheduler: r["direct_consumers_engaged"]
                for scheduler, r in results.items()
            },
        },
    }


# -- degradation overhead (the PR 6 acceptance bench) ------------------------
#
# The health layer must be pay-for-what-you-use: a run with degradation
# enabled swaps in the gated tick fan-out (per-tick capacity
# withholding + hv-debt burn) and conservatively narrows the compiled
# engine's fast-forward certificate, but with a moderate event rate and
# a condition-based crew repairing any non-pristine core the host is
# healthy most of the time, so spans still skip.  The gate bounds the
# end-to-end wall-clock ratio over the plain compiled run on the same
# configuration.  (Without maintenance the first degradation sticks
# forever and fast-forward stays off for the rest of the run — that
# regime costs whatever per-tick capacity withholding costs, ~2x, and
# is deliberately not the gated configuration.)

DEGRADATION_SPEC = {"p": 0.2, "h_max": 4, "mtbe": 500.0}
MAINTENANCE_SPEC = {"policy": "condition_based", "crews": 1, "mttr": 10.0,
                    "threshold": 1}

_DEGRADATION_VARIANTS = ("plain", "degraded", "full")


def _degraded_fig8_spec(variant, scheduler, sim_time):
    spec = _fig8_spec(scheduler, sim_time)
    if variant == "plain":
        return spec
    overrides = {
        "degradation": dict(DEGRADATION_SPEC),
        "maintenance": dict(MAINTENANCE_SPEC),
    }
    if variant == "full":
        overrides["hv_overhead"] = {"cost": 1}
    return spec.with_overrides(**overrides)


def _run_degradation_once(variant, scheduler, sim_time, engine="compiled"):
    sim = Simulation(
        _degraded_fig8_spec(variant, scheduler, sim_time),
        replication=0,
        root_seed=0,
        engine=engine,
    )
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    stats = sim.simulator.stats()
    return {
        "wall_seconds": elapsed,
        "completions": result.completions,
        "ticks_fired": stats["ticks_fired"],
        "ticks_fast_forwarded": stats["ticks_fast_forwarded"],
        "consumers_applied": stats["consumers_applied"],
        "metrics": result.metrics,
    }


def compare_degradation(sim_time=2000, reps=3, schedulers=("rrs", "scs")):
    """Wall-clock cost of the health layer on the compiled engine.

    Measures plain vs degraded (degradation + condition-based
    maintenance) vs the full stack (+ hv overhead), interleaved
    best-of-``reps``, plus a compiled-vs-rescan bit-identical
    cross-check of the full stack.
    """
    results = {}
    for scheduler in schedulers:
        best = {}
        for _ in range(max(1, reps)):
            for variant in _DEGRADATION_VARIANTS:
                sample = _run_degradation_once(variant, scheduler, sim_time)
                if (
                    variant not in best
                    or sample["wall_seconds"] < best[variant]["wall_seconds"]
                ):
                    best[variant] = sample
        reference = _run_degradation_once(
            "full", scheduler, sim_time, engine="rescan"
        )
        entry = {
            variant: {k: v for k, v in best[variant].items() if k != "metrics"}
            for variant in _DEGRADATION_VARIANTS
        }
        plain = best["plain"]["wall_seconds"]
        entry.update(
            degraded_over_plain=best["degraded"]["wall_seconds"] / plain,
            full_over_plain=best["full"]["wall_seconds"] / plain,
            fast_forward_still_engaged=(
                best["full"]["ticks_fast_forwarded"] > 0
            ),
            bit_identical=(
                best["full"]["metrics"] == reference["metrics"]
                and best["full"]["completions"] == reference["completions"]
            ),
        )
        results[scheduler] = entry
    return {
        "benchmark": "pcpu-health-degradation-overhead",
        "config": {
            "topology": list(FIG8_TOPOLOGY),
            "pcpus": FIG8_PCPUS,
            "sim_time": sim_time,
            "reps": reps,
            "schedulers": list(schedulers),
            "degradation": dict(DEGRADATION_SPEC),
            "maintenance": dict(MAINTENANCE_SPEC),
            "hv_overhead": {"cost": 1},
            "root_seed": 0,
            "replication": 0,
        },
        "results": results,
        "summary": {
            "max_degraded_over_plain": max(
                r["degraded_over_plain"] for r in results.values()
            ),
            "max_full_over_plain": max(
                r["full_over_plain"] for r in results.values()
            ),
            "all_bit_identical": all(
                r["bit_identical"] for r in results.values()
            ),
        },
    }


def run_degradation_bench(args):
    report = compare_degradation(sim_time=args.sim_time, reps=args.reps)
    with open(args.degradation_out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for scheduler, entry in report["results"].items():
        print(
            f"{scheduler}: degraded {entry['degraded_over_plain']:.2f}x, "
            f"full stack {entry['full_over_plain']:.2f}x over plain compiled "
            f"(full: ticks fired {entry['full']['ticks_fired']}, "
            f"fast-forwarded {entry['full']['ticks_fast_forwarded']}, "
            f"consumers applied directly {entry['full']['consumers_applied']}), "
            f"bit_identical={entry['bit_identical']}"
        )
    summary = report["summary"]
    print(
        f"max degraded/plain {summary['max_degraded_over_plain']:.2f}x, "
        f"max full/plain {summary['max_full_over_plain']:.2f}x, "
        f"wrote {args.degradation_out}"
    )
    if not summary["all_bit_identical"]:
        print("FAIL: engines diverged under degradation", file=sys.stderr)
        return 1
    ceiling = args.degradation_fail_over
    worst = max(
        summary["max_degraded_over_plain"], summary["max_full_over_plain"]
    )
    if ceiling is not None and worst > ceiling:
        print(
            f"FAIL: degradation overhead {worst:.2f}x "
            f"exceeds --degradation-fail-over {ceiling}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the compiled and rescan engines"
    )
    parser.add_argument("--out", default="BENCH_pr4.json", help="report path")
    parser.add_argument("--sim-time", type=int, default=2000)
    parser.add_argument("--reps", type=int, default=3, help="best-of-N wall clock")
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        help="exit 1 if compiled-over-rescan falls below this on any "
        "scheduler",
    )
    parser.add_argument(
        "--degradation",
        action="store_true",
        help="run the PCPU-health overhead bench instead of the engine "
        "comparison, writing --degradation-out",
    )
    parser.add_argument(
        "--degradation-out",
        default="BENCH_pr6.json",
        dest="degradation_out",
        help="report path for the degradation bench",
    )
    parser.add_argument(
        "--degradation-fail-over",
        type=float,
        default=None,
        dest="degradation_fail_over",
        help="exit 1 if the full health stack costs more than this ratio "
        "over the plain compiled run (e.g. 1.25 = 25%% overhead budget)",
    )
    args = parser.parse_args(argv)

    if args.degradation:
        return run_degradation_bench(args)

    report = compare_engines(sim_time=args.sim_time, reps=args.reps)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for scheduler, entry in report["results"].items():
        compiled = entry["compiled"]
        shortcuts = entry["shortcuts"]
        print(
            f"{scheduler}: compiled {entry['compiled_over_rescan']:.2f}x over "
            f"rescan (fast-forward alone {entry['fast_forward_speedup']:.2f}x; "
            f"ticks fired {compiled['ticks_fired']}, "
            f"fast-forwarded {compiled['ticks_fast_forwarded']}; "
            f"consumers applied directly {compiled['consumers_applied']}, "
            f"quiet Scheduling_Func ticks {shortcuts['quiet_ticks_skipped']}), "
            f"bit_identical={entry['bit_identical']}"
        )
        reasons = ", ".join(
            f"{name} {count}" for name, count in shortcuts["refused"].items()
        )
        print(f"  executed ticks by refusal: {reasons}")
    overhead = report["tracing_overhead"]
    print(
        f"tracing ({overhead['scheduler']}): untraced "
        f"{overhead['untraced_wall_seconds'] * 1000:.1f} ms, traced "
        f"{overhead['traced_wall_seconds'] * 1000:.1f} ms "
        f"({overhead['traced_over_untraced']:.2f}x)"
    )
    reuse = report["model_reuse"]
    print(
        f"model reuse ({reuse['scheduler']}): fresh build "
        f"{reuse['fresh_build_seconds'] * 1000:.1f} ms, cached checkout "
        f"{reuse['reused_build_seconds'] * 1000:.1f} ms "
        f"({reuse['build_speedup']:.1f}x)"
    )
    summary = report["summary"]
    print(
        f"min compiled/rescan {summary['min_compiled_over_rescan']:.2f}x, "
        f"wrote {args.out}"
    )

    if not summary["all_bit_identical"]:
        print("FAIL: engines diverged — metrics are not bit-identical", file=sys.stderr)
        return 1
    if not summary["direct_consumers_engaged"].get("rrs", True):
        print(
            "FAIL: the compiled engine applied no tick consumer directly "
            "on the plain rrs configuration",
            file=sys.stderr,
        )
        return 1
    floor = summary["min_compiled_over_rescan"]
    if args.fail_under is not None and floor < args.fail_under:
        print(
            f"FAIL: min compiled-over-rescan {floor:.2f}x below "
            f"--fail-under {args.fail_under}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
