"""Vectorized IR batch-kernel benchmark (the PR 9 acceptance bench).

Runs R replications of the fully-IR Fig-8 reference model
(:mod:`repro.san.refmodels`) through ``run_lanes`` — which hands a
fully-IR lane set to the vectorized kernel runner
(:mod:`repro.san.vector`), advancing all lanes through one
``(R, n_places)`` int64 matrix — against the same R replications run
serially on the compiled engine.  Interleaved best-of-``reps`` wall
clock, per-lane exact-``==`` comparison of rewards, completions and
final markings, and a machine-readable report (``BENCH_pr9.json``).

This is where the batch engine's original 5x aspiration is cashed in:
the real Fig-8 model's gates are opaque Python closures (the
scheduling function is irreducibly procedural), so its lanes run one
at a time on the serial compiled engine.  The
expression IR removes that wall for models that declare their gates —
every predicate, effect, and reward rate evaluates for all R lanes in
a handful of numpy operations instead of R Python interpreter passes.
The CI gate is ``--fail-under 3.0`` (headroom for noisy shared
runners); the report records the 5x headline target and which side of
it the run landed on.
"""

import argparse
import json
import sys
import time

from repro.des.random_streams import StreamFactory
from repro.san import build_simulator, run_lanes
from repro.san.refmodels import build_ir_reference_model, reference_rewards

MODEL_PARAMS = {
    "topology": (2, 2, 2, 2),
    "num_pcpus": 2,
    "timeslice": 3,
    "job_size": 5,
    "arrival_mean": 6.0,
    "mtbf": 400.0,
    "mttr": 25.0,
}
SPEEDUP_TARGET = 5.0
ROOT_SEED = 0


def _build(engine, replication, warmup):
    model = build_ir_reference_model(**MODEL_PARAMS)
    rewards = reference_rewards(
        model, num_pcpus=MODEL_PARAMS["num_pcpus"], warmup=warmup
    )
    sim = build_simulator(
        model, StreamFactory(root_seed=ROOT_SEED, replication=replication),
        engine=engine,
    )
    for reward in rewards:
        sim.add_reward(reward)
    return sim, rewards, model


def _observe(sim, rewards, model):
    return {
        "completions": sim.completions,
        "metrics": {r.name: r.result() for r in rewards},
        "marking": {n: p.tokens for n, p in model.places().items()},
    }


def _sample_serial(replications, sim_time, warmup):
    """Time the serial runs only; construction is identical on both
    sides (every sample rebuilds fresh simulators either way) and is
    reported separately as ``build_seconds``."""
    built = time.perf_counter()
    bound = [_build("compiled", r, warmup) for r in replications]
    start = time.perf_counter()
    for sim, _rewards, _model in bound:
        sim.run(sim_time)
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "build_seconds": start - built,
        "runs": [_observe(*item) for item in bound],
    }


def _sample_vector(replications, sim_time, warmup):
    built = time.perf_counter()
    bound = [_build("batch", r, warmup) for r in replications]
    lanes = [sim for sim, _rewards, _model in bound]
    start = time.perf_counter()
    stats = run_lanes(lanes, sim_time)
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "build_seconds": start - built,
        "runs": [_observe(*item) for item in bound],
        "stats": stats,
    }


def _measure(sim_time, replications, warmup, reps):
    """Interleaved best-of-``reps``: alternate A/B order per round."""
    indices = range(replications)
    samplers = [
        ("compiled", lambda: _sample_serial(indices, sim_time, warmup)),
        ("batch", lambda: _sample_vector(indices, sim_time, warmup)),
    ]
    best = {}
    for round_index in range(max(1, reps)):
        ordered = samplers if round_index % 2 == 0 else samplers[::-1]
        for name, sampler in ordered:
            sample = sampler()
            if name not in best or sample["wall_seconds"] < best[name]["wall_seconds"]:
                best[name] = sample
    lanes_identical = [
        fast == reference
        for fast, reference in zip(best["batch"]["runs"], best["compiled"]["runs"])
    ]
    compiled_wall = best["compiled"]["wall_seconds"]
    batch_wall = best["batch"]["wall_seconds"]
    return {
        "compiled_wall_seconds": compiled_wall,
        "batch_wall_seconds": batch_wall,
        "build_seconds": {
            "compiled": best["compiled"]["build_seconds"],
            "batch": best["batch"]["build_seconds"],
        },
        "batch_over_compiled": (
            compiled_wall / batch_wall if batch_wall > 0 else float("inf")
        ),
        "per_replication_ms": {
            "compiled": 1000.0 * compiled_wall / replications,
            "batch": 1000.0 * batch_wall / replications,
        },
        "vectorized": best["batch"]["stats"].get("vectorized", 0) == 1,
        "lanes": [{"bit_identical": flag} for flag in lanes_identical],
        "bit_identical": all(lanes_identical),
    }


def compare_ir_batch(sim_time=1000, replications=192, warmup=100, reps=3):
    """Vectorized batch vs serial compiled on the IR model; report dict."""
    result = _measure(sim_time, replications, warmup, reps)
    return {
        "benchmark": "ir-vectorized-batch-engine",
        "config": {
            "model": "san.refmodels.build_ir_reference_model",
            "model_params": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in MODEL_PARAMS.items()
            },
            "sim_time": sim_time,
            "replications": replications,
            "warmup": warmup,
            "reps": reps,
            "root_seed": ROOT_SEED,
        },
        "results": result,
        "summary": {
            "speedup_target": SPEEDUP_TARGET,
            "speedup": result["batch_over_compiled"],
            "target_met": result["batch_over_compiled"] >= SPEEDUP_TARGET,
            "vectorized": result["vectorized"],
            "all_bit_identical": result["bit_identical"],
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Vectorized IR batch kernels vs serial compiled runs"
    )
    parser.add_argument("--out", default="BENCH_pr9.json", help="report path")
    parser.add_argument("--sim-time", type=int, default=1000)
    parser.add_argument("--replications", type=int, default=192)
    parser.add_argument("--warmup", type=int, default=100)
    parser.add_argument("--reps", type=int, default=3, help="best-of-N wall clock")
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        help="exit 1 if batch-over-compiled falls below this; CI uses 3.0 "
        "(5x is the headline target, gated with headroom for runner noise)",
    )
    args = parser.parse_args(argv)

    report = compare_ir_batch(
        sim_time=args.sim_time,
        replications=args.replications,
        warmup=args.warmup,
        reps=args.reps,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    result = report["results"]
    summary = report["summary"]
    print(
        f"ir-batch: {result['batch_over_compiled']:.2f}x over serial compiled "
        f"({result['per_replication_ms']['batch']:.2f} vs "
        f"{result['per_replication_ms']['compiled']:.2f} ms/replication), "
        f"vectorized={result['vectorized']}, "
        f"bit_identical={result['bit_identical']}"
    )
    print(
        f"target: {summary['speedup']:.2f}x achieved vs "
        f"{summary['speedup_target']:.1f}x headline "
        f"(target_met={summary['target_met']}), wrote {args.out}"
    )

    if not summary["vectorized"]:
        print("FAIL: the IR model ran as serial lanes", file=sys.stderr)
        return 1
    if not summary["all_bit_identical"]:
        print("FAIL: batch diverged from serial compiled", file=sys.stderr)
        return 1
    if args.fail_under is not None and summary["speedup"] < args.fail_under:
        print(
            f"FAIL: batch-over-compiled {summary['speedup']:.2f}x below "
            f"--fail-under {args.fail_under}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
