"""The repository's benchmark: one command, every workload, named metrics.

Single run (what an automated comparison calls)::

    python3 perfbench/run.py --workload fig8_paper --seed 1 --seconds 10 --trace 0

prints human-readable lines, the environment, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured on the program with nothing but a
completion counter around ``simulate_once``; with
``--trace 1`` they are the per-layer metrics, measured on units run
with the span wrappers of ``spans.py`` installed.

Repeat mode runs single runs as subprocesses, one seed each, and prints
each metric's median and quartiles across them::

    python3 perfbench/run.py --workload all --repeat 5 --seed 1

A run exits 1 when any output differs from its reference or a pool
worker outlives its pool, and 2 when it cannot find the program.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402  (neither module imports the program at import time)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFCACHE = os.path.join(HERE, ".refcache")
WORKROOT = os.path.join(HERE, ".work")

#: Set-up samples per run: this process's own plus fresh-interpreter probes.
SETUP_SAMPLES = 3
#: Iterations of the fixed pure-Python loop that gauges the host's speed.
HOST_LOOP = 200_000


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _vm_hwm_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _cpu_seconds(pids) -> float:
    """CPU seconds used so far by this process and the given children."""
    total = time.process_time()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return total


def environment():
    """Where the numbers were measured."""
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    for module in ("numpy", "scipy"):
        try:
            env[module] = importlib.import_module(module).__version__
        except ImportError:
            env[module] = None
    env["git_commit"] = None  # unless the checkout is itself a git repository
    try:
        top, commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            env["git_commit"] = commit
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    from repro.resilience.result_cache import code_fingerprint

    env["code_fingerprint"] = code_fingerprint()[:16]
    return env


def host_loop_ms(pieces=5):
    """Times of a fixed pure-Python loop, in ms: the host's speed.

    The program does not run it; it is timed between units so that a
    set of runs that reads slow on a slow host can be told apart from a
    slower program.
    """
    times = []
    for _ in range(pieces):
        start = time.perf_counter()
        total = 0
        for i in range(HOST_LOOP):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return times


# -- one run -------------------------------------------------------------------


def _setup(args, workdir):
    """Import and set the workload up; returns (workload, timings)."""
    cls = workloads.WORKLOADS[args.workload]
    timings = {}
    start = time.perf_counter()
    for module in cls.modules:
        importlib.import_module(module)
    timings["import_s"] = time.perf_counter() - start
    workload = cls(args.seed, args.seconds, workdir)
    workload.open(timings)
    return workload, timings


def _probe_setup(args):
    """Set-up samples from fresh interpreters (this script, probe mode)."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if completed.returncode != 0:
            _fail(f"set-up probe failed:\n{completed.stderr}", 1)
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return samples


def _run_units(workload, budget, min_units, host, recorder=None):
    """Run units until ``budget`` seconds pass; keep their spans if traced.

    Before each unit the host loop is timed (into ``host``) and garbage
    is collected, so no unit pays for a collection its predecessor
    left due: on the lanes workload that alone moved a unit by 60%.
    """
    units = []
    traced = []
    start = time.perf_counter()
    while True:
        workload.prepare()
        host += host_loop_ms()
        gc.collect()
        pids = workload.children()
        cpu = _cpu_seconds(pids)
        if recorder is not None:
            recorder.clear()
            with recorder.span("bench.campaign") as root:
                unit = workload.unit()
            unit_spans = recorder.collect()
            spans.link(unit_spans)
            traced.append((unit, unit_spans, root))
        else:
            unit = workload.unit()
        unit.cpu_s = _cpu_seconds(pids) - cpu
        units.append(unit)
        elapsed = time.perf_counter() - start
        if len(units) >= min_units and elapsed + 0.5 * unit.wall >= budget:
            break
    return units, traced


def _layer_metrics(unit, unit_spans, root):
    """Per-layer metrics of one traced unit."""
    by_name = {}
    for record in unit_spans:
        by_name.setdefault(record.name, []).append(record)

    def total(name, pick=None):
        return sum(
            (pick(r) if pick else r.duration) for r in by_name.get(name, [])
        )

    def profiled(key):
        return total("san.run", lambda r: r.attrs["profile_seconds"].get(key, 0.0))

    metrics = {}
    metrics["san.run_s"] = total("san.run")
    for scheduler in ("rrs", "scs", "rcs"):
        metrics[f"san.run_s.{scheduler}"] = sum(
            r.duration for r in by_name.get("san.run", [])
            if r.attrs.get("scheduler") == scheduler
        )
    metrics["san.settle_s"] = profiled("engine.settle")
    metrics["san.reschedule_s"] = profiled("engine.reschedule")
    metrics["san.rewards_s"] = profiled("engine.rewards")
    runs = by_name.get("framework.run", [])
    metrics["san.gate_evaluations"] = sum(r.attrs["gate_evaluations"] for r in runs)
    metrics["san.completions"] = sum(r.attrs["completions"] for r in runs)
    fired = sum(r.attrs["ticks_fired"] for r in runs)
    skipped = sum(r.attrs["ticks_fast_forwarded"] for r in runs)
    metrics["san.ticks_fast_forwarded_ratio"] = skipped / (fired + skipped) if fired + skipped else 0.0
    metrics["vmm.scheduling_func_s"] = profiled("vmm.scheduling_func")
    metrics["vmm.scheduling_func_calls"] = total(
        "san.run", lambda r: r.attrs["profile_counts"].get("vmm.scheduling_func", 0)
    )
    metrics["schedulers.schedule_s"] = profiled("vmm.algorithm")
    builds = by_name.get("framework.build", [])
    reuses = by_name.get("framework.reuse", [])
    metrics["framework.build_s"] = total("framework.build")
    metrics["framework.reuse_ratio"] = (
        len(reuses) / (len(builds) + len(reuses)) if builds or reuses else 0.0
    )
    sweeps = by_name.get("sweep.run", [])
    replications = by_name.get("framework.replication", [])
    metrics["sweep.dispatches"] = sum(r.attrs["dispatches"] for r in sweeps)
    metrics["sweep.executed"] = len(replications)
    children = {}
    for record in unit_spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    dispatches = by_name.get("sweep.dispatch", [])
    metrics["sweep.roundtrip_overhead_s"] = sum(
        d.duration - sum(c.duration for c in children.get(d.sid, [])) for d in dispatches
    )
    capacity = sum(r.duration * r.attrs["jobs"] for r in sweeps)
    worker_busy = sum(
        c.duration for d in dispatches for c in children.get(d.sid, [])
    )
    metrics["sweep.worker_busy_ratio"] = worker_busy / capacity if capacity else 0.0
    metrics["stats.replications_total"] = sum(
        r.attrs["replications"] for r in sweeps + by_name.get("sweep.point", [])
    )
    metrics["stats.monitor_s"] = total("stats.push")
    loads = by_name.get("cache.load", [])
    stores = by_name.get("cache.store", [])
    metrics["cache.lookups"] = len(loads)
    metrics["cache.hit_ratio"] = (
        sum(1 for r in loads if r.attrs["hit"]) / len(loads) if loads else 0.0
    )
    metrics["cache.writes"] = len(stores)
    metrics["cache.load_ms_p50"] = _median([r.duration * 1000 for r in loads])
    metrics["cache.store_ms_p50"] = _median([r.duration * 1000 for r in stores])
    requests = by_name.get("service.request", [])
    submits = {r.job: r for r in requests if r.attrs["method"] == "POST"}
    metrics["service.submit_ms_p50"] = _median([r.duration * 1000 for r in submits.values()])
    job_sweeps = [r for r in sweeps if r.job in submits]
    # The job thread may pick a job up before its 202 reaches the client.
    waits = [max(0.0, r.start - submits[r.job].end) * 1000 for r in job_sweeps]
    metrics["service.queue_wait_ms_p50"] = _median(waits)
    metrics["service.queue_wait_ms_p90"] = (
        workloads.percentile(waits, 0.90) if waits else 0.0
    )
    metrics["service.exec_ms_p50"] = _median([r.duration * 1000 for r in job_sweeps])
    metrics["service.polls_per_job"] = unit.counters.get("polls_per_job", 0.0)
    metrics["service.rejected"] = unit.counters.get("rejected", 0)
    metrics["loadgen.lag_ms_max"] = unit.counters.get("lag_ms_max", 0.0)
    metrics["vector.run_s"] = total("vector.run")
    metrics["trace.span_coverage"] = spans.coverage(unit_spans, root)
    for layer, seconds in spans.self_times(unit_spans).items():
        metrics[f"self_s.{layer}"] = seconds
    return metrics


def single_run(args, contract):
    workdir = os.path.join(WORKROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _single_run(args, contract, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _single_run(args, contract, workdir):
    workload, timings = _setup(args, workdir)
    timings["setup_s"] = time.perf_counter() - _STARTED
    if args.setup_probe:
        workload.close()
        print(json.dumps(timings))
        return 0
    samples = [timings] + _probe_setup(args)
    print(f"workload: {workload.name} (seed {args.seed}) — why: {workload.why}")

    budget = args.seconds / 2 if args.trace else args.seconds
    min_units = 1 if args.trace else workload.min_units
    host = []
    units, _ = _run_units(workload, budget, min_units, host)
    peak_rss = _vm_hwm_mb(os.getpid()) + sum(_vm_hwm_mb(p) for p in workload.children())
    workload.close()
    leaked = [workload.leaked]

    traced = []
    if args.trace:
        spool = os.path.join(workdir, "spool")
        os.makedirs(spool, exist_ok=True)
        recorder = spans.Recorder(spool)
        spans.instrument(recorder)
        try:
            world = type(workload)(args.seed, args.seconds, workdir)
            world.open({})
            recorder.collect()
            traced_units, traced = _run_units(world, budget, 1, host, recorder)
            world.close()
            leaked.append(world.leaked)
        finally:
            spans.uninstrument()
        units += traced_units

    reference = workloads.reference_cached(workload, REFCACHE)
    errors = []
    for unit in units:
        errors += workload.check(unit, json.loads(json.dumps(unit.outputs)), reference)
    if any(leaked):
        errors.append(f"{sum(leaked)} pool worker process(es) outlived the pool")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    untraced = units[: len(units) - len(traced)]
    # Job latencies pool across units: more samples behind each percentile.
    job_ms = [ms for u in untraced for ms in u.job_ms]
    latency = {name: workloads.percentile(job_ms, q) if job_ms else 0.0
               for name, q in (("p50", 0.50), ("p90", 0.90))}
    e2e = {
        "setup_s": _median([s["setup_s"] for s in samples]),
        "campaign_s": _median([u.wall for u in untraced]),
        "events_per_s": _median([u.completions / u.wall for u in untraced]),
        "cpu_s": _median([u.cpu_s for u in untraced]),
        "peak_rss_mb": peak_rss,
    }
    print(f"units: {len(untraced)} untraced, {len(traced)} traced; "
          f"job latency samples: {len(job_ms)}")
    print("unit seconds: " + " ".join(f"{u.wall:.3f}" for u in units))
    for name, value in e2e.items():
        print(f"  {name:<36} {value:14.6f}")
    if job_ms:
        # Reported, not bounded: latency exists on service_mixed only, and
        # an end-to-end metric is reported, never 0, on every workload.
        for name in ("p50", "p90"):
            print(f"  {'job_' + name + '_ms':<36} {latency[name]:14.6f}")
    print(f"host_loop_ms: {_median(host):.6f}")

    if args.trace:
        per_unit = [_layer_metrics(u, s, root) for u, s, root in traced]
        layer = {name: _median([m[name] for m in per_unit]) for name in per_unit[0]}
        for key in ("import_s", "pool_spawn_s", "server_start_s", "warmup_s"):
            layer[f"setup.{key}"] = _median([s.get(key, 0.0) for s in samples])
        layer["vector.build_s"] = _median([s.get("lane_build_s", 0.0) for s in samples])
        layer["host.loop_ms"] = _median(host)
        layer["trace.overhead_ratio"] = (
            _median([u.wall for u in traced_units]) / e2e["campaign_s"]
        )
        layer["error_rate"] = failed / attempted if attempted else 0.0
        layer["job_p50_ms"] = latency["p50"]
        layer["job_p90_ms"] = latency["p90"]
        for name in sorted(layer):
            print(f"  {name:<36} {layer[name]:14.6f}")
        chosen = contract["per_layer"]
        values = layer
    else:
        chosen = contract["end_to_end"]
        values = e2e
    print(f"error_rate: {failed}/{attempted}")
    for error in errors[:20]:
        print(f"CORRECTNESS: {error}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    missing = [m["name"] for m in chosen if m["name"] not in values]
    if missing:
        _fail(f"metrics not measured: {missing}", 1)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in chosen},
    }))
    return 0 if not errors else 1


# -- repeat mode ---------------------------------------------------------------


def repeat(args, contract):
    """Single runs as subprocesses, one seed each; medians and quartiles."""
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.repeat > 1 or args.workload != "all" else [0, 1]
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    status = 0
    for name in names:
        print(f"== {name}: {workloads.WORKLOADS[name].why}")
        for trace in traces:
            rows, units = {}, {}
            for offset in range(args.repeat):
                seed = args.seed + offset
                completed = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", name,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    capture_output=True, text=True, timeout=900, cwd=ROOT,
                )
                lines = completed.stdout.strip().splitlines()
                if completed.returncode != 0 or not lines:
                    print(completed.stdout + completed.stderr)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                for metric, entry in result["metrics"].items():
                    rows.setdefault(metric, []).append(entry["value"])
                    units[metric] = entry["unit"]
                for line in lines:
                    if line.startswith("host_loop_ms:") and trace == 0:
                        rows.setdefault("(host_loop_ms)", []).append(float(line.split()[1]))
                        units["(host_loop_ms)"] = "ms"
                print(f"   seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
            for metric, values in rows.items():
                median = statistics.median(values)
                if len(values) >= 2:
                    q1, _q2, q3 = statistics.quantiles(values, n=4)
                else:
                    q1 = q3 = median
                spread = (q3 - q1) / median if median else 0.0
                bound = bounds.get(metric) if trace == 0 else None
                note = f" bound {bound}" if bound is not None else ""
                print(f"   {metric:<36} {units[metric]:<6} median {median:12.6f}  "
                      f"q1 {q1:12.6f}  q3 {q3:12.6f}  spread {spread:7.4f}{note}")
                print("      values: " + " ".join(f"{v:.6g}" for v in values))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' (repeat mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, one seed each (repeat mode)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"the program's sources are missing ({SRC})")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    contract = _load_contract()
    if args.workload == "all" or args.repeat > 1:
        return repeat(args, contract)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    return single_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
