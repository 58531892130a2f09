"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-schedulers`` — registered algorithm names.
* ``run --spec spec.json`` — run one experiment from a JSON system
  spec (the dict form of :class:`~repro.core.config.SystemSpec`),
  printing every metric with its confidence interval; ``--csv`` emits
  machine-readable output instead.  Resilience flags: ``--jobs N``
  (worker processes for the floor replications), ``--timeout S``
  (per-attempt wall clock), ``--retries K`` (reseeded retries),
  ``--cache-dir D`` (store finished replications; rerun with the same
  directory to resume an interrupted run).
* ``tables`` — print the paper's Tables 1 and 2.
* ``figures [--figure 8|9|10|all] [--full]`` — regenerate the paper's
  figures (quick fidelity by default).
* ``serve`` — run the long-lived simulation job server (JSON over
  HTTP; see :mod:`repro.service`); ``--cache-dir`` makes repeated
  queries warm-hit the persistent result cache.

Example spec file::

    {
      "vms": [{"vcpus": 2}, {"vcpus": 1}, {"vcpus": 1}],
      "pcpus": 2,
      "scheduler": "rcs",
      "sim_time": 2000,
      "warmup": 200
    }
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Any, Dict, List, Optional

from .core.config import SystemSpec
from .core.experiment import run_experiment
from .core.registry import list_schedulers
from .core.results import render_table, results_to_csv
from .errors import ConfigurationError, ReproError
from .observability import SimProfiler, SimTracer, profiling, tracing
from .observability.trace import TRACE_FORMATS
from .resilience import ResilienceConfig, failure_summary
from .san.compiled import DEFAULT_ENGINE, ENGINES


def _cmd_list_schedulers(args: argparse.Namespace) -> int:
    for name in list_schedulers():
        print(name)
    return 0


#: Boolean-ish spellings we refuse to guess at: JSON specs spell booleans
#: ``true``/``false``, so the CLI accepts exactly those and nothing else.
_KV_AMBIGUOUS_BOOLS = frozenset({"yes", "no", "on", "off", "y", "n", "t", "f"})


def _coerce_kv_value(value: str, flag: str, key: str) -> Any:
    """Coerce one ``k=v`` value: bool, then int, then float, then str.

    ``true``/``false`` (any case) become booleans; integer literals
    become ints; anything ``float()`` accepts — including scientific
    notation like ``1e3`` — becomes a float.  Values that could be read
    more than one way (``yes``/``off``-style booleans, ``nan``, ``inf``,
    or an empty value) are rejected outright rather than passed through
    as surprise strings or non-finite numbers.
    """
    if not value:
        raise ConfigurationError(f"{flag}: {key}= has an empty value")
    lowered = value.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in _KV_AMBIGUOUS_BOOLS:
        raise ConfigurationError(
            f"{flag}: ambiguous value {key}={value!r}; spell booleans true/false"
        )
    try:
        return int(value)
    except ValueError:
        pass
    try:
        number = float(value)
    except ValueError:
        return value
    if math.isnan(number) or math.isinf(number):
        raise ConfigurationError(
            f"{flag}: non-finite value {key}={value!r} is not allowed"
        )
    return number


def _parse_kv(text: str, flag: str) -> Dict[str, Any]:
    """Parse ``k=v,k=v`` flag payloads, coercing values bool -> int -> float -> str.

    Used by ``--degradation`` and ``--maintenance``; the resulting dict
    feeds the same ``from_dict`` validators the JSON spec path uses, so
    unknown keys and bad values fail with the same messages.  Value
    coercion (see :func:`_coerce_kv_value`) is normalized: ``true`` and
    ``false`` parse as booleans, ``1e3`` parses as a float, and
    ambiguous spellings fail with a one-line :class:`ConfigurationError`.
    """
    out: Dict[str, Any] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep or not key.strip():
            raise ConfigurationError(
                f"{flag} expects comma-separated k=v pairs, got {chunk!r}"
            )
        key = key.strip()
        out[key] = _coerce_kv_value(value.strip(), flag, key)
    return out


def _spec_overrides_from_args(
    spec: SystemSpec, args: argparse.Namespace
) -> SystemSpec:
    """Apply ``--degradation`` / ``--maintenance`` / ``--hv-overhead``."""
    overrides: Dict[str, Any] = {}
    if args.degradation is not None:
        overrides["degradation"] = _parse_kv(args.degradation, "--degradation")
    if args.maintenance is not None:
        overrides["maintenance"] = _parse_kv(args.maintenance, "--maintenance")
    if args.hv_overhead is not None:
        overrides["hv_overhead"] = {"cost": args.hv_overhead}
    return spec.with_overrides(**overrides) if overrides else spec


def _cache_dir_from_args(args: argparse.Namespace) -> Optional[str]:
    """``--cache-dir`` unless ``--no-cache`` vetoes it."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _resilience_from_args(args: argparse.Namespace) -> ResilienceConfig:
    """Build the executor config from CLI flags."""
    config = ResilienceConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=_cache_dir_from_args(args),
    )
    config.validate()
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    spec = _spec_overrides_from_args(SystemSpec.from_dict(payload), args)
    if args.trace is not None and (args.jobs != 1 or args.timeout is not None):
        raise ConfigurationError(
            "--trace records in-process and needs serial execution: "
            "it is incompatible with --jobs > 1 and --timeout"
        )
    tracer = SimTracer() if args.trace is not None else None
    profiler = SimProfiler() if args.profile else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing(tracer))
        if profiler is not None:
            stack.enter_context(profiling(profiler))
        result = run_experiment(
            spec,
            min_replications=args.min_replications,
            max_replications=args.max_replications,
            target_half_width=args.target_half_width,
            root_seed=args.seed,
            extra_probes=args.probes,
            resilience=_resilience_from_args(args),
            engine=args.engine,
        )
    if tracer is not None:
        tracer.write(args.trace, format=args.trace_format)
        print(
            f"trace: {len(tracer.records)} records -> {args.trace} "
            f"({args.trace_format})",
            file=sys.stderr,
        )
    if profiler is not None:
        print(profiler.table(), file=sys.stderr)
        counters = profiler.counters
        fired = counters.get("engine.ticks_fired", 0)
        skipped = counters.get("engine.ticks_fast_forwarded", 0)
        print(
            f"engine: {args.engine} "
            f"(clock ticks fired {fired}, fast-forwarded {skipped}; "
            f"tick consumers applied directly "
            f"{counters.get('engine.consumers_applied', 0)}, quiet "
            f"Scheduling_Func ticks {counters.get('vmm.quiet_ticks_skipped', 0)})",
            file=sys.stderr,
        )
        refused = sorted(
            (name[len("engine.refused."):], count)
            for name, count in counters.items()
            if name.startswith("engine.refused.")
        )
        if refused:
            reasons = ", ".join(f"{name} {count}" for name, count in refused)
            print(f"executed ticks by refusal: {reasons}", file=sys.stderr)
    if args.csv:
        print(results_to_csv([result], metrics=result.metrics()), end="")
        return 0
    print(f"{result.label}  ({result.replications} replications)")
    rows = [
        [name, f"{result.mean(name):.4f}", f"{result.half_width(name):.4f}"]
        for name in result.metrics()
    ]
    print(render_table(["metric", "mean", "ci_half_width"], rows))
    if result.failures:
        print(f"absorbed faults: {failure_summary(result.failures)}", file=sys.stderr)
    if result.degraded:
        print(
            "warning: results are degraded (quarantine fallback was used)",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service import ServiceConfig, SimulationServer

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        cache_dir=_cache_dir_from_args(args),
        timeout=args.timeout,
    )
    config.validate()

    async def _serve() -> None:
        server = SimulationServer(config)
        await server.start()
        print(
            f"repro service listening on http://{config.host}:{server.port} "
            f"(pool jobs={config.jobs}, queue limit={config.queue_limit})",
            file=sys.stderr,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loops: ctrl-C raises KeyboardInterrupt instead
        try:
            await stop.wait()
        finally:
            print("repro service draining...", file=sys.stderr)
            await server.shutdown()
            print("repro service stopped", file=sys.stderr)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .paper import table1, table2

    print(table1())
    print()
    print(table2())
    return 0


#: The ``figures`` protocols: simulated ticks and (min, max)
#: replications per point, by fidelity.
FIGURE_PROTOCOLS = {
    "quick": {"sim_time": 1000, "replications": (3, 6)},
    "full": {"sim_time": 2000, "replications": (5, 20)},
}


def _cmd_figures(args: argparse.Namespace) -> int:
    from .paper import run_figure8, run_figure9, run_figure10

    knobs: Dict[str, Any] = dict(FIGURE_PROTOCOLS["full" if args.full else "quick"])
    knobs["resilience"] = ResilienceConfig(
        jobs=args.jobs, cache_dir=_cache_dir_from_args(args)
    )
    runners = {"8": run_figure8, "9": run_figure9, "10": run_figure10}
    wanted = list(runners) if args.figure == "all" else [args.figure]
    for key in wanted:
        figure = runners[key](**knobs)
        print(figure.table)
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulation framework for evaluating VCPU scheduling algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-schedulers", help="print registered algorithms").set_defaults(
        handler=_cmd_list_schedulers
    )

    run_parser = sub.add_parser("run", help="run one experiment from a JSON spec")
    run_parser.add_argument("--spec", required=True, help="path to a JSON system spec")
    run_parser.add_argument("--seed", type=int, default=0, help="root random seed")
    run_parser.add_argument(
        "--min-replications", type=int, default=5, dest="min_replications"
    )
    run_parser.add_argument(
        "--max-replications", type=int, default=30, dest="max_replications"
    )
    run_parser.add_argument(
        "--target-half-width",
        type=float,
        default=0.1,
        dest="target_half_width",
        help="stop when every watched metric's 95%% CI half-width is below this",
    )
    run_parser.add_argument(
        "--probes",
        action="store_true",
        help="also collect blocked-fraction and throughput probes",
    )
    run_parser.add_argument("--csv", action="store_true", help="emit CSV")
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the floor replications; adaptive "
        "replications past the floor run one at a time "
        "(default: 1, in-process)",
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock seconds allowed per replication attempt",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry budget per replication (failed attempts are reseeded)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="persistent result-cache directory: every finished replication "
        "is stored as it resolves, so a warm rerun executes nothing and "
        "rerunning an interrupted run with the same directory resumes it "
        "(invalidated on any code change)",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="ignore --cache-dir (read nothing, write nothing)",
    )
    run_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=DEFAULT_ENGINE,
        help="enablement engine: compiled (cached flat-array enablement "
        "with clock-tick fast-forward, the default) or rescan (full "
        "re-evaluation, the reference); results are bit-identical",
    )
    run_parser.add_argument(
        "--degradation",
        default=None,
        metavar="K=V,...",
        help="enable the multi-state PCPU health model, overriding the "
        "spec: comma-separated DegradationModel fields, e.g. "
        "'p=0.1,h_max=4,mtbe=50'",
    )
    run_parser.add_argument(
        "--maintenance",
        default=None,
        metavar="K=V,...",
        help="enable maintenance (requires degradation): comma-separated "
        "MaintenancePolicy fields, e.g. "
        "'policy=condition_based,crews=1,mttr=20,threshold=2'",
    )
    run_parser.add_argument(
        "--hv-overhead",
        type=int,
        default=None,
        dest="hv_overhead",
        metavar="TICKS",
        help="charge this many ticks of hypervisor overhead on every "
        "world switch (schedule-in)",
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a structured simulation trace to FILE "
        "(serial runs only: incompatible with --jobs > 1 / --timeout)",
    )
    run_parser.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        dest="trace_format",
        help="trace output format: jsonl (one record per line) or "
        "chrome (trace_event JSON, viewable in Perfetto)",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-subsystem wall-clock timings to stderr",
    )
    run_parser.set_defaults(handler=_cmd_run)

    sub.add_parser("tables", help="print the paper's Tables 1 and 2").set_defaults(
        handler=_cmd_tables
    )

    figures_parser = sub.add_parser("figures", help="regenerate the paper's figures")
    figures_parser.add_argument(
        "--figure", choices=["8", "9", "10", "all"], default="all"
    )
    figures_parser.add_argument(
        "--full", action="store_true", help="bench-grade fidelity (slower)"
    )
    figures_parser.add_argument(
        "--sweep-jobs",
        type=int,
        default=1,
        dest="jobs",
        help="worker processes shared by every point of a figure "
        "(default 1 = in-process)",
    )
    figures_parser.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="persistent result cache for the sweep; reruns skip "
        "finished replications",
    )
    figures_parser.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="ignore --cache-dir (read nothing, write nothing)",
    )
    figures_parser.set_defaults(handler=_cmd_figures)

    serve_parser = sub.add_parser(
        "serve", help="run the long-lived simulation job server"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (default: 8642; 0 = let the OS pick)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="sweep-pool worker processes shared by every job "
        "(default: 1, in-process)",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        dest="queue_limit",
        help="max queued-or-running jobs before submissions get 503",
    )
    serve_parser.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        dest="quota_rate",
        help="per-tenant admitted jobs per second (default: unlimited)",
    )
    serve_parser.add_argument(
        "--quota-burst",
        type=float,
        default=10.0,
        dest="quota_burst",
        help="per-tenant token-bucket capacity (default: 10)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="persistent result cache shared by every job: identical "
        "queries warm-hit and execute zero replications",
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="ignore --cache-dir (read nothing, write nothing)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock seconds per replication attempt (forces "
        "process workers)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)
    return parser


def _one_line(message: str) -> str:
    """Collapse a (possibly multi-line) exception message to one line."""
    return " ".join(str(message).split())


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Framework errors exit non-zero with a single structured line on
    stderr (``error: <ErrorType>: <message>``) — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON spec: {_one_line(str(exc))}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {_one_line(str(exc))}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
