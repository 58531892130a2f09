"""The benchmark's workloads: inputs from a seed, set-up, one timed unit,
and the reference each unit's outputs must equal.

Each workload runs a fixed *unit* of work several times in a run.  A unit
returns a :class:`Unit`; the runner times it, keeps its outputs and
compares every one of them, after the timed window, with a reference
made on a different path of the program (the serial driver, the
``rescan`` engine or serial compiled runs).  References are cached per
seed and per code fingerprint under ``perfbench/.refcache`` because they
cost as much as a unit or more.

The program only sees the generated inputs; the seed never reaches it
except as the experiments' own ``root_seed``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import json
import math
import multiprocessing
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

import spans

PAPER_PROTOCOL = {"min_replications": 5, "max_replications": 30}
#: Processes that make a reference.  References are made outside the
#: timed window, but a run with a new seed waits for one.
REFERENCE_PROCESSES = 2


@dataclass
class Unit:
    """What one timed unit of work did."""

    wall: float  # campaign seconds
    attempted: int  # operations (replications, jobs or lanes)
    failed: int  # failed or refused operations
    outputs: Any  # compared exactly with the reference
    completions: int  # SAN activity completions the unit executed
    job_ms: List[float] = field(default_factory=list)  # service job latencies
    counters: Dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0  # CPU seconds of the process and its pool workers


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class CompletionCounter:
    """Sums ``RunResult.completions`` of every replication run while open.

    It wraps ``simulate_once``, which the serial driver and the pool
    workers both call; the sum lives in shared memory, so workers forked
    while the counter is open add to it too.  The wrapper does one
    addition per replication, so it is left on in untimed and timed
    units alike.
    """

    def __init__(self) -> None:
        import repro.core.framework as framework

        self._framework = framework
        self._original = original = framework.simulate_once
        self._total = total = multiprocessing.Value("q", 0)

        @functools.wraps(original)
        def simulate_once(*args, **kwargs):
            run = original(*args, **kwargs)
            with total.get_lock():
                total.value += run.completions
            return run

        framework.simulate_once = simulate_once

    def read(self) -> int:
        with self._total.get_lock():
            return self._total.value

    def close(self) -> None:
        self._framework.simulate_once = self._original

    def __enter__(self) -> "CompletionCounter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _counted(function, *args):
    """``(function(*args), completions it executed)``."""
    with CompletionCounter() as counter:
        output = function(*args)
        return output, counter.read()


def _reference_map(function, items) -> List[Any]:
    """``[function(item) for item in items]`` on forked processes."""
    pool = multiprocessing.get_context("fork").Pool(REFERENCE_PROCESSES)
    try:
        return pool.map(function, items, chunksize=1)
    finally:
        pool.close()
        pool.join()


def _experiment(protocol, spec_and_seed):
    """Serial ``run_experiment`` of one spec: its result and completions."""
    from repro.core.experiment import run_experiment

    spec, root_seed = spec_and_seed
    return _counted(functools.partial(run_experiment, spec, root_seed=root_seed,
                                      **protocol))


def _estimates(result) -> Dict[str, List[float]]:
    return {name: list(est.values) for name, est in sorted(result.estimates.items())}


def _live_children() -> int:
    return len(multiprocessing.active_children())


class Workload:
    name = ""
    why = ""
    #: fewest units a run measures, however long each takes
    min_units = 3
    #: modules imported during set-up (their import time is setup.import_s)
    modules: tuple = ("repro",)

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.leaked = 0

    def open(self, timings: Dict[str, float]) -> None:
        """Set the workload up with its completion counter in place."""
        self.counter = CompletionCounter()
        self.setup(timings)

    def close(self) -> None:
        """Tear down; ``self.leaked`` is the live children left."""
        self.teardown()
        self.counter.close()
        self.leaked = _live_children()

    def config(self) -> Dict[str, Any]:
        """Every input knob (part of the reference cache key)."""
        raise NotImplementedError

    def setup(self, timings: Dict[str, float]) -> None:
        """Make the workload ready; add named set-up times to ``timings``."""

    def prepare(self) -> None:
        """Untimed work the next unit needs, done before it starts."""

    def unit(self) -> Unit:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release workers and servers."""

    def children(self) -> List[int]:
        """Pids of worker processes (for CPU time and peak memory)."""
        return []

    def reference(self) -> Dict[str, Any]:
        """``{"outputs": ..., "completions": ...}`` made on another path."""
        raise NotImplementedError

    def check(self, unit: Unit, outputs: Any, reference: Dict[str, Any]) -> List[str]:
        """Mismatch descriptions (empty when exactly equal).

        Completions do not depend on the engine or the driver, so the
        unit must have executed exactly the reference's.
        """
        errors = []
        if outputs != reference["outputs"]:
            errors.append(f"{self.name}: outputs differ from the reference")
        if unit.completions != reference["completions"]:
            errors.append(f"{self.name}: {unit.completions} completions executed, "
                          f"the reference executed {reference['completions']}")
        return errors


# ---------------------------------------------------------------------------


class Fig8Paper(Workload):
    name = "fig8_paper"
    why = (
        "the paper's Figure-8 campaign on the default serial driver and engine: "
        "the headline user path, almost all engine and Scheduling_Func work"
    )
    modules = ("repro", "repro.paper")
    SIM_TIME = 300
    WARMUP = 30

    def config(self):
        return {"sim_time": self.SIM_TIME, "warmup": self.WARMUP, **PAPER_PROTOCOL}

    def _figure(self, **kwargs):
        from repro.paper import run_figure8

        return run_figure8(
            sim_time=self.SIM_TIME,
            warmup=self.WARMUP,
            replications=(PAPER_PROTOCOL["min_replications"],
                          PAPER_PROTOCOL["max_replications"]),
            root_seed=self.seed,
            **kwargs,
        )

    @staticmethod
    def _outputs(figure):
        return [
            [dict(r.parameters), _estimates(r), len(r.failures)] for r in figure.results
        ]

    def unit(self):
        before = self.counter.read()
        start = time.perf_counter()
        figure = self._figure()
        wall = time.perf_counter() - start
        return Unit(
            wall=wall,
            attempted=sum(r.replications for r in figure.results),
            failed=sum(len(r.failures) for r in figure.results),
            outputs=self._outputs(figure),
            completions=self.counter.read() - before,
        )

    def reference(self):
        from repro.resilience import ResilienceConfig

        figure, completions = _counted(functools.partial(
            self._figure,
            resilience=ResilienceConfig(jobs=1, retries=0, engine="rescan"),
        ))
        return {"outputs": self._outputs(figure), "completions": completions}


# ---------------------------------------------------------------------------


class Fig10Sweep(Workload):
    name = "fig10_sweep"
    why = (
        "the 36-point Figure-10 grid on a 2-worker interleaved sweep with short "
        "replications: sweep scheduling, worker IPC and model build vs reuse"
    )
    modules = ("repro", "repro.paper", "repro.core.sweeps")
    JOBS = 2
    SIM_TIME = 60
    WARMUP = 10
    PROTOCOL = {"min_replications": 8, "max_replications": 30, "target_half_width": 0.06}

    def config(self):
        return {"sim_time": self.SIM_TIME, "warmup": self.WARMUP, "jobs": self.JOBS,
                **self.PROTOCOL}

    def _points(self):
        from repro.core import SystemSpec, VMSpec
        from repro.core.config import WorkloadSpec
        from repro.core.experiment import resolve_sweep_points
        from repro.paper import (
            FIG9_VM_SETS, FIG10_SYNC_RATIOS, PAPER_PCPUS, PAPER_SCHEDULERS,
        )

        def spec(topology, scheduler, ratio):
            return SystemSpec(
                vms=[VMSpec(n, WorkloadSpec(sync_ratio=ratio)) for n in topology],
                pcpus=PAPER_PCPUS,
                scheduler=scheduler,
                sim_time=self.SIM_TIME,
                warmup=self.WARMUP,
            )

        first = next(iter(FIG9_VM_SETS.values()))
        base = spec(first, PAPER_SCHEDULERS[0], FIG10_SYNC_RATIOS[0])
        grid = [
            {"vm_set": label, "scheduler": scheduler, "sync_ratio": ratio}
            for ratio in FIG10_SYNC_RATIOS
            for label in FIG9_VM_SETS
            for scheduler in PAPER_SCHEDULERS
        ]

        def mutate(current, other):
            return current.with_overrides(
                vms=[VMSpec(n, WorkloadSpec(sync_ratio=other["sync_ratio"]))
                     for n in FIG9_VM_SETS[other["vm_set"]]]
            )

        return resolve_sweep_points(base, grid, mutate)

    def setup(self, timings):
        from repro.core.sweeps import SweepPool

        self.points = self._points()
        start = time.perf_counter()
        self.pool = SweepPool(jobs=self.JOBS)
        timings["pool_spawn_s"] = time.perf_counter() - start

    def children(self):
        return [p.pid for p in self.pool.live_children()]

    def unit(self):
        import repro.core.sweeps as sweeps

        before = self.counter.read()
        start = time.perf_counter()
        outcome = sweeps.run_interleaved_sweep(
            self.points, root_seed=self.seed, pool=self.pool, **self.PROTOCOL,
        )
        wall = time.perf_counter() - start
        results = outcome.results
        return Unit(
            wall=wall,
            attempted=outcome.stats.executed,
            failed=sum(len(r.failures) for r in results),
            outputs=[[r.parameters["scheduler"], _estimates(r)] for r in results],
            completions=self.counter.read() - before,
        )

    def teardown(self):
        self.pool.close()

    def reference(self):
        specs = [spec for _point, spec in self._points()]
        runs = _reference_map(functools.partial(_experiment, self.PROTOCOL),
                              [(spec, self.seed) for spec in specs])
        return {
            "outputs": [[spec.scheduler, _estimates(result)]
                        for spec, (result, _completions) in zip(specs, runs)],
            "completions": sum(completions for _result, completions in runs),
        }


# ---------------------------------------------------------------------------


class ServiceMixed(Workload):
    name = "service_mixed"
    why = (
        "open-loop seeded Poisson jobs to an in-process server, ~40% repeats "
        "(result-cache reads) beside new identities (execution and cache writes)"
    )
    modules = ("repro", "repro.service")
    min_units = 1
    JOBS = 2
    # Half of the capacity measured with this job shape and mix (14-16
    # jobs/s, closed loop with 4 and 8 clients; see README).
    RATE = 7.5  # jobs per second
    REPEAT_SHARE = 0.4
    REPEAT_MIN_AGE = 1.5  # seconds between an identity's first and next use
    SCHEDULERS = ("rrs", "scs", "rcs")
    # The job shape of benchmarks/bench_service.py (its SPEC and PROTOCOL),
    # with the scheduler mixed.
    SPEC = {"vms": [{"vcpus": 2}, {"vcpus": 1}], "pcpus": 2,
            "sim_time": 250, "warmup": 50}
    PROTOCOL = {"min_replications": 2, "max_replications": 3}
    POLL_INTERVAL = 0.01  # a 20 ms poll made hit latencies bimodal
    # Root seeds are seed * 1000 + k: k counts new identities (fewer than
    # WARM_SEED_OFFSET at any window up to 60 s) and warm-up jobs use k
    # from WARM_SEED_OFFSET up, so no seed's warm-up matches a timed job.
    WARM_SEED_OFFSET = 990

    def config(self):
        return {"rate": self.RATE, "repeat_share": self.REPEAT_SHARE,
                "spec": self.SPEC, "seconds": self.seconds, "jobs": self.JOBS,
                **self.PROTOCOL}

    def _spec(self, scheduler):
        return dict(self.SPEC, scheduler=scheduler)

    def schedule(self) -> List[Dict[str, Any]]:
        """The seeded open-loop schedule: due time and payload per job.

        Arrivals are a Poisson process conditioned on its count (sorted
        uniform times over the window), and the repeat count and the
        scheduler mix of new identities are exact, so seeds differ in
        arrival pattern and order, not in the number of jobs.
        """
        rng = random.Random(f"service_mixed:{self.seed}")
        count = max(1, round(self.RATE * self.seconds))
        dues = sorted(rng.uniform(0.0, count / self.RATE) for _ in range(count))
        late = [i for i, due in enumerate(dues) if due >= dues[0] + self.REPEAT_MIN_AGE]
        repeats = set(rng.sample(late, min(len(late), round(self.REPEAT_SHARE * count))))
        mix = [self.SCHEDULERS[i % len(self.SCHEDULERS)]
               for i in range(count - len(repeats))]
        rng.shuffle(mix)
        jobs = []
        identities: List[Dict[str, Any]] = []
        for index, due in enumerate(dues):
            if index in repeats:
                identity = rng.choice(
                    [i for i in identities if due - i["first_due"] >= self.REPEAT_MIN_AGE]
                )
            else:
                identity = {
                    "first_due": due,
                    "spec": self._spec(mix.pop()),
                    "root_seed": self.seed * 1000 + len(identities),
                }
                identities.append(identity)
            jobs.append({
                "due": due,
                "payload": {"spec": identity["spec"], "root_seed": identity["root_seed"],
                            "label": f"bench-{index}", **self.PROTOCOL},
            })
        return jobs

    def setup(self, timings):
        from repro.service import ServiceClient, ServiceConfig, SimulationServer

        self.cache_dir = os.path.join(self.workdir, f"cache-{os.getpid()}")
        self.jobs = self.schedule()
        self.loop = asyncio.new_event_loop()
        start = time.perf_counter()
        self.server = SimulationServer(
            ServiceConfig(jobs=self.JOBS, cache_dir=self.cache_dir)
        )
        self.loop.run_until_complete(self.server.start())
        timings["server_start_s"] = time.perf_counter() - start
        self.client = ServiceClient("127.0.0.1", self.server.port)
        # Warm every worker's model cache for every spec, with seeds no
        # timed job uses, so the timed window sees result-cache hits only
        # where the schedule repeats an identity.
        start = time.perf_counter()
        warm = [{"spec": self._spec(scheduler),
                 "root_seed": self.seed * 1000 + self.WARM_SEED_OFFSET + number,
                 "min_replications": 4, "max_replications": 4}
                for number, scheduler in enumerate(self.SCHEDULERS)]

        async def warm_up():
            for payload in warm:
                body = await self.client.submit_and_wait(payload)
                if body["status"] != "done":
                    raise RuntimeError(f"warm-up job failed: {body}")

        self.loop.run_until_complete(warm_up())
        timings["warmup_s"] = time.perf_counter() - start

    def children(self):
        return [p.pid for p in self.server.pool.live_children()]

    async def _open_loop(self):
        client = self.client
        connections = asyncio.Semaphore(os.cpu_count() or 1)
        records: List[Dict[str, Any]] = [{} for _ in self.jobs]
        recorder = spans.current()
        origin = time.perf_counter() + 0.05

        async def request(call, *args):
            async with connections:
                return await call(*args)

        async def one(index, job):
            record = records[index]
            due = origin + job["due"]
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            record["lag"] = time.perf_counter() - due
            context = (recorder.span("loadgen.job", job=job["payload"]["label"])
                       if recorder is not None else contextlib.nullcontext())
            with context:
                status, body = await request(client.submit, job["payload"])
                record["status"] = status
                if status != 202:
                    record["done"] = time.perf_counter()
                    return
                polls = 0
                while True:
                    polls += 1
                    body = await request(client.job, body["job"])
                    if body.get("status") in ("done", "failed", "cancelled"):
                        break
                    await asyncio.sleep(self.POLL_INTERVAL)
            record["done"] = time.perf_counter()
            record["latency"] = record["done"] - due
            record["polls"] = polls
            record["body"] = body

        await asyncio.gather(*(one(i, job) for i, job in enumerate(self.jobs)))
        return origin, records

    def unit(self):
        before = self.counter.read()
        origin, records = self.loop.run_until_complete(self._open_loop())
        completions = self.counter.read() - before
        # The first unit reads the result cache the way the schedule says;
        # a later unit would hit on every job, so each unit starts empty.
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        wall = max(r["done"] for r in records) - origin
        outputs = []
        job_ok = []
        for job, record in zip(self.jobs, records):
            body = record.get("body") or {}
            job_ok.append(record.get("status") == 202 and body.get("status") == "done")
            outputs.append([job["payload"]["root_seed"], body.get("metrics"),
                            body.get("executed", 0)])
        return Unit(
            wall=wall,
            attempted=len(records),
            failed=job_ok.count(False),
            outputs=outputs,
            completions=completions,
            # A refused or failed job misses every latency limit: it counts
            # as taking the whole unit.
            job_ms=[(r["latency"] if ok else wall) * 1000.0
                    for r, ok in zip(records, job_ok)],
            counters={
                "rejected": sum(1 for r in records if r.get("status") != 202),
                "lag_ms_max": max(r["lag"] for r in records) * 1000.0,
                "polls_per_job": (sum(r.get("polls", 0) for r in records)
                                  / len(records)),
            },
        )

    def teardown(self):
        self.loop.run_until_complete(self.server.shutdown())
        self.loop.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def reference(self):
        from repro.core import SystemSpec
        from repro.service.schemas import SimulationOutput

        payloads = {job["payload"]["root_seed"]: job["payload"] for job in self.jobs}
        runs = _reference_map(
            functools.partial(_experiment, self.PROTOCOL),
            [(SystemSpec.from_dict(p["spec"]), seed) for seed, p in payloads.items()],
        )
        outputs = {}
        for seed, (result, _completions) in zip(payloads, runs):
            flat = SimulationOutput.from_result("reference", result, 0, 0, 0.0)
            outputs[str(seed)] = json.loads(json.dumps(flat.metrics))
        return {"outputs": outputs}

    def check(self, unit, outputs, reference):
        # Which jobs execute and which read the cache depends on timing
        # (a repeat that arrives while its identity still runs executes
        # again), so completions are not compared here.
        errors = []
        for index, (root_seed, metrics, _executed) in enumerate(outputs):
            if metrics != reference["outputs"][str(root_seed)]:
                errors.append(f"{self.name}: job {index} differs from serial run_experiment")
        return errors


# ---------------------------------------------------------------------------


class IrLanes(Workload):
    name = "ir_lanes"
    why = (
        "the fully-IR reference model at 192 lanes through run_lanes: the only "
        "path into repro.san.vector and repro.san.exprs"
    )
    modules = ("repro", "repro.san.refmodels")
    LANES = 192
    SIM_TIME = 1000
    WARMUP = 100
    # The model of benchmarks/bench_ir_batch.py.
    MODEL = {"topology": (2, 2, 2, 2), "num_pcpus": 2, "timeslice": 3, "job_size": 5,
             "arrival_mean": 6.0, "mtbf": 400.0, "mttr": 25.0}

    def config(self):
        return {"lanes": self.LANES, "sim_time": self.SIM_TIME, "warmup": self.WARMUP,
                "model": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.MODEL.items()}}

    def _lane(self, replication, engine):
        from repro.des.random_streams import StreamFactory
        from repro.san import build_simulator
        from repro.san.refmodels import build_ir_reference_model, reference_rewards

        model = build_ir_reference_model(**self.MODEL)
        rewards = reference_rewards(model, num_pcpus=self.MODEL["num_pcpus"],
                                    warmup=self.WARMUP)
        sim = build_simulator(
            model, StreamFactory(root_seed=self.seed, replication=replication),
            engine=engine,
        )
        for reward in rewards:
            sim.add_reward(reward)
        return sim, rewards, model

    @staticmethod
    def _observe(sim, rewards, model):
        return {
            "completions": sim.completions,
            "metrics": {r.name: r.result() for r in rewards},
            "marking": {n: p.tokens for n, p in model.places().items()},
        }

    def _build_lanes(self):
        self.lanes = [self._lane(r, "batch") for r in range(self.LANES)]

    def setup(self, timings):
        start = time.perf_counter()
        self._build_lanes()
        timings["lane_build_s"] = time.perf_counter() - start

    def prepare(self):
        # Lanes are spent by a run; set-up builds the first unit's.
        if self.lanes is None:
            self._build_lanes()

    def unit(self):
        import repro.san.compiled as compiled

        lanes, self.lanes = self.lanes, None
        start = time.perf_counter()
        stats = compiled.run_lanes([sim for sim, _rewards, _model in lanes], self.SIM_TIME)
        wall = time.perf_counter() - start
        return Unit(
            wall=wall,
            attempted=len(lanes),
            failed=0,
            outputs={"vectorized": stats.get("vectorized", 0),
                     "lanes": [self._observe(*lane) for lane in lanes]},
            completions=sum(sim.completions for sim, _rewards, _model in lanes),
        )

    def teardown(self):
        self.lanes = None

    def reference(self):
        lanes = _reference_map(functools.partial(_serial_lane, self.seed),
                               range(self.LANES))
        # run_lanes must take the vectorized path, not the wave loop.
        return {"outputs": {"vectorized": 1, "lanes": lanes},
                "completions": sum(lane["completions"] for lane in lanes)}


def _serial_lane(seed, replication):
    """One lane's serial compiled run, observed like a vectorized lane."""
    workload = IrLanes(seed, 0.0, "")
    lane = workload._lane(replication, "compiled")
    lane[0].run(workload.SIM_TIME)
    return workload._observe(*lane)


WORKLOADS = {cls.name: cls for cls in (Fig8Paper, Fig10Sweep, ServiceMixed, IrLanes)}


def reference_cached(workload: Workload, cache_dir: str) -> Dict[str, Any]:
    """The workload's reference, computed once per seed and code version."""
    from repro.resilience.result_cache import code_fingerprint

    digest = hashlib.blake2b(
        json.dumps({"config": workload.config(), "code": code_fingerprint()},
                   sort_keys=True).encode("utf-8"),
        digest_size=8,
    ).hexdigest()
    path = os.path.join(cache_dir, f"{workload.name}-{workload.seed}-{digest}.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        pass
    reference = workload.reference()
    # Round-trip through JSON so a fresh and a cached reference compare alike.
    reference = json.loads(json.dumps(reference))
    os.makedirs(cache_dir, exist_ok=True)
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    os.replace(temp, path)
    return reference
