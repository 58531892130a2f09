"""Tests for the sweep scheduler (shared pool, adaptive budget).

The engine's core contract: for any fixed replication set, the metric
estimates are exactly ``==`` a plain reference loop — ``simulate_once``
per replication, in order, fed to a ``ConvergenceMonitor`` and stopped
at its cut.  Scheduling order, worker placement, caching, and resume
must never change a number.  The differential tests here assert that
equality on the paper's Figure 8 sweep across all three schedulers,
with and without a warm result cache, plus the accounting the engine
reports on top.
"""

import dataclasses
import time

import pytest

import repro.core.framework as framework
from repro.core import SystemSpec, VMSpec, WorkloadSpec, run_sweep, simulate_once
from repro.core.experiment import (
    DEFAULT_CONFIDENCE,
    DEFAULT_TARGET_HALF_WIDTH,
    DEFAULT_WATCH_METRICS,
    resolve_sweep_points,
)
from repro.core.sweeps import (
    REASON_ADAPTIVE,
    REASON_FLOOR,
    REASON_RETRY,
    SweepPool,
    _AffinityPool,
    _Point,
    run_interleaved_sweep,
)
from repro.des import UniformInt
from repro.errors import ConfigurationError, ReplicationError, SimulationError
from repro.metrics.stats import ConvergenceMonitor
from repro.observability import SimTracer, tracing
from repro.observability import trace as trace_mod
from repro.paper import figure8_sweep, run_figure8
from repro.resilience import ChaosSpec, ResilienceConfig, retry_seed
from repro.resilience.failures import FailureKind


def extract(results):
    """Canonical per-point view: exact values, not approx comparisons."""
    return [
        {
            "replications": r.replications,
            "values": {name: est.values for name, est in r.estimates.items()},
        }
        for r in results
    ]


def _oracle_metrics(spec, replication, root_seed, config):
    """One replication, retried under the executor's reseed rule."""
    for attempt in range(config.retries + 1):
        try:
            return simulate_once(
                spec,
                replication=replication,
                root_seed=retry_seed(root_seed, replication, attempt),
                chaos=config.chaos,
                attempt=attempt,
                engine=config.engine,
            ).metrics
        except SimulationError:  # the gate wraps the injected crash
            if attempt == config.retries:
                raise


def oracle(base_spec, points, min_replications, max_replications, root_seed,
           resilience=None):
    """The serial reference: each point replicated in order to its cut."""
    config = resilience or ResilienceConfig(retries=0)
    results = []
    for _point, spec in resolve_sweep_points(base_spec, points):
        monitor = ConvergenceMonitor(
            DEFAULT_WATCH_METRICS,
            confidence=DEFAULT_CONFIDENCE,
            target_half_width=DEFAULT_TARGET_HALF_WIDTH,
            min_replications=min_replications,
        )
        values = {}
        while monitor.cut is None and monitor.n < max_replications:
            metrics = _oracle_metrics(spec, monitor.n, root_seed, config)
            monitor.push(metrics)
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
        results.append({"replications": monitor.n, "values": values})
    return results


@pytest.fixture
def base():
    return SystemSpec(
        vms=[VMSpec(2), VMSpec(1)],
        pcpus=1,
        scheduler="rrs",
        sim_time=250,
        warmup=50,
    )


@pytest.fixture
def points():
    return [
        {"pcpus": pcpus, "scheduler": scheduler}
        for pcpus in (1, 2)
        for scheduler in ("rrs", "scs", "rcs")
    ]


ARGS = {"min_replications": 2, "max_replications": 4, "root_seed": 0}


class TestDifferential:
    def test_interleaved_equals_serial(self, base, points):
        swept = run_sweep(base, points, **ARGS)
        assert extract(swept) == oracle(base, points, **ARGS)

    def test_figure8_sweep_with_and_without_warm_cache(self, tmp_path):
        # The acceptance differential: the Figure 8 campaign (rrs, scs,
        # rcs across the PCPU range) against the reference loop, cold
        # cache vs warm cache — every variant exactly equal.
        fig_base, fig_points = figure8_sweep(sim_time=200, warmup=40)
        fig_points = fig_points[:6]  # 1 and 2 PCPUs x three schedulers
        resolved = resolve_sweep_points(fig_base, fig_points)
        plain = run_interleaved_sweep(resolved, **ARGS)
        cache = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
        cold = run_interleaved_sweep(resolved, resilience=cache, **ARGS)
        warm = run_interleaved_sweep(resolved, resilience=cache, **ARGS)
        reference = oracle(fig_base, fig_points, **ARGS)
        assert extract(plain.results) == reference
        assert extract(cold.results) == reference
        assert extract(warm.results) == reference
        assert cold.stats.cache_hits == 0
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == cold.stats.executed

    def test_chaos_retry_equals_serial(self, base, points):
        # A crashed attempt retried under a reseeded stream must leave
        # the surviving samples — and thus every estimate — untouched.
        config = ResilienceConfig(
            retries=1,
            chaos=ChaosSpec(crash_replications=(1,), inject_after=100.0),
        )
        swept = run_sweep(base, points[:3], resilience=config, **ARGS)
        reference = oracle(base, points[:3], resilience=config, **ARGS)
        assert extract(swept) == reference

    @pytest.mark.slow
    def test_shared_pool_equals_serial(self, base, points):
        pooled = run_sweep(
            base, points[:4], resilience=ResilienceConfig(jobs=2), **ARGS
        )
        assert extract(pooled) == oracle(base, points[:4], **ARGS)


class TestRunSweepPlumbing:
    def test_order_preserved_and_parameters_recorded(self, base, points):
        results = run_sweep(base, points, **ARGS)
        assert [
            (r.parameters["pcpus"], r.parameters["scheduler"]) for r in results
        ] == [(p["pcpus"], p["scheduler"]) for p in points]

    def test_non_field_key_without_mutate_rejected(self, base):
        with pytest.raises(ConfigurationError, match="mutate"):
            run_sweep(base, [{"sync_ratio": 2}], **ARGS)

    def test_bad_jobs_rejected(self, base, points):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            run_sweep(base, points, resilience=ResilienceConfig(jobs=0), **ARGS)

    def test_no_config_and_default_config_share_the_retry_budget(
        self, base, monkeypatch
    ):
        # A crash of replication 1's first attempt: resilience=None and
        # ResilienceConfig() must handle it alike (no retry, so it is
        # final).  Patched on the module, so the in-process run sees it.
        original = framework.simulate_once

        def crashing(spec, replication=0, root_seed=0, *args, **kwargs):
            if replication == 1 and kwargs.get("attempt", 0) == 0:
                raise SimulationError("injected crash")
            return original(spec, replication, root_seed, *args, **kwargs)

        monkeypatch.setattr(framework, "simulate_once", crashing)
        resolved = resolve_sweep_points(base, [{"pcpus": 1}])
        for resilience in (None, ResilienceConfig()):
            with pytest.raises(
                ReplicationError, match="replication 1 failed after 1 attempt"
            ):
                run_interleaved_sweep(resolved, resilience=resilience, **ARGS)

    def test_budget_validation_shared_with_runner(self, base, points):
        with pytest.raises(ConfigurationError, match="min_replications"):
            run_sweep(base, points, min_replications=1, max_replications=4)


class TestCheckpointInterop:
    """One cache directory spans the sweep; every entry point resumes it."""

    def test_run_sweep_checkpoint_resumed_by_interleaved(self, base, points, tmp_path):
        cache = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
        first = run_sweep(base, points[:3], resilience=cache, **ARGS)
        resumed = run_interleaved_sweep(
            resolve_sweep_points(base, points[:3]), resilience=cache, **ARGS
        )
        assert resumed.stats.executed == 0
        assert extract(resumed.results) == extract(first)

    def test_interleaved_checkpoint_resumed_by_run_sweep(self, base, points, tmp_path):
        cache = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
        first = run_interleaved_sweep(
            resolve_sweep_points(base, points[:3]), resilience=cache, **ARGS
        )
        before = {
            path: path.read_bytes() for path in (tmp_path / "cache").rglob("*.json")
        }
        resumed = run_sweep(base, points[:3], resilience=cache, **ARGS)
        assert extract(resumed) == extract(first.results)
        # Every replication came from the cache: nothing was added.
        assert {
            path: path.read_bytes() for path in (tmp_path / "cache").rglob("*.json")
        } == before


class TestAccounting:
    def test_allocation_log_schema(self, base, points):
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, points[:3]), **ARGS
        )
        log = outcome.stats.allocation_log
        assert log, "no dispatches were recorded"
        assert [entry["seq"] for entry in log] == list(range(len(log)))
        for entry in log:
            assert set(entry) == {
                "seq", "point", "replication", "attempt", "worker",
                "reason", "batch", "distance",
            }
            assert entry["reason"] in (REASON_FLOOR, REASON_ADAPTIVE, REASON_RETRY)
            assert entry["batch"] >= 1
            if entry["reason"] != REASON_FLOOR:
                assert entry["batch"] == 1  # only floors are grouped
        # Every point draws its floor entitlement, and the per-point
        # execution counts reconcile with the returned results.
        floors = [e for e in log if e["reason"] == REASON_FLOOR]
        assert {e["point"] for e in floors} == {0, 1, 2}
        per_point = {index: 0 for index in range(3)}
        for entry in log:
            per_point[entry["point"]] += entry["batch"]
        assert sum(e["batch"] for e in log) == outcome.stats.executed
        for index, result in enumerate(outcome.results):
            assert per_point[index] >= ARGS["min_replications"]
            assert per_point[index] == outcome.stats.executed_per_point[index]
            assert outcome.stats.executed_per_point[index] == result.replications

    def test_executed_matches_dispatches_on_clean_run(self, base, points):
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, points[:3]), **ARGS
        )
        assert outcome.stats.points == 3
        log = outcome.stats.allocation_log
        assert outcome.stats.dispatches == len(log)
        # A grouped floor dispatch executes every member it carries.
        assert sum(e["batch"] for e in log) == outcome.stats.executed
        assert outcome.stats.executed == sum(
            r.replications for r in outcome.results
        )

    def test_retry_reason_recorded(self, base):
        config = ResilienceConfig(
            retries=1,
            chaos=ChaosSpec(crash_replications=(0,), inject_after=100.0),
        )
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, [{"pcpus": 1}]),
            resilience=config,
            **ARGS,
        )
        reasons = {e["reason"] for e in outcome.stats.allocation_log}
        assert REASON_RETRY in reasons

    def test_trace_records_dispatch_and_cache_hits(self, base, points, tmp_path):
        cache = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
        resolved = resolve_sweep_points(base, points[:2])
        run_interleaved_sweep(resolved, resilience=cache, **ARGS)
        tracer = SimTracer()
        with tracing(tracer):
            run_interleaved_sweep(resolved, resilience=cache, **ARGS)
        kinds = [record.kind for record in tracer.records]
        assert trace_mod.CACHE_HIT in kinds
        hits = [r for r in tracer.records if r.kind == trace_mod.CACHE_HIT]
        assert {h.data["scope"] for h in hits} == {"point0", "point1"}
        # The warm rerun resolves everything from cache: no dispatches.
        assert trace_mod.SWEEP_DISPATCH not in kinds
        tracer = SimTracer()
        with tracing(tracer):
            run_interleaved_sweep(resolved, **ARGS)
        dispatches = [
            r for r in tracer.records if r.kind == trace_mod.SWEEP_DISPATCH
        ]
        assert dispatches
        assert set(dispatches[0].data) == {
            "point", "replication", "attempt", "worker", "reason", "batch",
            "distance",
        }


class TestFloorOrder:
    def test_floor_grants_are_point_major(self, base, points):
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, points[:3]), **ARGS
        )
        floors = [
            (e["point"], e["replication"], e["batch"])
            for e in outcome.stats.allocation_log
            if e["reason"] == REASON_FLOOR
        ]
        # All of point 0's floor, then point 1's, then point 2's — each
        # as one group covering replications 0-1.
        assert floors == [(0, 0, 2), (1, 0, 2), (2, 0, 2)]

    def test_inline_sweep_builds_each_spec_once(self, monkeypatch):
        # Replication-first floors cycled the 12 Figure-8 specs through
        # the 8-entry model cache, rebuilding a model on most grants.
        # At this shape every point converges at its floor, so the floor
        # order alone decides how often a model is built.
        fig_base, fig_points = figure8_sweep(sim_time=300, warmup=30)
        registered = []
        original = framework._cache_register

        def counting(key, entry):
            registered.append(key)
            original(key, entry)

        framework.clear_model_cache()
        monkeypatch.setattr(framework, "_cache_register", counting)
        outcome = run_interleaved_sweep(
            resolve_sweep_points(fig_base, fig_points),
            min_replications=5,
            max_replications=30,
        )
        assert [r.replications for r in outcome.results] == [5] * 12
        assert len(registered) == 12
        assert len(set(registered)) == 12


    @pytest.mark.parametrize("root_seed", [0, 1, 2])
    def test_inline_sweep_builds_each_point_once_with_adaptive_grants(
        self, monkeypatch, root_seed
    ):
        # Points here need replications past their floor.  Granted after
        # every floor, those adaptive replications revisited points the
        # 8-entry model cache had evicted (14-20 builds for 12 points);
        # one worker now runs each point to its cut before the next.
        registered = []
        original = framework._cache_register

        def counting(key, entry):
            registered.append(key)
            original(key, entry)

        framework.clear_model_cache()
        monkeypatch.setattr(framework, "_cache_register", counting)
        figure = run_figure8(
            sim_time=100, warmup=10, replications=(2, 4), root_seed=root_seed
        )
        assert any(r.replications > 2 for r in figure.results)
        assert len(registered) == 12
        # Same numbers as the interleaved order: each cut depends only
        # on its point's own replication prefix.
        fig_base, fig_points = figure8_sweep(sim_time=100, warmup=10)
        reference = oracle(fig_base, fig_points, 2, 4, root_seed)
        assert extract(figure.results) == reference


class TestGroupedFloors:
    """Floor replications go out as grouped tasks on every engine."""

    def test_floor_grants_are_batched(self, base, points):
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, points[:2]), **ARGS
        )
        log = outcome.stats.allocation_log
        floors = [e for e in log if e["reason"] == REASON_FLOOR]
        # The whole floor entitlement of a point fits one group.
        assert {e["batch"] for e in floors} == {ARGS["min_replications"]}
        # Adaptive grants stay single so executed still equals the cut.
        for entry in log:
            if entry["reason"] == REASON_ADAPTIVE:
                assert entry["batch"] == 1
        # Accounting counts members, not dispatches.
        assert outcome.stats.executed == sum(
            r.replications for r in outcome.results
        )

    def test_width_splits_a_lone_point_across_workers(self, base):
        # One point, two workers: ceil(5 / 2) = 3, then the remaining 2
        # split 1 + 1, so both workers get floor work.
        config = ResilienceConfig(jobs=2, retries=0)
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, [{"pcpus": 1}]),
            resilience=config, min_replications=5, max_replications=5,
        )
        floors = [e["batch"] for e in outcome.stats.allocation_log
                  if e["reason"] == REASON_FLOOR]
        assert floors == [3, 1, 1]
        assert len({e["worker"] for e in outcome.stats.allocation_log}) == 2

    def test_guarded_and_chaos_runs_stay_single(self, base, points):
        config = ResilienceConfig(
            retries=1, chaos=ChaosSpec(crash_replications=(7,)),
        )
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, points[:2]), resilience=config, **ARGS
        )
        assert {e["batch"] for e in outcome.stats.allocation_log} == {1}

    @pytest.mark.slow
    def test_grouped_floor_timeout_scales_with_width(self, base, monkeypatch):
        # Workers fork after the patch, so they inherit the slow
        # simulate_once.  Each member takes ~0.6 x timeout: a group of
        # two overruns one timeout but not two.
        original = framework.simulate_once

        def slow(spec, replication=0, root_seed=0, *args, **kwargs):
            time.sleep(0.6)
            return original(spec, replication, root_seed, *args, **kwargs)

        monkeypatch.setattr(framework, "simulate_once", slow)
        resolved = resolve_sweep_points(base, [{"pcpus": 1}])
        config = ResilienceConfig(timeout=1.0, retries=0)
        with SweepPool(jobs=1, timeout=1.0) as pool:
            outcome = run_interleaved_sweep(
                resolved, resilience=config, pool=pool,
                min_replications=2, max_replications=2,
            )
            abandoned = len(pool._impl._abandoned)
        log = outcome.stats.allocation_log
        assert [(e["reason"], e["batch"]) for e in log] == [(REASON_FLOOR, 2)]
        assert outcome.results[0].failures == []
        assert abandoned == 0

    @pytest.mark.slow
    def test_stalled_group_member_times_out_and_group_reruns_singly(
        self, base, monkeypatch
    ):
        # Replication 1 stalls whenever it runs on the root seed, so the
        # group overruns its widened deadline, both members re-run as
        # single attempt-0 tasks, and replication 1 stalls again, times
        # out and succeeds on its reseeded retry.
        original = framework.simulate_once

        def stalling(spec, replication=0, root_seed=0, *args, **kwargs):
            if replication == 1 and root_seed == 0:
                time.sleep(30.0)
            return original(spec, replication, root_seed, *args, **kwargs)

        monkeypatch.setattr(framework, "simulate_once", stalling)
        resolved = resolve_sweep_points(base, [{"pcpus": 1}])
        config = ResilienceConfig(timeout=0.5, retries=1)
        start = time.monotonic()
        with SweepPool(jobs=1, timeout=0.5) as pool:
            outcome = run_interleaved_sweep(
                resolved, resilience=config, pool=pool,
                min_replications=2, max_replications=2,
            )
            abandoned = len(pool._impl._abandoned)
        assert time.monotonic() - start < 20.0
        log = [(e["reason"], e["replication"], e["attempt"], e["batch"])
               for e in outcome.stats.allocation_log]
        assert log == [
            (REASON_FLOOR, 0, 0, 2),
            (REASON_RETRY, 0, 0, 1),
            (REASON_RETRY, 1, 0, 1),
            (REASON_RETRY, 1, 1, 1),
        ]
        result = outcome.results[0]
        assert result.replications == 2
        assert [(f.kind, f.replication) for f in result.failures] == [
            (FailureKind.TIMEOUT, 1)
        ]
        assert abandoned == 2


class TestPoolLifecycle:
    @pytest.mark.slow
    def test_back_to_back_pools_leave_no_children(self, base, points):
        # Regression: close() used to sentinel/join only the *active*
        # slots and never terminate stragglers, so a second pooled sweep
        # in the same process inherited zombie workers.
        import multiprocessing

        resolved = resolve_sweep_points(base, points[:3])
        reference = None
        for _ in range(2):
            outcome = run_interleaved_sweep(
                resolved, resilience=ResilienceConfig(jobs=2), **ARGS
            )
            assert multiprocessing.active_children() == []
            if reference is None:
                reference = extract(outcome.results)
            else:
                assert extract(outcome.results) == reference

    def test_close_joins_task_queue_feeder_threads(self, base, points):
        # A worker that took its sentinel has nothing left in its pipe,
        # so close() can wait for its task queue's feeder thread: none
        # may outlive close() (a leaked thread per pool, per service
        # start/shutdown cycle).
        import threading

        def feeders():
            return {
                thread
                for thread in threading.enumerate()
                if thread.name == "QueueFeederThread"
            }

        before = feeders()
        resolved = resolve_sweep_points(base, points[:2])
        pool = SweepPool(jobs=2)
        run_interleaved_sweep(resolved, pool=pool, **ARGS)
        assert feeders() - before, "the pool's task queues never fed"
        pool.close()
        assert feeders() - before == set()


class TestSharedSweepPool:
    def test_borrowed_pool_across_sequential_sweeps_equals_serial(
        self, base, points
    ):
        serial = oracle(base, points[:3], **ARGS)
        resolved = resolve_sweep_points(base, points[:3])
        with SweepPool(jobs=1) as pool:
            first = run_interleaved_sweep(resolved, pool=pool, **ARGS)
            second = run_interleaved_sweep(resolved, pool=pool, **ARGS)
            assert not pool.closed
        assert pool.closed
        assert extract(first.results) == serial
        assert extract(second.results) == serial

    def test_closed_pool_is_rejected(self, base, points):
        resolved = resolve_sweep_points(base, points[:1])
        pool = SweepPool(jobs=1)
        pool.close()
        with pytest.raises(ConfigurationError, match="already closed"):
            run_interleaved_sweep(resolved, pool=pool, **ARGS)

    def test_timeout_needs_process_pool(self, base, points):
        resolved = resolve_sweep_points(base, points[:1])
        with SweepPool(jobs=1) as pool:  # inline: cannot enforce timeouts
            with pytest.raises(ConfigurationError, match="process workers"):
                run_interleaved_sweep(
                    resolved,
                    pool=pool,
                    resilience=ResilienceConfig(timeout=5.0),
                    **ARGS,
                )

    def test_progress_events_cover_every_dispatch(self, base, points):
        resolved = resolve_sweep_points(base, points[:2])
        events = []
        outcome = run_interleaved_sweep(resolved, progress=events.append, **ARGS)
        dispatches = [e for e in events if e["event"] == "dispatch"]
        resolutions = [e for e in events if e["event"] == "resolved"]
        assert len(dispatches) == outcome.stats.dispatches
        assert len(resolutions) == len(dispatches)
        assert {e["point"] for e in dispatches} == {0, 1}
        assert all(e["ok"] for e in resolutions)

    def test_raising_progress_aborts_and_pool_recovers(self, base, points):
        # Cooperative cancellation: the callback raises, the sweep
        # aborts mid-flight, and the same pool still serves a clean run.
        class Abort(Exception):
            pass

        resolved = resolve_sweep_points(base, points[:2])
        seen = []

        def bomb(event):
            seen.append(event)
            if len(seen) == 3:
                raise Abort()

        with SweepPool(jobs=1) as pool:
            with pytest.raises(Abort):
                run_interleaved_sweep(resolved, pool=pool, progress=bomb, **ARGS)
            retry = run_interleaved_sweep(resolved, pool=pool, **ARGS)
            assert extract(retry.results) == oracle(base, points[:2], **ARGS)

    @pytest.mark.slow
    def test_borrowed_process_pool_equals_serial(self, base, points):
        import multiprocessing

        # Gate on children the pool creates: other suites may leave
        # deliberately-abandoned stalled workers in the shared process.
        before = {child.pid for child in multiprocessing.active_children()}
        serial = oracle(base, points[:3], **ARGS)
        resolved = resolve_sweep_points(base, points[:3])
        with SweepPool(jobs=2) as pool:
            first = run_interleaved_sweep(resolved, pool=pool, **ARGS)
            second = run_interleaved_sweep(resolved, pool=pool, **ARGS)
        assert extract(first.results) == serial
        assert extract(second.results) == serial
        assert [
            child
            for child in multiprocessing.active_children()
            if child.pid not in before
        ] == []


class TestAffinityKey:
    """Placement routes a point by the model cache's own key."""

    @staticmethod
    def _state(spec, engine):
        return _Point(
            0, spec, ResilienceConfig(engine=engine),
            ConvergenceMonitor(DEFAULT_WATCH_METRICS, min_replications=2),
            root_seed=0, extra_probes=False,
            min_replications=2, max_replications=2,
        )

    def test_default_engine_routes_as_compiled(self, base):
        default = self._state(base, None).affinity_key
        assert default == self._state(base, "compiled").affinity_key
        assert default == framework._reuse_key(base, "compiled", False)
        assert default != self._state(base, "rescan").affinity_key

    def test_spec_without_json_form_prefers_no_worker(self, base):
        live = dataclasses.replace(
            base, vms=[VMSpec(1, WorkloadSpec(load=UniformInt(5, 15)))]
        )
        state = self._state(live, None)
        assert state.affinity_key is None
        pool = _AffinityPool(1)
        try:
            dispatch_id, worker = pool.submit(state.take(), None)
            polled, payload = pool.poll(30.0)
            assert (polled, payload["ok"]) == (dispatch_id, True)
            assert pool.idle()  # the poll freed the slot
            assert not pool._slots[worker].warm
        finally:
            pool.close()


class TestAdaptiveAllocation:
    def test_noisy_point_gets_the_budget(self, base):
        # Point 0 is deterministic (1 VCPU per PCPU twice over: converges
        # at the floor); point 1 is the noisy SMP config.  The adaptive
        # allocator must spend the extra replications on point 1 only.
        quiet = {"pcpus": 2, "vms": [VMSpec(1), VMSpec(1)]}
        noisy = {"pcpus": 1, "vms": [VMSpec(2), VMSpec(1)]}
        outcome = run_interleaved_sweep(
            resolve_sweep_points(base, [quiet, noisy]),
            min_replications=2,
            max_replications=8,
            target_half_width=1e-9,  # unreachable: run noisy to budget
            root_seed=0,
        )
        executed = outcome.stats.executed_per_point
        assert executed[1] == 8
        adaptive = [
            e for e in outcome.stats.allocation_log
            if e["reason"] == REASON_ADAPTIVE
        ]
        assert adaptive, "budget never escalated past the floors"
        for entry in adaptive:
            assert entry["distance"] is None or entry["distance"] >= 0.0
