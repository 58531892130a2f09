"""Tests for the resilient replication executor.

Includes two acceptance scenarios: a chaos-injected crash must not
change the surviving replications' estimates, and an interrupted run,
rerun on its result cache, must produce byte-identical result tables.
"""

import pathlib
import time
from dataclasses import replace

import pytest

from repro.core import (
    SystemSpec,
    VMSpec,
    run_experiment,
    run_interleaved_sweep,
    run_sweep,
)
from repro.core.results import render_table, results_to_csv
from repro.errors import ConfigurationError, ReplicationError
from repro.resilience import (
    ChaosSpec,
    GuardPolicy,
    ResilienceConfig,
    result_cache,
    retry_seed,
)
from repro.resilience.executor import bind_cache
from repro.resilience.failures import FailureKind


@pytest.fixture
def noisy_spec():
    """Per-replication samples differ (random barrier stalls under RRS),
    so equality assertions below actually discriminate."""
    return SystemSpec(
        vms=[VMSpec(2), VMSpec(1)],
        pcpus=1,
        scheduler="rrs",
        sim_time=300,
        warmup=50,
    )


def run(spec, resilience=None, min_replications=3, max_replications=3, **kwargs):
    return run_experiment(
        spec,
        min_replications=min_replications,
        max_replications=max_replications,
        target_half_width=1e-9,  # unreachable: always run the full budget
        resilience=resilience,
        **kwargs,
    )


def sample_vectors(result):
    return {name: est.values for name, est in result.estimates.items()}


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(jobs=0).validate()
        with pytest.raises(ConfigurationError):
            ResilienceConfig(timeout=0).validate()
        with pytest.raises(ConfigurationError):
            ResilienceConfig(retries=-1).validate()
        ResilienceConfig().validate()


class TestRetrySeed:
    def test_attempt_zero_is_the_root_seed(self):
        assert retry_seed(42, 7, 0) == 42

    def test_retries_are_deterministic_and_distinct(self):
        seeds = {retry_seed(42, 7, a) for a in range(4)}
        assert len(seeds) == 4  # root + 3 distinct retry seeds
        assert retry_seed(42, 7, 2) == retry_seed(42, 7, 2)

    def test_independent_of_other_replications(self):
        # Replication 7's retry seed does not depend on anything else.
        assert retry_seed(42, 7, 1) != retry_seed(42, 8, 1)
        assert retry_seed(42, 7, 1) != retry_seed(43, 7, 1)


class TestParallelEqualsSerial:
    def test_pool_matches_legacy_serial(self, noisy_spec):
        legacy = run(noisy_spec, resilience=None)
        pooled = run(noisy_spec, resilience=ResilienceConfig(jobs=3))
        assert sample_vectors(pooled) == sample_vectors(legacy)
        assert pooled.replications == legacy.replications
        assert pooled.failures == [] and not pooled.degraded

    def test_convergence_cut_identical(self):
        # Deterministic system: converges exactly at min_replications in
        # both drivers, and over-run parallel samples are discarded.
        spec = SystemSpec(
            vms=[VMSpec(1), VMSpec(1)], pcpus=1, scheduler="rrs",
            sim_time=300, warmup=50,
        )
        legacy = run_experiment(spec, min_replications=2, max_replications=10)
        pooled = run_experiment(
            spec, min_replications=2, max_replications=10,
            resilience=ResilienceConfig(jobs=4),
        )
        assert legacy.replications == pooled.replications == 2
        assert sample_vectors(legacy) == sample_vectors(pooled)


class TestChaosCrashAcceptance:
    """Issue acceptance: crash replication k, retry reseeded, surviving
    estimates unchanged, failure recorded, no hang."""

    def test_surviving_replications_identical_to_clean_run(self, noisy_spec):
        k = 1
        clean = run(noisy_spec, resilience=ResilienceConfig(retries=0))
        chaotic = run(
            noisy_spec,
            resilience=ResilienceConfig(
                retries=2,
                chaos=ChaosSpec(crash_replications=(k,), inject_after=100.0),
            ),
        )
        assert chaotic.replications == clean.replications == 3
        for name, values in sample_vectors(clean).items():
            chaotic_values = chaotic.estimates[name].values
            # Replications other than k are byte-for-byte the clean ones.
            for rep in (0, 2):
                assert chaotic_values[rep] == values[rep], (name, rep)
        # The crash became a structured record, not a lost traceback.
        assert any(
            f.kind == FailureKind.EXCEPTION and f.replication == k
            for f in chaotic.failures
        )

    def test_reseeded_retry_is_deterministic(self, noisy_spec):
        config = ResilienceConfig(
            retries=2,
            chaos=ChaosSpec(crash_replications=(1,), inject_after=100.0),
        )
        first = run(noisy_spec, resilience=config)
        again = run(noisy_spec, resilience=config)
        assert sample_vectors(first) == sample_vectors(again)
        assert [str(f) for f in first.failures] == [str(f) for f in again.failures]

    def test_crash_in_parallel_run(self, noisy_spec):
        clean = run(noisy_spec, resilience=ResilienceConfig(retries=0))
        chaotic = run(
            noisy_spec,
            resilience=ResilienceConfig(
                jobs=3,
                retries=2,
                chaos=ChaosSpec(crash_replications=(0,), inject_after=100.0),
            ),
        )
        assert chaotic.replications == 3
        assert chaotic.estimates["pcpu_utilization"].values[1:] == \
            clean.estimates["pcpu_utilization"].values[1:]
        assert any(f.replication == 0 for f in chaotic.failures)


class TestTimeouts:
    def test_stalled_replication_is_abandoned_not_awaited(self, noisy_spec):
        # The stall (30 s) dwarfs the timeout (0.75 s); if the executor
        # *waited* for the stalled worker the test would take ~30 s.
        start = time.monotonic()
        result = run(
            noisy_spec,
            resilience=ResilienceConfig(
                jobs=2,
                timeout=0.75,
                retries=1,
                chaos=ChaosSpec(stall_replications=(1,), stall_seconds=30.0),
            ),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 20.0
        assert result.replications == 3
        assert any(f.kind == FailureKind.TIMEOUT for f in result.failures)


class TestRetryExhaustion:
    def test_raises_replication_error_by_default(self, noisy_spec):
        # first_attempt_only=False: every retry crashes too.
        config = ResilienceConfig(
            retries=1,
            chaos=ChaosSpec(
                crash_replications=(0,), inject_after=100.0, first_attempt_only=False
            ),
        )
        with pytest.raises(ReplicationError, match="replication 0"):
            run(noisy_spec, resilience=config)

    def test_keep_partial_continues_with_survivors(self, noisy_spec):
        clean = run(noisy_spec, resilience=ResilienceConfig(retries=0))
        config = ResilienceConfig(
            retries=1,
            keep_partial=True,
            chaos=ChaosSpec(
                crash_replications=(0,), inject_after=100.0, first_attempt_only=False
            ),
        )
        partial = run(noisy_spec, resilience=config)
        assert partial.replications == 2  # reps 1 and 2 survived
        assert partial.estimates["pcpu_utilization"].values == \
            clean.estimates["pcpu_utilization"].values[1:]
        assert any(
            f.kind == FailureKind.RETRIES_EXHAUSTED and f.replication == 0
            for f in partial.failures
        )


def cache_entries(root):
    return {path: path.read_bytes() for path in root.rglob("*.json")}


def entry_path(config, spec, replication, root_seed=0):
    binding = bind_cache(spec, config, root_seed, False)
    return pathlib.Path(binding.cache._path(binding.key(replication)))


class TestCheckpointResumeAcceptance:
    """Acceptance: an interrupted run, rerun with the same ``cache_dir``,
    renders byte-identical result tables to an uninterrupted one.  Cache
    writes are atomic, so deleting entries is what a kill leaves."""

    @staticmethod
    def tables(result):
        rows = [
            [name, result.mean(name), result.half_width(name)]
            for name in result.metrics()
        ]
        return (
            render_table(["metric", "mean", "hw"], rows),
            results_to_csv([result], metrics=result.metrics()),
        )

    def test_resume_after_kill_is_byte_identical(
        self, noisy_spec, tmp_path, executions
    ):
        uninterrupted = run(noisy_spec, resilience=ResilienceConfig(retries=0))
        config = ResilienceConfig(retries=0, cache_dir=str(tmp_path / "cache"))
        run(noisy_spec, resilience=config)
        assert len(cache_entries(tmp_path / "cache")) == 3
        # "Kill" the run after the first replication landed.
        for replication in (1, 2):
            entry_path(config, noisy_spec, replication).unlink()

        executions.clear()
        resumed = run(noisy_spec, resilience=config)
        assert sorted(executions) == [1, 2]
        assert self.tables(resumed) == self.tables(uninterrupted)
        assert sample_vectors(resumed) == sample_vectors(uninterrupted)

    def test_resume_skips_recomputation(self, noisy_spec, tmp_path, executions):
        config = ResilienceConfig(retries=0, cache_dir=str(tmp_path / "cache"))
        run(noisy_spec, resilience=config)
        before = cache_entries(tmp_path / "cache")
        executions.clear()
        run(noisy_spec, resilience=config)
        # Nothing new was computed, so nothing new was written.
        assert executions == []
        assert cache_entries(tmp_path / "cache") == before

    def test_different_experiment_misses(self, noisy_spec, tmp_path):
        config = ResilienceConfig(retries=0, cache_dir=str(tmp_path / "cache"))
        run(noisy_spec, resilience=config)
        before = cache_entries(tmp_path / "cache")
        outcome = run_interleaved_sweep(
            [({}, noisy_spec)], root_seed=999,
            min_replications=3, max_replications=3, target_half_width=1e-9,
            resilience=config,
        )
        assert outcome.stats.executed == 3 and outcome.stats.cache_hits == 0
        assert sample_vectors(outcome.results[0]) == sample_vectors(
            run(noisy_spec, root_seed=999)
        )
        after = cache_entries(tmp_path / "cache")
        assert {p: after[p] for p in before} == before and len(after) == 6

    def test_code_change_recomputes_and_keeps_old_entries(
        self, noisy_spec, tmp_path, monkeypatch, executions
    ):
        config = ResilienceConfig(retries=0, cache_dir=str(tmp_path / "cache"))
        first = run(noisy_spec, resilience=config)
        before = cache_entries(tmp_path / "cache")
        # Any edit to the package changes its code fingerprint; a new
        # process would open a new handle on the cache directory.
        monkeypatch.setattr(result_cache, "_code_fingerprint", "edited")
        monkeypatch.setattr(result_cache, "_SHARED", {})
        executions.clear()
        again = run(noisy_spec, resilience=config)
        assert sorted(executions) == [0, 1, 2]
        assert sample_vectors(again) == sample_vectors(first)
        after = cache_entries(tmp_path / "cache")
        assert {p: after[p] for p in before} == before and len(after) == 6

    def test_experiment_checkpoint_is_a_one_point_sweep_checkpoint(
        self, noisy_spec, tmp_path
    ):
        # run_experiment is a one-point sweep: it writes the same cache
        # entries, and the sweep resumes them whole.
        experiment = tmp_path / "experiment"
        sweep = tmp_path / "sweep"
        first = run(
            noisy_spec,
            resilience=ResilienceConfig(retries=0, cache_dir=str(experiment)),
        )
        run_sweep(
            noisy_spec, [{}],
            min_replications=3, max_replications=3, target_half_width=1e-9,
            resilience=ResilienceConfig(retries=0, cache_dir=str(sweep)),
        )
        assert {
            p.relative_to(experiment): b for p, b in cache_entries(experiment).items()
        } == {p.relative_to(sweep): b for p, b in cache_entries(sweep).items()}
        resumed = run_interleaved_sweep(
            [({}, noisy_spec)],
            min_replications=3, max_replications=3, target_half_width=1e-9,
            resilience=ResilienceConfig(retries=0, cache_dir=str(experiment)),
        )
        assert resumed.stats.executed == 0
        assert sample_vectors(resumed.results[0]) == sample_vectors(first)

    @pytest.mark.parametrize("entry", ["run_experiment", "run_sweep"])
    def test_invalid_spec_leaves_the_checkpoint_untouched(
        self, noisy_spec, tmp_path, entry
    ):
        config = ResilienceConfig(retries=0, cache_dir=str(tmp_path / "cache"))
        run(noisy_spec, resilience=config)
        before = cache_entries(tmp_path / "cache")
        with pytest.raises(ConfigurationError, match="pcpus"):
            if entry == "run_experiment":
                run(noisy_spec.with_overrides(pcpus=0), resilience=config)
            else:
                run_sweep(noisy_spec, [{"pcpus": 2}, {"pcpus": 0}],
                          min_replications=2, resilience=config)
        assert cache_entries(tmp_path / "cache") == before

    def test_sweep_resumes_mid_grid(self, noisy_spec, tmp_path, executions):
        sweep = [{"pcpus": 1}, {"pcpus": 2}]
        kwargs = dict(
            min_replications=2,
            max_replications=2,
            target_half_width=1e-9,
        )
        uninterrupted = run_sweep(noisy_spec, sweep, **kwargs)

        config = ResilienceConfig(retries=0, cache_dir=str(tmp_path / "cache"))
        run_sweep(noisy_spec, sweep, resilience=config, **kwargs)
        assert len(cache_entries(tmp_path / "cache")) == 4
        # Kill the sweep inside point 1: its second replication is lost.
        entry_path(config, noisy_spec.with_overrides(pcpus=2), 1).unlink()

        executions.clear()
        resumed = run_sweep(noisy_spec, sweep, resilience=config, **kwargs)
        assert executions == [1]
        metrics = uninterrupted[0].metrics()
        assert results_to_csv(resumed, metrics) == results_to_csv(uninterrupted, metrics)


def resolved(outcome):
    """What a resume must reproduce: every sample, failure and flag."""
    result = outcome.results[0]
    return (
        sample_vectors(result),
        [f.to_dict() for f in result.failures],
        result.degraded,
    )


def sweep_once(spec, config):
    return run_interleaved_sweep(
        [({}, spec)],
        min_replications=3, max_replications=3, target_half_width=1e-9,
        resilience=config,
    )


class TestGuardedAndChaosResume:
    """Guarded and chaos runs are stored too, so they resume whole."""

    @pytest.mark.parametrize(
        "config",
        [
            ResilienceConfig(
                retries=0,
                guard=GuardPolicy(mode="degrade", quarantine_after=1),
                chaos=ChaosSpec(corrupt_replications=(0, 2), inject_after=100.0),
            ),
            ResilienceConfig(
                retries=1,
                chaos=ChaosSpec(crash_replications=(0,), inject_after=100.0),
            ),
        ],
        ids=["degrade-guard-over-corrupt", "retried-crash"],
    )
    def test_rerun_resumes_with_identical_outcomes(self, noisy_spec, tmp_path, config):
        config = replace(config, cache_dir=str(tmp_path / "cache"))
        first = sweep_once(noisy_spec, config)
        assert first.results[0].failures  # the plan did fire
        assert first.results[0].degraded == (config.guard is not None)
        again = sweep_once(noisy_spec, config)
        assert again.stats.executed == 0 and again.stats.cache_hits == 3
        assert resolved(again) == resolved(first)

    def test_timed_out_stall_reexecutes(self, noisy_spec, tmp_path):
        config = ResilienceConfig(
            jobs=2,
            timeout=0.75,
            retries=1,
            chaos=ChaosSpec(stall_replications=(1,), stall_seconds=30.0),
            cache_dir=str(tmp_path / "cache"),
        )
        first = sweep_once(noisy_spec, config)
        assert any(f.kind == FailureKind.TIMEOUT for f in first.results[0].failures)
        again = sweep_once(noisy_spec, config)
        # Replications 0 and 2 hit; replication 1 times out again, then
        # its retry succeeds.
        assert again.stats.cache_hits == 2
        assert again.stats.executed == 2
        assert sample_vectors(again.results[0]) == sample_vectors(first.results[0])

    def test_entry_past_the_retry_budget_is_a_miss(self, noisy_spec, tmp_path):
        chaos = ChaosSpec(crash_replications=(0,), inject_after=100.0)
        cache = str(tmp_path / "cache")
        retried = ResilienceConfig(retries=1, chaos=chaos, cache_dir=cache)
        sweep_once(noisy_spec, retried)

        # Replication 0 resolved at attempt 1: a retries=0 rerun misses
        # it and behaves exactly like a fresh retries=0 run.
        strict = ResilienceConfig(retries=0, chaos=chaos, keep_partial=True)
        fresh = sweep_once(noisy_spec, strict)
        rerun = sweep_once(noisy_spec, replace(strict, cache_dir=cache))
        assert rerun.stats.cache_hits == 2 and rerun.stats.executed == 1
        assert resolved(rerun) == resolved(fresh)
        assert rerun.results[0].replications == 2
        with pytest.raises(ReplicationError, match="replication 0"):
            sweep_once(noisy_spec, replace(retried, retries=0))
