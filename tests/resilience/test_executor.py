"""Tests for the resilient replication executor.

Includes the issue's two acceptance scenarios: a chaos-injected crash
must not change the surviving replications' estimates, and a
killed-then-resumed run must produce byte-identical result tables.
"""

import json
import time

import pytest

from repro.core import (
    SystemSpec,
    VMSpec,
    run_experiment,
    run_interleaved_sweep,
    run_sweep,
)
from repro.core.results import render_table, results_to_csv
from repro.errors import CheckpointError, ConfigurationError, ReplicationError
from repro.resilience import ChaosSpec, ResilienceConfig, result_cache, retry_seed
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
        with pytest.raises(ConfigurationError):
            ResilienceConfig(resume=True).validate()
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


class TestCheckpointResumeAcceptance:
    """Issue acceptance: a killed-then-resumed run renders byte-identical
    result tables to an uninterrupted one."""

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

    def test_resume_after_kill_is_byte_identical(self, noisy_spec, tmp_path):
        uninterrupted = run(noisy_spec, resilience=ResilienceConfig(retries=0))

        path = str(tmp_path / "ckpt.jsonl")
        run(noisy_spec, resilience=ResilienceConfig(retries=0, checkpoint=path))
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 4  # scope + 3 replications
        # "Kill" the run after the first replication landed, mid-write
        # of the second record.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed = run(
            noisy_spec,
            resilience=ResilienceConfig(retries=0, checkpoint=path, resume=True),
        )
        assert self.tables(resumed) == self.tables(uninterrupted)
        assert sample_vectors(resumed) == sample_vectors(uninterrupted)

    def test_resume_skips_recomputation(self, noisy_spec, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        run(noisy_spec, resilience=ResilienceConfig(retries=0, checkpoint=path))
        before = open(path, encoding="utf-8").read()
        run(
            noisy_spec,
            resilience=ResilienceConfig(retries=0, checkpoint=path, resume=True),
        )
        # Nothing new was computed, so nothing new was written.
        assert open(path, encoding="utf-8").read() == before

    def test_resume_against_different_experiment_refused(self, noisy_spec, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        run(noisy_spec, resilience=ResilienceConfig(retries=0, checkpoint=path))
        with pytest.raises(CheckpointError, match="different"):
            run(
                noisy_spec,
                resilience=ResilienceConfig(retries=0, checkpoint=path, resume=True),
                root_seed=999,
            )

    def test_resume_after_code_change_refused(self, noisy_spec, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.jsonl"
        run(noisy_spec, resilience=ResilienceConfig(retries=0, checkpoint=str(path)))
        before = path.read_bytes()
        # Any edit to the package changes its code fingerprint.
        monkeypatch.setattr(result_cache, "_code_fingerprint", "edited")
        resume = ResilienceConfig(retries=0, checkpoint=str(path), resume=True)
        with pytest.raises(CheckpointError, match="version of the code.*fresh"):
            run(noisy_spec, resilience=resume)
        assert path.read_bytes() == before

    def test_experiment_checkpoint_is_a_one_point_sweep_checkpoint(
        self, noisy_spec, tmp_path
    ):
        # run_experiment is a one-point sweep: its file holds the same
        # "point0" scope and records, and the sweep resumes it whole.
        experiment = tmp_path / "experiment.jsonl"
        sweep = tmp_path / "sweep.jsonl"
        first = run(
            noisy_spec,
            resilience=ResilienceConfig(retries=0, checkpoint=str(experiment)),
        )
        run_sweep(
            noisy_spec, [{}],
            min_replications=3, max_replications=3, target_half_width=1e-9,
            resilience=ResilienceConfig(retries=0, checkpoint=str(sweep)),
        )
        assert experiment.read_bytes() == sweep.read_bytes()
        scopes = {json.loads(line)["scope"]
                  for line in experiment.read_text().splitlines()}
        assert scopes == {"point0"}
        resumed = run_interleaved_sweep(
            [({}, noisy_spec)],
            min_replications=3, max_replications=3, target_half_width=1e-9,
            resilience=ResilienceConfig(
                retries=0, checkpoint=str(experiment), resume=True
            ),
        )
        assert resumed.stats.executed == 0
        assert sample_vectors(resumed.results[0]) == sample_vectors(first)

    @pytest.mark.parametrize("entry", ["run_experiment", "run_sweep"])
    def test_invalid_spec_leaves_the_checkpoint_untouched(
        self, noisy_spec, tmp_path, entry
    ):
        path = tmp_path / "ckpt.jsonl"
        run(noisy_spec, resilience=ResilienceConfig(retries=0, checkpoint=str(path)))
        before = path.read_bytes()
        config = ResilienceConfig(retries=0, checkpoint=str(path))
        with pytest.raises(ConfigurationError, match="pcpus"):
            if entry == "run_experiment":
                run(noisy_spec.with_overrides(pcpus=0), resilience=config)
            else:
                run_sweep(noisy_spec, [{"pcpus": 1}, {"pcpus": 0}],
                          min_replications=2, resilience=config)
        assert path.read_bytes() == before

    # A checkpoint scope written before run_experiment became a one-point
    # sweep: no point opens "experiment" any more.
    STALE = [
        {"kind": "scope", "scope": "experiment", "fingerprint": "0" * 32},
        {"kind": "replication", "scope": "experiment", "replication": 0,
         "ok": True, "metrics": {"pcpu_utilization": 0.5}},
    ]

    def append_stale(self, path):
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.STALE:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def test_resume_drops_scopes_no_point_opens(self, noisy_spec, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        config = ResilienceConfig(retries=0, checkpoint=str(path))
        first = run(noisy_spec, resilience=config)
        live = path.read_text().splitlines()
        self.append_stale(path)
        resume = ResilienceConfig(retries=0, checkpoint=str(path), resume=True)
        for _ in range(3):
            resumed = run(noisy_spec, resilience=resume)
            assert sample_vectors(resumed) == sample_vectors(first)
            assert sorted(path.read_text().splitlines()) == sorted(live)
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_resume_leaves_checkpoint_untouched(self, noisy_spec, tmp_path):
        kwargs = dict(min_replications=2, max_replications=2, target_half_width=1e-9)
        path = tmp_path / "sweep.jsonl"
        run_sweep(
            noisy_spec, [{"pcpus": 1}, {"pcpus": 2}],
            resilience=ResilienceConfig(retries=0, checkpoint=str(path)),
            **kwargs,
        )
        # Keep point1 only, so the resume below opens a new point0 scope
        # before point1's fingerprint mismatch stops it.
        lines = [line for line in path.read_text().splitlines()
                 if json.loads(line)["scope"] == "point1"]
        path.write_text("\n".join(lines) + "\n")
        self.append_stale(path)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="different"):
            run_sweep(
                noisy_spec, [{"pcpus": 1}, {"pcpus": 3}],
                resilience=ResilienceConfig(
                    retries=0, checkpoint=str(path), resume=True
                ),
                **kwargs,
            )
        assert path.read_bytes() == before

    def test_sweep_resumes_mid_grid(self, noisy_spec, tmp_path):
        sweep = [{"pcpus": 1}, {"pcpus": 2}]
        kwargs = dict(
            min_replications=2,
            max_replications=2,
            target_half_width=1e-9,
        )
        uninterrupted = run_sweep(noisy_spec, sweep, **kwargs)

        path = str(tmp_path / "sweep.jsonl")
        run_sweep(
            noisy_spec, sweep,
            resilience=ResilienceConfig(retries=0, checkpoint=path),
            **kwargs,
        )
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 6  # 2 points x (scope + 2 replications)
        # Kill the sweep inside point 1: keep point 0 and point 1's scope.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:4]) + "\n")

        resumed = run_sweep(
            noisy_spec, sweep,
            resilience=ResilienceConfig(retries=0, checkpoint=path, resume=True),
            **kwargs,
        )
        metrics = uninterrupted[0].metrics()
        assert results_to_csv(resumed, metrics) == results_to_csv(uninterrupted, metrics)
