"""Tests for the persistent content-addressed result cache."""

import json
import os

import pytest

from repro.core import SystemSpec, VMSpec, run_interleaved_sweep
from repro.resilience import (
    ChaosSpec,
    GuardPolicy,
    ResilienceConfig,
    ResultCache,
    code_fingerprint,
)
from repro.resilience.executor import ReplicationOutcome, bind_cache
from repro.resilience.result_cache import cacheable_spec_payload
from repro.san import resolve_engine


@pytest.fixture
def spec():
    return SystemSpec(
        vms=[VMSpec(1), VMSpec(1)],
        pcpus=1,
        scheduler="rrs",
        sim_time=250,
        warmup=50,
    )


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_hex_digest(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 32
        int(fingerprint, 16)


class TestKey:
    def test_deterministic(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        payload = {"scheduler": "rrs", "pcpus": 2}
        assert cache.key(payload, "compiled", 0, 3) == cache.key(
            payload, "compiled", 0, 3
        )

    def test_every_component_is_identity(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = cache.key({"scheduler": "rrs"}, "compiled", 0, 3, False)
        assert cache.key({"scheduler": "scs"}, "compiled", 0, 3, False) != base
        assert cache.key({"scheduler": "rrs"}, "rescan", 0, 3, False) != base
        assert cache.key({"scheduler": "rrs"}, "compiled", 1, 3, False) != base
        assert cache.key({"scheduler": "rrs"}, "compiled", 0, 4, False) != base
        assert cache.key({"scheduler": "rrs"}, "compiled", 0, 3, True) != base

    def test_key_order_insensitive(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.key({"a": 1, "b": 2}, "compiled", 0, 0) == cache.key(
            {"b": 2, "a": 1}, "compiled", 0, 0
        )


class TestStoreLoad:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key({"scheduler": "rrs"}, "compiled", 0, 0)
        assert cache.load(key) is None
        assert cache.misses == 1

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key({"scheduler": "rrs"}, "compiled", 0, 0)
        payload = {"ok": True, "metrics": {"pcpu_utilization": 0.5}}
        cache.store(key, payload)
        assert cache.writes == 1
        assert cache.load(key) == payload
        assert cache.hits == 1

    def test_not_ok_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key({}, "compiled", 0, 0)
        cache.store(key, {"ok": False, "metrics": {}})
        assert cache.load(key) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key({}, "compiled", 0, 0)
        cache.store(key, {"ok": True, "metrics": {}})
        with open(cache._path(key), "w", encoding="utf-8") as handle:
            handle.write("{torn write")
        assert cache.load(key) is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for replication in range(5):
            cache.store(cache.key({}, "compiled", 0, replication), {"ok": True})
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if not name.endswith(".json")
        ]
        assert leftovers == []

    def test_unwritable_root_degrades_silently(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ResultCache(str(blocker))
        cache.store(cache.key({}, "compiled", 0, 0), {"ok": True})
        assert cache.writes == 0

    def test_concurrent_writers_last_wins_cleanly(self, tmp_path):
        # Two processes may race on the same key (all writers hold the
        # same value in production; here they differ so the test can
        # see which one landed).  Interleave the tmp-file phase of both
        # writers: each os.replace must land a *complete* entry and the
        # final state must be one of the two payloads, never a blend or
        # a torn file.
        import threading

        cache_a = ResultCache(str(tmp_path))
        cache_b = ResultCache(str(tmp_path))
        key = cache_a.key({"scheduler": "rrs"}, "compiled", 0, 0)
        payload_a = {"ok": True, "metrics": {"writer": "a"}}
        payload_b = {"ok": True, "metrics": {"writer": "b"}}
        barrier = threading.Barrier(2)

        def write(cache, payload):
            barrier.wait()
            for _ in range(50):
                cache.store(key, payload)

        threads = [
            threading.Thread(target=write, args=(cache_a, payload_a)),
            threading.Thread(target=write, args=(cache_b, payload_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = cache_a.load(key)
        assert final in (payload_a, payload_b)
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if ".tmp." in name
        ]
        assert leftovers == []

    def test_same_pid_tmp_collision_is_safe(self, tmp_path):
        # Both writers in one process share the pid-suffixed temp name;
        # sequential stores must still both succeed.
        cache = ResultCache(str(tmp_path))
        key = cache.key({}, "compiled", 0, 0)
        cache.store(key, {"ok": True, "metrics": {"round": 1}})
        cache.store(key, {"ok": True, "metrics": {"round": 2}})
        assert cache.load(key) == {"ok": True, "metrics": {"round": 2}}

    def test_stale_tmp_file_never_shadows_entries(self, tmp_path):
        # A crashed writer may leave a stale *.tmp.<pid> behind (e.g.
        # SIGKILL between write and replace).  It must not be read as
        # an entry, and a later healthy store must still land.
        cache = ResultCache(str(tmp_path))
        key = cache.key({}, "compiled", 0, 0)
        path = cache._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(f"{path}.tmp.99999", "w", encoding="utf-8") as handle:
            handle.write('{"ok": true, "metrics": {"stale":')  # torn
        assert cache.load(key) is None  # the tmp file is not the entry
        cache.store(key, {"ok": True, "metrics": {}})
        assert cache.load(key) == {"ok": True, "metrics": {}}

    def test_fingerprint_namespaces_entries(self, tmp_path):
        # A code change moves the fingerprint directory, so every entry
        # of the previous version reads as a miss.
        cache = ResultCache(str(tmp_path))
        key = cache.key({}, "compiled", 0, 0)
        cache.store(key, {"ok": True, "metrics": {}})
        stale = ResultCache(str(tmp_path))
        stale.fingerprint = "0" * 32
        assert stale._path(key) != cache._path(key)
        assert stale.load(key) is None


class TestCacheableSpecPayload:
    def test_real_spec_round_trips(self, spec):
        payload = cacheable_spec_payload(spec)
        assert payload is not None
        json.loads(json.dumps(payload, sort_keys=True))

    def test_unserializable_spec_is_rejected(self):
        class Opaque:
            def to_dict(self):
                return {"stream": object()}

        assert cacheable_spec_payload(Opaque()) is None

    def test_to_dict_failure_is_rejected(self):
        class Broken:
            def to_dict(self):
                raise RuntimeError("no canonical form")

        assert cacheable_spec_payload(Broken()) is None


class TestBindCache:
    def test_disabled_without_cache_dir(self, spec):
        assert bind_cache(spec, ResilienceConfig(), 0, False) is None

    def test_guard_and_chaos_distinguish_keys(self, spec, tmp_path):
        configs = [
            ResilienceConfig(cache_dir=str(tmp_path)),
            ResilienceConfig(cache_dir=str(tmp_path), guard=GuardPolicy()),
            ResilienceConfig(
                cache_dir=str(tmp_path), chaos=ChaosSpec(crash_replications=(0,))
            ),
        ]
        keys = {bind_cache(spec, config, 0, False).key(0) for config in configs}
        assert len(keys) == 3

    def test_engine_distinguishes_keys(self, spec, tmp_path):
        compiled = bind_cache(
            spec, ResilienceConfig(cache_dir=str(tmp_path), engine="compiled"), 0, False
        )
        rescan = bind_cache(
            spec, ResilienceConfig(cache_dir=str(tmp_path), engine="rescan"), 0, False
        )
        assert compiled.key(0) != rescan.key(0)

    def test_default_engine_key_names_the_resolved_default(self, spec, tmp_path):
        # A default config's entries must be keyed by the engine that
        # actually runs them, not by a separately spelled default.
        default = bind_cache(spec, ResilienceConfig(cache_dir=str(tmp_path)), 0, False)
        explicit = bind_cache(
            spec,
            ResilienceConfig(cache_dir=str(tmp_path), engine=resolve_engine(None)),
            0,
            False,
        )
        assert default.key(0) == explicit.key(0)


def _sweep(spec, config, root_seed=0):
    """One experiment through the sweep driver, with its accounting."""
    return run_interleaved_sweep(
        [({}, spec)],
        root_seed=root_seed,
        min_replications=2,
        max_replications=4,
        resilience=config,
    )


def _samples(outcome):
    result = outcome.results[0]
    return {name: est.values for name, est in result.estimates.items()}


class TestExecutorIntegration:
    def test_warm_rerun_executes_nothing(self, spec, tmp_path):
        config = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
        cold = _sweep(spec, config)
        replications = cold.results[0].replications
        assert cold.stats.executed == replications
        assert cold.stats.cache_hits == 0
        warm = _sweep(spec, config)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == replications
        assert _samples(warm) == _samples(cold)

    def test_cached_results_equal_uncached(self, spec, tmp_path):
        plain = _sweep(spec, ResilienceConfig())
        config = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
        for _ in range(2):  # cold, then warm
            cached = _sweep(spec, config)
            assert _samples(cached) == _samples(plain)
            assert cached.results[0].replications == plain.results[0].replications

    def test_root_seed_misses(self, spec, tmp_path):
        config = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
        _sweep(spec, config)
        other = _sweep(spec, config, root_seed=7)
        assert other.stats.cache_hits == 0
        assert other.stats.executed == other.results[0].replications


#: Entries that parse as JSON but are no replication outcome, and one
#: torn write.  Each must read as a miss and be recomputed.
_GOOD_FAILURE = {
    "kind": "exception", "message": "m", "replication": 0, "attempt": 0,
    "scheduler": "rrs", "sim_time": 1.0,
}
_GOOD = {
    "ok": True, "metrics": {"pcpu_utilization": 0.5}, "attempt": 0,
    "completions": 1, "degraded": False, "failures": [],
}
MALFORMED = {
    "ok-only": {"ok": True},
    "empty-metrics-incomplete-failure": {
        "ok": True, "metrics": {}, "failures": [{}],
    },
    "metrics-not-a-dict": {**_GOOD, "metrics": [0.5]},
    "empty-metrics": {**_GOOD, "metrics": {}},
    "string-metric": {**_GOOD, "metrics": {"pcpu_utilization": "0.5"}},
    "bool-metric": {**_GOOD, "metrics": {"pcpu_utilization": True}},
    "nan-metric": '{"ok": true, "metrics": {"pcpu_utilization": NaN}, '
    '"attempt": 0, "completions": 1, "degraded": false, "failures": []}',
    "negative-attempt": {**_GOOD, "attempt": -1},
    "float-attempt": {**_GOOD, "attempt": 0.0},
    "missing-completions": {k: v for k, v in _GOOD.items() if k != "completions"},
    "degraded-not-bool": {**_GOOD, "degraded": 0},
    "failures-not-a-list": {**_GOOD, "failures": {}},
    "failure-not-a-dict": {**_GOOD, "failures": ["exception"]},
    "unknown-failure-kind": {
        **_GOOD, "failures": [{**_GOOD_FAILURE, "kind": "cosmic-ray"}],
    },
    "incomplete-failure": {
        **_GOOD,
        "failures": [{k: v for k, v in _GOOD_FAILURE.items() if k != "sim_time"}],
    },
    "mistyped-failure": {**_GOOD, "failures": [{**_GOOD_FAILURE, "attempt": "0"}]},
    "torn-write": '{"ok": true, "metrics": {"pcpu_utiliz',
}


@pytest.mark.parametrize("entry", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_cache_entry_is_a_miss(spec, tmp_path, entry):
    config = ResilienceConfig(cache_dir=str(tmp_path / "cache"))
    kwargs = dict(min_replications=3, max_replications=3, resilience=config)
    first = run_interleaved_sweep([({}, spec)], **kwargs)
    paths = sorted((tmp_path / "cache").rglob("*.json"))
    assert len(paths) == 3
    text = entry if isinstance(entry, str) else json.dumps(entry)
    for path in paths:
        path.write_text(text, encoding="utf-8")

    again = run_interleaved_sweep([({}, spec)], **kwargs)
    assert again.stats.cache_hits == 0 and again.stats.executed == 3
    assert again.results[0].replications == 3
    assert _samples(again) == _samples(first)
    # The recomputed outcomes replaced the malformed entries.
    warm = run_interleaved_sweep([({}, spec)], **kwargs)
    assert warm.stats.executed == 0


def test_well_formed_entry_is_a_hit(tmp_path):
    # The counterpart of the malformed cases: the reference entry loads.
    cache = ResultCache(str(tmp_path))
    key = cache.key({}, "compiled", 0, 0)
    cache.store(key, {**_GOOD, "failures": [_GOOD_FAILURE]})
    outcome = cache.load(key, lambda p: ReplicationOutcome.from_payload(0, p))
    assert outcome.metrics == _GOOD["metrics"]
    assert outcome.failures[0].to_dict() == _GOOD_FAILURE
    assert cache.hits == 1
