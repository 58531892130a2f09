"""Differential tests: the three enablement engines must agree bit-for-bit.

The compiled engine (the default) caches verdicts over a model lowered
to flat arrays and fast-forwards idle clock ticks; the batch engine
runs one replication as a one-lane ``run_lanes``, which is compiled on
every VMM model (vectorized lanes need a fully-IR model); the rescan
engine re-evaluates everything every step and is the semantic
reference.  For a fixed ``(root_seed, replication)`` all three
must be *bit-for-bit* identical — same metrics, same completion count —
for every registered scheduler, with and without the resilience layers
(decision guard, chaos injection) and the PCPU fail/repair extension.
A point's floor group (one task, a ``simulate_once`` loop over one
reused model) must equal its members run one by one.

Any divergence here means an engine skipped work that mattered: the
compiled dependency tracker missed a write, or the fast-forward
certified a span in which some gate would actually have opened (or,
for rcs, in which the skew accounting would have decided something).
Both are correctness bugs, not tolerance issues — hence exact ``==``.

Compiled coalesces idle clock firings (one ``engine.fastforward``
record replaces k fire records), so traces are compared with rescan's
after the golden normalization documented in
:mod:`repro.observability.golden`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import Simulation, clear_model_cache, simulate_once
from repro.core.registry import list_schedulers
from repro.errors import ConfigurationError
from repro.observability import SimTracer, check_trace
from repro.observability import golden
from repro.paper import figure8_sweep
from repro.resilience import ChaosSpec, GuardPolicy
from repro.resilience.executor import _execute_task, _Task
from repro.san import ENGINES, resolve_engine

from ..conftest import make_spec

# The engines under test, measured against the rescan reference.
FAST_ENGINES = tuple(engine for engine in ENGINES if engine != "rescan")

# Aggressive health parameters so degradation, terminal failures and
# maintenance all actually fire inside a 300-tick run.
DEGRADATION = {"p": 0.3, "h_max": 3, "mtbe": 40.0}
MAINTENANCE = {"policy": "condition_based", "crews": 1, "mttr": 15.0,
               "threshold": 2}


def assert_engines_agree(spec, replication=0, root_seed=7, **kwargs):
    reference = simulate_once(
        spec, replication=replication, root_seed=root_seed,
        engine="rescan", **kwargs,
    )
    for engine in FAST_ENGINES:
        fast = simulate_once(
            spec, replication=replication, root_seed=root_seed,
            engine=engine, **kwargs,
        )
        assert fast.metrics == reference.metrics, engine
        assert fast.completions == reference.completions, engine
        assert fast.degraded == reference.degraded, engine
        assert len(fast.failures) == len(reference.failures), engine


def _traced(spec, engine, replication=0, root_seed=7, **kwargs):
    tracer = SimTracer()
    simulate_once(spec, replication=replication, root_seed=root_seed,
                  engine=engine, tracer=tracer, **kwargs)
    return tracer


def assert_engine_traces_identical(spec, replication=0, root_seed=7, **kwargs):
    """Stronger than metric equality: the *event streams* must match.

    Compiled coalesces idle clock firings, so its raw stream is shorter;
    the golden normalization must erase exactly that difference and
    nothing else — and the raw compiled stream must still satisfy every
    scheduling invariant.  Returns the tracers by engine.
    """
    tracers = {
        engine: _traced(spec, engine, replication, root_seed, **kwargs)
        for engine in ENGINES
    }
    want_norm = golden.normalize(tracers["rescan"].records)
    for engine in FAST_ENGINES:
        got_norm = golden.normalize(tracers[engine].records)
        assert got_norm == want_norm, f"{engine} trace normalizes differently"
        violations = check_trace(tracers[engine].records)
        assert not violations, "\n".join(str(v) for v in violations[:10])
    return tracers


def _kind_count(tracer, kind):
    return sum(1 for record in tracer.records if record.kind == kind)


def small_spec(scheduler, **overrides):
    # Small but non-trivial: one SMP VM (co-scheduling paths) plus a
    # UP VM, on a starved host so scheduling decisions actually bind.
    defaults = dict(sim_time=300, warmup=50)
    defaults.update(overrides)
    return make_spec([2, 1], pcpus=2, scheduler=scheduler, **defaults)


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", list_schedulers())
class TestEverySchedulerBitIdentical:
    def test_plain(self, scheduler):
        # No extra probes: impulse rewards would disable the compiled
        # fast-forward, and this cell is the one that exercises it.
        assert_engines_agree(small_spec(scheduler))

    def test_with_extra_probes(self, scheduler):
        assert_engines_agree(small_spec(scheduler), extra_probes=True)

    def test_over_provisioned(self, scheduler):
        # More PCPUs than a VM's siblings keep busy: VCPUs sit READY on
        # their PCPUs at barriers, the spans the fast-forward certifies
        # through READY holders.
        spec = make_spec([2, 1, 1], pcpus=4, scheduler=scheduler,
                         sim_time=400, warmup=20)
        for replication in range(3):
            assert_engines_agree(spec, replication=replication, root_seed=3)

    def test_under_decision_guard(self, scheduler):
        assert_engines_agree(
            small_spec(scheduler), guard=GuardPolicy(mode="degrade")
        )

    def test_under_chaos_injection(self, scheduler):
        # Corrupt decisions are absorbed by the degrade-mode guard; the
        # injected faults are deterministic, so all engines see the
        # same sabotage at the same simulated times.
        chaos = ChaosSpec(
            corrupt_replications=(0,),
            corrupt_kind="double_assign",
            inject_after=100.0,
        )
        assert_engines_agree(
            small_spec(scheduler),
            guard=GuardPolicy(mode="degrade", quarantine_after=2),
            chaos=chaos,
        )

    def test_with_pcpu_failures(self, scheduler):
        spec = small_spec(scheduler)
        spec = dataclasses.replace(
            spec, pcpu_failures={"mtbf": 80.0, "mttr": 20.0}
        )
        assert_engines_agree(spec)

    def test_with_degradation(self, scheduler):
        spec = dataclasses.replace(small_spec(scheduler), degradation=DEGRADATION)
        assert_engines_agree(spec)

    def test_with_maintenance(self, scheduler):
        spec = dataclasses.replace(
            small_spec(scheduler), degradation=DEGRADATION, maintenance=MAINTENANCE
        )
        assert_engines_agree(spec)

    def test_with_hv_overhead(self, scheduler):
        spec = dataclasses.replace(small_spec(scheduler), hv_overhead={"cost": 2})
        assert_engines_agree(spec)

    def test_traces_identical(self, scheduler):
        # Event-stream equality subsumes metric equality: the engines
        # must make every intermediate decision identically, not just
        # land on the same aggregates.
        assert_engine_traces_identical(small_spec(scheduler))

    def test_traces_identical_under_faults(self, scheduler):
        spec = dataclasses.replace(
            small_spec(scheduler), pcpu_failures={"mtbf": 80.0, "mttr": 20.0}
        )
        assert_engine_traces_identical(
            spec,
            guard=GuardPolicy(mode="degrade", quarantine_after=2),
            chaos=ChaosSpec(corrupt_replications=(0,), inject_after=100.0),
        )

    def test_traces_identical_under_degradation(self, scheduler):
        # The full health stack at once: Markov degradation, bounded
        # repair crews, and per-world-switch overhead.  The invariant
        # checker runs inside, so crew exclusivity and health/capacity
        # accounting are asserted on every scheduler's trace too.
        spec = dataclasses.replace(
            small_spec(scheduler),
            degradation=DEGRADATION,
            maintenance=MAINTENANCE,
            hv_overhead={"cost": 2},
        )
        assert_engine_traces_identical(spec)


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(
    topology=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    pcpus=st.integers(min_value=1, max_value=4),
    scheduler=st.sampled_from(list_schedulers()),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_specs_bit_identical(topology, pcpus, scheduler, seed):
    spec = make_spec(topology, pcpus=pcpus, scheduler=scheduler,
                     sim_time=200, warmup=20)
    assert_engines_agree(spec, root_seed=seed)


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(
    # A VM of 3+ VCPUs on at most 4 PCPUs runs with some siblings
    # descheduled, so sibling lag moves inside a candidate span and
    # crosses a threshold there — the case rcs's quiet-tick count
    # must stop exactly before.
    topology=st.tuples(
        st.integers(min_value=3, max_value=4),
        st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    ).flatmap(lambda parts: st.permutations([parts[0]] + parts[1])),
    pcpus=st.integers(min_value=1, max_value=4),
    thresholds=st.integers(min_value=1, max_value=12).flatmap(
        lambda skew: st.tuples(st.just(skew), st.integers(min_value=0, max_value=skew - 1))
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rcs_thresholds_bit_identical(topology, pcpus, thresholds, seed):
    skew, relax = thresholds
    spec = make_spec(topology, pcpus=pcpus, scheduler="rcs", sim_time=200,
                     warmup=20, skew_threshold=skew, relax_threshold=relax)
    assert_engines_agree(spec, root_seed=seed)


def test_engine_flag_reaches_the_simulator():
    for engine in ENGINES:
        sim = Simulation(small_spec("rrs"), engine=engine)
        assert sim.simulator.engine == engine
    # No name selects the default, and the default is the compiled engine.
    assert resolve_engine(None) == "compiled"
    assert Simulation(small_spec("rrs")).simulator.engine == resolve_engine(None)


def test_resolve_engine_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        resolve_engine("vectorized")
    with pytest.raises(ConfigurationError):
        simulate_once(small_spec("rrs"), engine="vectorized")


# -- compiled-engine specifics: clock-tick fast-forward -----------------------


def _compiled_stats(spec, fast_forward=True, **kwargs):
    sim = Simulation(spec, root_seed=7, engine="compiled", **kwargs)
    sim.simulator.fast_forward = fast_forward
    result = sim.run()
    return result, sim.simulator.stats()


def _figure8_point(scheduler, pcpus):
    base, _points = figure8_sweep((scheduler,), (pcpus,), sim_time=300, warmup=50)
    return base


# Specs on which the compiled engine must fast-forward: the
# tick_skip_safe default (rrs), rcs's own skew-bounded certificate,
# the health-aware wrapper delegating to it on a pristine host, and
# the paper's Figure-8 rcs points at both ends of its PCPU range.
FF_SPECS = {
    "rrs": lambda: small_spec("rrs"),
    "rcs": lambda: small_spec("rcs"),
    "health_aware-rcs": lambda: small_spec("health_aware", inner="rcs"),
    "fig8-rcs-1pcpu": lambda: _figure8_point("rcs", 1),
    "fig8-rcs-4pcpu": lambda: _figure8_point("rcs", 4),
}


def test_fast_forward_skips_ticks_and_counts_them():
    for spec_id, build in FF_SPECS.items():
        spec = build()
        result_on, stats_on = _compiled_stats(spec)
        result_off, stats_off = _compiled_stats(spec, fast_forward=False)
        # The ablation must not change a single bit of the outcome...
        assert result_on.metrics == result_off.metrics, spec_id
        assert result_on.completions == result_off.completions, spec_id
        # ...only how many clock ticks were individually dispatched.
        assert stats_off["ticks_fast_forwarded"] == 0, spec_id
        assert stats_on["ticks_fast_forwarded"] > 0, spec_id
        assert (
            stats_on["ticks_fired"] + stats_on["ticks_fast_forwarded"]
            == stats_off["ticks_fired"]
        ), spec_id


@pytest.mark.parametrize("spec_id", ["rcs", "fig8-rcs-1pcpu"])
def test_traced_rcs_fast_forwards_and_keeps_its_skew_records(spec_id):
    # A tracer does not switch fast-forward off: rcs replays the
    # skipped ticks' sched.skew records, so the normalized stream (and
    # the skew-bound invariant inside check_trace) sees every tick.
    tracers = assert_engine_traces_identical(FF_SPECS[spec_id]())
    skews = _kind_count(tracers["rescan"], "sched.skew")
    assert skews > 0
    for engine in FAST_ENGINES:
        assert _kind_count(tracers[engine], "engine.fastforward") > 0, engine
        assert _kind_count(tracers[engine], "sched.skew") == skews, engine


def test_fifo_refuses_ready_holder_spans():
    # FIFO releases a READY holder on the next tick; certifying such a
    # span would skip that release and diverge from rescan.
    spec = make_spec([2, 1, 1], pcpus=4, scheduler="fifo", sim_time=400,
                     warmup=20)
    for replication in range(3):
        assert_engines_agree(spec, replication=replication, root_seed=3)


@pytest.mark.parametrize("scheduler", ["rrs", "scs", "rcs"])
def test_ready_holder_spans_fast_forward(scheduler):
    # Sync every job on an over-provisioned host: some VCPU always
    # holds its PCPU READY at the barrier, which used to refuse every
    # span (0 ticks skipped).  READY holders only burn their timeslice.
    spec = make_spec([2, 1, 1], pcpus=4, scheduler=scheduler, sync_ratio=1,
                     sim_time=300, warmup=50)
    _result, stats = _compiled_stats(spec)
    assert stats["ticks_fast_forwarded"] > 0
    assert_engines_agree(spec)


def test_fast_forward_off_for_unsafe_schedulers():
    # sedf does per-tick deadline bookkeeping, so it never certifies a skip.
    _result, stats = _compiled_stats(small_spec("sedf"))
    assert stats["ticks_fast_forwarded"] == 0


def test_fast_forward_off_under_guard_and_chaos():
    # Wrappers hide the algorithm's tick_skip_safe flag by design: a
    # guarded or sabotaged scheduler must be consulted every tick.
    _result, stats = _compiled_stats(
        small_spec("rrs"), guard=GuardPolicy(mode="degrade")
    )
    assert stats["ticks_fast_forwarded"] == 0


def test_fast_forward_ablation_exact_under_degradation():
    # Degraded health disables the certificate (capacity withholding
    # changes per-tick arithmetic), but spans where every PCPU is still
    # pristine may legally skip.  Either way the ablation is exact.
    spec = dataclasses.replace(
        small_spec("rrs"),
        degradation=DEGRADATION,
        maintenance=MAINTENANCE,
        hv_overhead={"cost": 2},
    )
    result_on, stats_on = _compiled_stats(spec)
    result_off, stats_off = _compiled_stats(spec, fast_forward=False)
    assert result_on.metrics == result_off.metrics
    assert result_on.completions == result_off.completions
    assert stats_off["ticks_fast_forwarded"] == 0
    assert (
        stats_on["ticks_fired"] + stats_on["ticks_fast_forwarded"]
        == stats_off["ticks_fired"]
    )


def test_fast_forward_off_with_impulse_rewards():
    # Impulse rewards observe individual completions, which a skipped
    # span would never report; the engine must notice and stay exact.
    _result, stats = _compiled_stats(small_spec("rrs"), extra_probes=True)
    assert stats["ticks_fast_forwarded"] == 0


# -- floor groups: one task, a simulate_once loop over one model -------------


def _serial_compiled(spec, replications):
    return [
        simulate_once(spec, replication=rep, root_seed=7, engine="compiled")
        for rep in replications
    ]


def _floor_group(spec, replications):
    """Run ``replications`` as one grouped batch-engine floor task, as a
    worker does."""
    payload = _execute_task(_Task(
        spec=spec, replications=tuple(replications), attempt=0, root_seed=7,
        extra_probes=False, guard=None, chaos=None, engine="batch", reuse=True,
    ))
    assert payload["ok"], payload
    return payload["runs"]


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", list_schedulers())
def test_floor_group_matches_simulate_once(scheduler):
    spec = small_spec(scheduler)
    replications = list(range(5))
    runs = _floor_group(spec, replications)
    want = _serial_compiled(spec, replications)
    assert [run["metrics"] for run in runs] == [w.metrics for w in want]
    assert [run["completions"] for run in runs] == [w.completions for w in want]
    assert [run["degraded"] for run in runs] == [w.degraded for w in want]
    assert [run["failures"] for run in runs] == [[] for _ in want]


def test_floor_group_builds_one_model(monkeypatch):
    # A group's members check the same model out of the cache in turn:
    # three 8-groups of this Figure-8 spec build it once.
    from repro.core import framework

    spec = make_spec([2, 1, 1], pcpus=2, sim_time=300, warmup=50)
    registered = []
    original = framework._cache_register

    def counting(key, entry):
        registered.append(key)
        original(key, entry)

    clear_model_cache()
    monkeypatch.setattr(framework, "_cache_register", counting)
    runs = []
    for start in (0, 8, 16):
        runs.extend(_floor_group(spec, range(start, start + 8)))
    clear_model_cache()
    assert len(registered) == 1
    assert [run["metrics"] for run in runs] == [
        w.metrics for w in _serial_compiled(spec, range(24))
    ]


def test_batch_engine_single_run_equals_compiled_trace_for_trace():
    # One lane through the batch driver is the degenerate case: its raw
    # trace must normalize to the compiled engine's.
    tracer_batch = _traced(small_spec("rrs"), "batch")
    tracer_compiled = _traced(small_spec("rrs"), "compiled")
    assert golden.normalize(tracer_batch.records) == golden.normalize(
        tracer_compiled.records
    )


# -- cross-replication model reuse --------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_reuse_is_bit_identical_to_fresh_builds(engine):
    spec = small_spec("scs")
    clear_model_cache()
    fresh = [
        simulate_once(spec, replication=rep, root_seed=7, engine=engine)
        for rep in range(3)
    ]
    clear_model_cache()
    reused = [
        simulate_once(spec, replication=rep, root_seed=7, engine=engine, reuse=True)
        for rep in range(3)
    ]
    clear_model_cache()
    for fresh_run, reused_run in zip(fresh, reused):
        assert fresh_run.metrics == reused_run.metrics
        assert fresh_run.completions == reused_run.completions


def test_reuse_shares_one_model_per_spec():
    from repro.core import framework

    spec = small_spec("rrs")
    clear_model_cache()
    first = Simulation(spec, replication=0, engine="compiled", reuse=True)
    first.run()
    second = Simulation(spec, replication=1, engine="compiled", reuse=True)
    assert second.simulator is first.simulator
    assert second.system is first.system
    second.run()
    assert len(framework._MODEL_CACHE) == 1
    clear_model_cache()


def test_reuse_reseeds_captured_streams_in_place():
    # The VM builder closures capture stream objects at construction;
    # reuse must re-arm those same objects (a fresh factory would split
    # the closure's stream from the simulator's).
    spec = small_spec("rrs")
    clear_model_cache()
    sim = Simulation(spec, replication=0, engine="compiled", reuse=True)
    for key, rng in sim.system.stream_bindings:
        assert sim.streams.stream(key) is rng
    sim.run()
    again = Simulation(spec, replication=1, engine="compiled", reuse=True)
    for key, rng in again.system.stream_bindings:
        assert again.streams.stream(key) is rng
    again.run()
    clear_model_cache()


def test_wide_system_builds_and_engines_agree():
    # 128 one-VCPU VMs: the system-wide availability reward sums 128
    # counts.  Its generated source once nested one paren pair per term,
    # and no system past 97 VCPUs could be built on any engine.
    spec = dataclasses.replace(
        make_spec([1] * 128, pcpus=8, sim_time=10, warmup=2),
        vm_slots=128,
        scheduler_slots=128,
    )
    rescan = simulate_once(spec, root_seed=7, engine="rescan")
    compiled = simulate_once(spec, root_seed=7, engine="compiled")
    assert compiled.metrics == rescan.metrics
    assert compiled.completions == rescan.completions > 0
