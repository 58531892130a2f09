"""Differential tests: the two enablement engines must agree bit-for-bit.

The compiled engine (the default) caches verdicts over a model lowered
to flat arrays and fast-forwards idle clock ticks; the rescan engine
re-evaluates everything every step and is the semantic reference.  For
a fixed ``(root_seed, replication)`` both must be *bit-for-bit*
identical — same metrics, same completion count —
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
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.framework import Simulation, clear_model_cache, simulate_once
from repro.core.registry import list_schedulers
from repro.errors import ConfigurationError
from repro.observability import SimTracer, check_trace, golden, tracing
from repro.paper import figure8_sweep
from repro.resilience import ChaosSpec, GuardPolicy, ResilienceConfig
from repro.resilience.executor import _execute_task, _Task
from repro.san import ENGINES, BatchCompiledSANSimulator, resolve_engine

from ..conftest import build_lane, make_spec
from ..service.conftest import SMALL_SPEC, run, running_server, small_payload

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


def test_every_spec_surface_rejects_batch(tmp_path, capsys):
    # "batch" builds SAN-level lanes only; every surface that takes a
    # spec rejects it with the normal unknown-engine error.
    assert ENGINES == ("rescan", "compiled")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SMALL_SPEC))
    with pytest.raises(ConfigurationError, match="unknown enablement engine"):
        Simulation(small_spec("rrs"), engine="batch")
    with pytest.raises(ConfigurationError, match="unknown engine 'batch'"):
        ResilienceConfig(engine="batch").validate()
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--spec", str(spec_file), "--engine", "batch"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'batch'" in capsys.readouterr().err

    async def submit():
        async with running_server() as (_, client):
            return await client.submit(small_payload(engine="batch"))

    status, response = run(submit())
    assert status == 400
    assert response["error"] == "ServiceError"
    assert "unknown engine 'batch'" in response["message"]


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


def test_guard_fast_forwards_like_unguarded_and_chaos_does_not():
    # A fault-free guarded run skips exactly the ticks an unguarded one
    # does: a certified-quiet tick makes no call that could fault.  A
    # chaos wrapper hides the algorithm's certificate by design, so a
    # sabotaged scheduler is consulted every tick.
    spec = small_spec("rrs")
    plain, plain_stats = _compiled_stats(spec)
    assert plain_stats["ticks_fast_forwarded"] > 0
    for guard in (GuardPolicy(), GuardPolicy(mode="degrade")):
        result, stats = _compiled_stats(spec, guard=guard)
        assert (result.metrics, result.completions) == (
            plain.metrics, plain.completions
        )
        assert not result.failures and not result.degraded
        for counter in ("ticks_fired", "ticks_fast_forwarded", "consumers_applied"):
            assert stats[counter] == plain_stats[counter], counter
    chaos = ChaosSpec(corrupt_replications=(0,), inject_after=100.0)
    sim = Simulation(spec, root_seed=7, guard=GuardPolicy(mode="degrade"),
                     chaos=chaos, profile=True)
    sim.run()
    stats = sim.stats()
    assert stats["ticks_fast_forwarded"] == 0
    assert "vmm.quiet_ticks_skipped" not in stats["profile"]["counters"]


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


# -- compiled-engine specifics: executed-tick shortcuts -----------------------
#
# On an executed tick the compiled engine applies certified tick consumers
# in the Clock's fan-out and skips certified-quiet algorithm calls; rescan
# and ``fast_forward=False`` fire every activity and call the algorithm
# every tick.  Each case below drives a branch where a slot keeps its
# token or the algorithm must run.


def _three_way(spec, **kwargs):
    """Rescan, compiled and compiled without fast-forward must be ``==``.

    Returns the compiled run's ``Simulation.stats()``, profile included.
    """
    reference = simulate_once(spec, root_seed=7, engine="rescan", **kwargs)
    stats = {}
    for fast_forward in (True, False):
        sim = Simulation(spec, root_seed=7, engine="compiled", profile=True,
                         **kwargs)
        sim.simulator.fast_forward = fast_forward
        result = sim.run()
        assert result.metrics == reference.metrics, fast_forward
        assert result.completions == reference.completions, fast_forward
        assert result.degraded == reference.degraded, fast_forward
        assert len(result.failures) == len(reference.failures), fast_forward
        stats[fast_forward] = sim.stats()
    assert stats[False]["consumers_applied"] == 0
    assert "vmm.quiet_ticks_skipped" not in stats[False]["profile"]["counters"]
    return stats[True]


SHORTCUT_CASES = {
    # FIFO releases a READY holder on the next tick: its gate must run.
    "fifo-ready-holders": (
        lambda: make_spec([2, 1, 1], pcpus=4, scheduler="fifo", sim_time=400,
                          warmup=20),
        {},
    ),
    # Low skew thresholds keep a 3-VCPU VM in catch-up.
    "rcs-catch-up": (
        lambda: make_spec([3, 1], pcpus=2, scheduler="rcs", sim_time=300,
                          warmup=20, skew_threshold=2, relax_threshold=1),
        {},
    ),
    # Degraded cores withhold ticks, debts burn them, repairs idle PCPUs.
    "degradation-maintenance-overhead": (
        lambda: dataclasses.replace(
            small_spec("rrs"), degradation=DEGRADATION, maintenance=MAINTENANCE,
            hv_overhead={"cost": 2},
        ),
        {},
    ),
    # Impulse rewards see every completion: both shortcuts stay off.
    "impulse-reward": (lambda: small_spec("rrs"), {"extra_probes": True}),
}


@pytest.mark.parametrize("case", list(SHORTCUT_CASES))
def test_shortcut_fallbacks_are_exact(case):
    build, kwargs = SHORTCUT_CASES[case]
    stats = _three_way(build(), **kwargs)
    counters = stats["profile"]["counters"]
    if case == "impulse-reward":
        assert stats["consumers_applied"] == 0
        assert "vmm.quiet_ticks_skipped" not in counters
    else:
        assert stats["consumers_applied"] > 0
        assert counters["vmm.quiet_ticks_skipped"] > 0


def test_rcs_catch_up_traces_identically():
    spec = SHORTCUT_CASES["rcs-catch-up"][0]()
    tracers = assert_engine_traces_identical(spec)
    skews = [r for r in tracers["rescan"].records if r.kind == "sched.skew"]
    assert any(r.data["catching_up"] for r in skews)
    assert _kind_count(tracers["compiled"], "engine.direct") > 0


def test_spinning_critical_sections_are_exact():
    # Critical jobs contend for their VM's lock on a 4-PCPU host: spinning
    # siblings and lock holders keep their tick tokens.
    from repro.des import StreamFactory, UniformInt
    from repro.metrics import mean_spin_fraction, standard_rewards
    from repro.san import CompiledSANSimulator, SANSimulator
    from repro.schedulers import RoundRobinScheduler
    from repro.vmm import build_virtual_system
    from repro.workloads import LockingWorkloadModel

    def run(factory):
        streams = StreamFactory(11, 0)
        workloads = [
            LockingWorkloadModel(UniformInt(3, 8), critical_ratio=2,
                                 critical_load=UniformInt(2, 5))
            for _ in (2, 3)
        ]
        system = build_virtual_system(
            list(zip((2, 3), workloads)), RoundRobinScheduler(), 4, streams
        )
        simulator = factory(system, streams)
        rewards = standard_rewards(system, warmup=20)
        rewards["spin"] = mean_spin_fraction(system, warmup=20)
        for reward in rewards.values():
            simulator.add_reward(reward)
        simulator.run(until=400)
        results = {name: reward.result() for name, reward in rewards.items()}
        return (results, simulator.completions), simulator

    reference, _ = run(SANSimulator)
    assert reference[0]["spin"] > 0
    compiled, simulator = run(CompiledSANSimulator)
    assert compiled == reference
    assert simulator.consumers_applied > 0
    ablated, simulator = run(
        lambda system, streams: CompiledSANSimulator(system, streams,
                                                     fast_forward=False)
    )
    assert ablated == reference
    assert simulator.consumers_applied == 0


@pytest.mark.parametrize("spec_id", ["rrs", "rcs", "degraded"])
def test_traced_and_untraced_compiled_runs_are_equal(spec_id):
    spec = make_spec([2, 1, 1], pcpus=2, scheduler="rcs" if spec_id == "rcs" else "rrs",
                     sim_time=300, warmup=50)
    if spec_id == "degraded":
        spec = dataclasses.replace(spec, degradation=DEGRADATION,
                                   maintenance=MAINTENANCE, hv_overhead={"cost": 2})
    tracer = SimTracer()
    traced = simulate_once(spec, root_seed=7, tracer=tracer)
    assert traced == simulate_once(spec, root_seed=7)
    # Every completion is in the trace: fired one by one, applied in a
    # fan-out (engine.direct) or coalesced (engine.fastforward).
    direct = sum(r.data["completions"] for r in tracer.records
                 if r.kind == "engine.direct")
    spans = sum(r.data["completions"] for r in tracer.records
                if r.kind == "engine.fastforward")
    assert direct > 0
    assert _kind_count(tracer, "activity.fire") + direct + spans == traced.completions


def test_executed_ticks_fire_only_uncertified_consumers(monkeypatch):
    # The Fig-8 replication ROADMAP.md measures: VMs 2+1+1 on 2 PCPUs,
    # rrs, 300 ticks.  Before the shortcuts it fired 535 activities over
    # 63 executed ticks (8.5 per tick).
    import collections

    from repro.san import CompiledSANSimulator

    spec = make_spec([2, 1, 1], pcpus=2, sim_time=300, warmup=50)
    fired = collections.Counter()
    complete = CompiledSANSimulator._complete

    def spy(self, activity):
        fired[activity.name] += 1
        return complete(self, activity)

    monkeypatch.setattr(CompiledSANSimulator, "_complete", spy)
    sim = Simulation(spec, root_seed=0, engine="compiled")
    result = sim.run()
    stats = sim.simulator.stats()
    rescan = simulate_once(spec, root_seed=0, engine="rescan")
    assert result.completions == rescan.completions
    assert result.metrics == rescan.metrics
    ticks = stats["ticks_fired"]
    # Every executed tick consumes one tick per VCPU: the fan-out applies
    # it, or a completing load fires Processing_load.
    assert fired["Discard_tick"] == fired["Spin_tick"] == 0
    assert stats["consumers_applied"] + fired["Processing_load"] == 4 * ticks
    # What still fires per tick: Clock, Scheduling_Func, the load
    # completions and the job and scheduling activity they start.
    assert sum(fired.values()) <= 5.5 * ticks


@pytest.mark.parametrize("spec_id", ["rrs", "rcs", "fifo", "degraded", "guarded"])
def test_refusal_reasons_sum_to_executed_ticks(spec_id):
    kwargs = {}
    scheduler = spec_id if spec_id in ("rcs", "fifo") else "rrs"
    spec = make_spec([2, 1, 1], pcpus=2, scheduler=scheduler, sim_time=300,
                     warmup=50)
    if spec_id == "degraded":
        spec = dataclasses.replace(spec, degradation=DEGRADATION,
                                   maintenance=MAINTENANCE, hv_overhead={"cost": 2})
    if spec_id == "guarded":
        kwargs["guard"] = GuardPolicy(mode="degrade")
    sim = Simulation(spec, root_seed=7, profile=True, **kwargs)
    sim.run()
    stats = sim.stats()
    counters = stats["profile"]["counters"]
    refused = {
        name[len("engine.refused."):]: count
        for name, count in counters.items()
        if name.startswith("engine.refused.")
    }
    assert set(refused) <= {
        "bound", "pcpu", "health", "vcpu_state", "debt", "critical",
        "load_completion", "timeslice_expiry", "quiet_ticks",
    }
    assert sum(refused.values()) == counters["engine.ticks_fired"] > 0
    assert counters["engine.consumers_applied"] == stats["consumers_applied"] > 0
    # Each executed tick either calls the algorithm or skips it certified.
    assert (
        counters["vmm.algorithm"] + counters.get("vmm.quiet_ticks_skipped", 0)
        == counters["vmm.scheduling_func"]
        == counters["engine.ticks_fired"]
    )
    if spec_id == "degraded":
        assert refused.get("health", 0) + refused.get("pcpu", 0) > 0


# -- floor groups: one task, a simulate_once loop over one model -------------


def _serial_compiled(spec, replications):
    return [
        simulate_once(spec, replication=rep, root_seed=7, engine="compiled")
        for rep in replications
    ]


def _floor_group(spec, replications):
    """Run ``replications`` as one grouped floor task, as a worker does."""
    payload = _execute_task(_Task(
        spec=spec, replications=tuple(replications), attempt=0, root_seed=7,
        extra_probes=False, guard=None, chaos=None, engine="compiled",
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


def _traced_lane(spec, engine):
    """Replication 0 of ``spec`` on a bare ``build_simulator`` simulator."""
    simulator, _rewards = build_lane(spec, 0, 7, engine=engine)
    tracer = SimTracer()
    with tracing(tracer):
        simulator.run(spec.sim_time)
    return simulator, tracer


def test_batch_engine_single_run_equals_compiled_trace_for_trace():
    # One lane through the lane driver is the degenerate case: its raw
    # trace must normalize to the compiled engine's.
    lane, tracer_batch = _traced_lane(small_spec("rrs"), "batch")
    assert isinstance(lane, BatchCompiledSANSimulator)
    _simulator, tracer_compiled = _traced_lane(small_spec("rrs"), "compiled")
    assert tracer_batch.records
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
