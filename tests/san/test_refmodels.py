"""IR reference model: four-engine equivalence and the vectorized path."""

import pytest

from repro.des import StreamFactory
from repro.san import (
    InputGate,
    InstantaneousActivity,
    Place,
    SANModel,
    TimedActivity,
    build_simulator,
    run_lanes,
)
from repro.san import exprs as E
from repro.san.refmodels import build_ir_reference_model, reference_rewards

PARAMS = dict(
    topology=(2, 2, 2, 2),
    num_pcpus=2,
    timeslice=3,
    job_size=5,
    arrival_mean=6.0,
    mtbf=60.0,
    mttr=8.0,
)
UNTIL = 150.0
WARMUP = 10.0


def _run_serial(engine, replication):
    model = build_ir_reference_model(**PARAMS)
    rewards = reference_rewards(model, num_pcpus=PARAMS["num_pcpus"], warmup=WARMUP)
    sim = build_simulator(
        model, StreamFactory(root_seed=7, replication=replication), engine=engine
    )
    for reward in rewards:
        sim.add_reward(reward)
    sim.run(UNTIL)
    return _observe(sim, rewards, model)


def _observe(sim, rewards, model):
    return {
        "completions": sim.completions,
        "metrics": {r.name: r.result() for r in rewards},
        "marking": {n: p.tokens for n, p in model.places().items()},
    }


def _run_batch(replications):
    lanes, bound = [], []
    for replication in replications:
        model = build_ir_reference_model(**PARAMS)
        rewards = reference_rewards(
            model, num_pcpus=PARAMS["num_pcpus"], warmup=WARMUP
        )
        sim = build_simulator(
            model, StreamFactory(root_seed=7, replication=replication), engine="batch"
        )
        for reward in rewards:
            sim.add_reward(reward)
        lanes.append(sim)
        bound.append((sim, rewards, model))
    stats = run_lanes(lanes, UNTIL)
    return stats, [_observe(*item) for item in bound]


class TestReferenceModelEquivalence:
    def test_all_engines_bit_identical(self):
        base = [_run_serial("rescan", rep) for rep in range(3)]
        assert [_run_serial("compiled", rep) for rep in range(3)] == base
        stats, got = _run_batch(range(3))
        assert got == base
        assert stats.get("vectorized") == 1

    def test_vector_path_engages_for_ir_model(self):
        stats, _ = _run_batch(range(2))
        assert stats.get("vectorized") == 1
        assert stats["waves"] > 0
        assert stats["lane_steps"] > 0

    def test_replicated_fragments_form_kernel_families(self):
        from repro.san.vector import plan_lanes

        model = build_ir_reference_model(**PARAMS)
        sim = build_simulator(model, StreamFactory(root_seed=7), engine="batch")
        plan = plan_lanes([sim])
        assert plan is not None
        slots = sum(PARAMS["topology"])
        family_sizes = sorted(
            b - a for a, b, pred, fx in plan.units if b - a >= 2
        )
        # Finish/Expire/Dispatch/Quantum/Arrive are G-wide families;
        # Fail/Repair pair up per PCPU, and TakeDown/CancelPair share
        # the two-reads-two-removes shape.  BringUp stays single.
        assert family_sizes == sorted(
            [slots] * 5 + [PARAMS["num_pcpus"]] * 2 + [2]
        )
        for a, b, pred, fx in plan.units:
            assert (pred is None) == (b - a == 1)
            assert (fx is None) == (b - a == 1)

    def test_single_lane_matches_serial(self):
        _, got = _run_batch([5])
        assert got == [_run_serial("compiled", 5)]

    def test_lane_grouping_is_irrelevant(self):
        _, together = _run_batch(range(4))
        split = []
        for replication in range(4):
            _, one = _run_batch([replication])
            split.extend(one)
        assert split == together

    def test_metrics_are_sane(self):
        _, got = _run_batch(range(2))
        for lane in got:
            for name, value in lane["metrics"].items():
                assert 0.0 <= value <= 1.0, (name, value)
            assert lane["completions"] > 0


class TestReferenceModelValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_ir_reference_model(topology=())
        with pytest.raises(ValueError):
            build_ir_reference_model(num_pcpus=0)
        with pytest.raises(ValueError):
            build_ir_reference_model(timeslice=0)
        with pytest.raises(ValueError):
            build_ir_reference_model(job_size=0)

    def test_reward_names(self):
        model = build_ir_reference_model(**PARAMS)
        rewards = reference_rewards(model, num_pcpus=2)
        assert [r.name for r in rewards] == [
            "pcpu_utilization",
            "vcpu_availability",
            "vcpu_utilization",
        ]


def _mixed_model():
    """One IR activity and one closure activity sharing a place."""
    model = SANModel("Mixed")
    source = model.add_place(Place("Source", 0))
    moved = model.add_place(Place("Moved", 0))
    drained = model.add_place(Place("Drained", 0))
    from repro.des.distributions import Deterministic

    model.add_activity(
        TimedActivity(
            "Feed",
            Deterministic(1.0),
            input_gates=[
                InputGate("Always", expr=E.TRUE, effect=E.effects(E.add(source)))
            ],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "MoveIR",
            priority=0,
            input_gates=[
                InputGate(
                    "HasTwo",
                    expr=E.tokens(source) > 1,
                    effect=E.effects(E.remove(source, 2), E.add(moved)),
                )
            ],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "DrainClosure",
            priority=1,
            input_gates=[
                InputGate(
                    "ManyMoved",
                    lambda: moved.tokens >= 3,
                    lambda: (moved.remove(3), drained.add()),
                )
            ],
        )
    )
    return model


class TestMixedIRAndClosure:
    def test_three_engines_agree_on_mixed_model(self):
        results = {}
        for engine in ("rescan", "compiled"):
            model = _mixed_model()
            sim = build_simulator(
                model, StreamFactory(root_seed=3, replication=0), engine=engine
            )
            sim.run(50.0)
            results[engine] = {
                "completions": sim.completions,
                "marking": {n: p.tokens for n, p in model.places().items()},
            }
        assert results["compiled"] == results["rescan"]
        model = _mixed_model()
        lane = build_simulator(
            model, StreamFactory(root_seed=3, replication=0), engine="batch"
        )
        stats = run_lanes([lane], 50.0)
        # The closure gate keeps the model off the vectorized kernels.
        assert stats["vectorized"] == 0
        assert {
            "completions": lane.completions,
            "marking": {n: p.tokens for n, p in model.places().items()},
        } == results["rescan"]


class TestPerSimulatorCounters:
    def test_counters_attribute_to_each_lane(self):
        lanes = []
        for replication in range(2):
            model = build_ir_reference_model(**PARAMS)
            lanes.append(
                build_simulator(
                    model,
                    StreamFactory(root_seed=7, replication=replication),
                    engine="batch",
                )
            )
        run_lanes(lanes, 50.0)
        for lane in lanes:
            assert lane.gate_evaluations > 0
            assert lane.stats()["gate_evaluations"] == lane.gate_evaluations

    def test_serial_engines_report_same_counts(self):
        counts = {}
        for engine in ("rescan", "compiled"):
            model = build_ir_reference_model(**PARAMS)
            sim = build_simulator(
                model, StreamFactory(root_seed=7, replication=0), engine=engine
            )
            sim.run(30.0)
            counts[engine] = sim.gate_evaluations
            assert sim.gate_evaluations > 0
        # The lazy engine never evaluates more than the rescan engine.
        assert counts["compiled"] <= counts["rescan"]

    def test_reset_zeroes_counter(self):
        model = build_ir_reference_model(**PARAMS)
        sim = build_simulator(
            model, StreamFactory(root_seed=7, replication=0), engine="compiled"
        )
        sim.run(20.0)
        assert sim.gate_evaluations > 0
        sim.reset()
        assert sim.gate_evaluations == 0

