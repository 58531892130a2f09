"""Unit tests for the SAN discrete-event simulator semantics."""

import pytest

from repro.des import Deterministic, Exponential, StreamFactory, Uniform
from repro.errors import SimulationError
from repro.san import (
    Case,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    RateReward,
    SANModel,
    SANSimulator,
    TimedActivity,
)


def ticker_model(period=1.0, name="ticker"):
    """A clock that deposits one token in 'count' per firing."""
    m = SANModel(name)
    count = m.add_place(Place("count"))
    m.add_activity(
        InstantaneousActivity("never")  # no gates: must never fire
    )
    m.add_activity(
        TimedActivity(
            "clock",
            Deterministic(period),
            input_gates=[InputGate("always", lambda: True)],
            output_gates=[OutputGate("bump", count.add)],
        )
    )
    return m, count


class TestTimedExecution:
    def test_deterministic_clock_fires_once_per_period(self):
        model, count = ticker_model(period=1.0)
        sim = SANSimulator(model, StreamFactory(1))
        sim.run(until=10)
        # Events at exactly t=10 are excluded (half-open interval).
        assert count.tokens == 9

    def test_run_is_incremental(self):
        model, count = ticker_model()
        sim = SANSimulator(model, StreamFactory(1))
        sim.run(until=3.5)
        assert count.tokens == 3
        sim.run(until=6.5)
        assert count.tokens == 6

    def test_simulator_is_the_rescan_oracle(self):
        model, _ = ticker_model()
        sim = SANSimulator(model, StreamFactory(1))
        sim.run(until=3.5)
        assert sim.engine == "rescan"
        assert sim.stats()["engine"] == "rescan"

    def test_run_backwards_rejected(self):
        model, _ = ticker_model()
        sim = SANSimulator(model, StreamFactory(1))
        sim.run(until=5)
        with pytest.raises(SimulationError):
            sim.run(until=4)

    def test_completions_counted(self):
        model, _ = ticker_model()
        sim = SANSimulator(model, StreamFactory(1))
        sim.run(until=5.5)
        assert sim.completions == 5

    def test_exponential_delays_are_stochastic_but_reproducible(self):
        def build():
            m = SANModel("m")
            count = m.add_place(Place("count"))
            m.add_activity(
                TimedActivity(
                    "arrivals",
                    Exponential(1.0),
                    input_gates=[InputGate("always", lambda: True)],
                    output_gates=[OutputGate("bump", count.add)],
                )
            )
            return m, count

        m1, c1 = build()
        sim1 = SANSimulator(m1, StreamFactory(root_seed=5, replication=0))
        sim1.run(until=100)
        m2, c2 = build()
        sim2 = SANSimulator(m2, StreamFactory(root_seed=5, replication=0))
        sim2.run(until=100)
        assert c1.tokens == c2.tokens  # bit-for-bit reproducible

        m3, c3 = build()
        sim3 = SANSimulator(m3, StreamFactory(root_seed=5, replication=1))
        sim3.run(until=100)
        assert c3.tokens != c1.tokens  # another replication differs


class TestAbortSemantics:
    def build_race_model(self):
        """Two activities race; the fast one disables the slow one."""
        m = SANModel("race")
        armed = m.add_place(Place("armed", initial=1))
        fast_fired = m.add_place(Place("fast_fired"))
        slow_fired = m.add_place(Place("slow_fired"))
        m.add_activity(
            TimedActivity(
                "fast",
                Deterministic(1.0),
                input_gates=[InputGate("f", lambda: armed.tokens > 0, armed.remove)],
                output_gates=[OutputGate("fo", fast_fired.add)],
            )
        )
        m.add_activity(
            TimedActivity(
                "slow",
                Deterministic(5.0),
                input_gates=[InputGate("s", lambda: armed.tokens > 0, armed.remove)],
                output_gates=[OutputGate("so", slow_fired.add)],
            )
        )
        return m, fast_fired, slow_fired

    def test_disabled_pending_activity_is_aborted(self):
        m, fast, slow = self.build_race_model()
        sim = SANSimulator(m, StreamFactory(1))
        sim.run(until=10)
        assert fast.tokens == 1
        assert slow.tokens == 0  # aborted when 'fast' consumed the token

    def test_reenabling_samples_fresh_delay(self):
        # An activity disabled then re-enabled must not remember its old
        # completion time.
        m = SANModel("m")
        gate_open = m.add_place(Place("gate_open", initial=1))
        fired = m.add_place(Place("fired"))
        toggler_fired = m.add_place(Place("toggles"))
        m.add_activity(
            TimedActivity(
                "watched",
                Deterministic(3.0),
                input_gates=[InputGate("w", lambda: gate_open.tokens > 0)],
                output_gates=[OutputGate("wf", fired.add)],
            )
        )
        m.add_activity(
            TimedActivity(
                "toggler",
                Deterministic(2.0),
                input_gates=[
                    InputGate(
                        "t",
                        lambda: toggler_fired.tokens == 0 and gate_open.tokens > 0,
                        gate_open.remove,
                    )
                ],
                output_gates=[OutputGate("tf", toggler_fired.add)],
            )
        )
        # 'watched' arms at t=0 for t=3, but 'toggler' closes the gate at
        # t=2, aborting it.  The gate never reopens, so 'watched' never
        # fires.
        sim = SANSimulator(m, StreamFactory(1))
        sim.run(until=10)
        assert fired.tokens == 0


class TestInstantaneousSemantics:
    def test_instantaneous_settles_before_time_advances(self):
        m = SANModel("m")
        trigger = m.add_place(Place("trigger"))
        reacted = m.add_place(Place("reacted"))
        m.add_activity(
            TimedActivity(
                "clock",
                Deterministic(1.0),
                input_gates=[InputGate("a", lambda: True)],
                output_gates=[OutputGate("o", trigger.add)],
            )
        )
        m.add_activity(
            InstantaneousActivity(
                "react",
                input_gates=[InputGate("r", lambda: trigger.tokens > 0, trigger.remove)],
                output_gates=[OutputGate("ro", reacted.add)],
            )
        )
        sim = SANSimulator(m, StreamFactory(1))
        sim.run(until=4.5)
        assert reacted.tokens == 4
        assert trigger.tokens == 0  # always consumed before the next tick

    def test_priority_order(self):
        m = SANModel("m")
        token = m.add_place(Place("token", initial=1))
        order = []
        for name, prio in [("late", 10), ("early", 0), ("middle", 5)]:
            m.add_activity(
                InstantaneousActivity(
                    name,
                    priority=prio,
                    input_gates=[
                        InputGate(f"g_{name}", lambda: token.tokens > 0)
                    ],
                    output_gates=[
                        OutputGate(
                            f"o_{name}",
                            lambda name=name: order.append(name)
                            or (token.remove() if len(order) == 3 else None),
                        )
                    ],
                )
            )
        sim = SANSimulator(m, StreamFactory(1))
        sim.run(until=1)
        # 'early' keeps firing until... all fire repeatedly; but the FIRST
        # firing must be 'early'.
        assert order[0] == "early"

    def test_livelock_detected(self):
        m = SANModel("m")
        p = m.add_place(Place("p", initial=1))
        m.add_activity(
            InstantaneousActivity(
                "spin",
                input_gates=[InputGate("g", lambda: p.tokens > 0)],
                output_gates=[OutputGate("o", lambda: None)],  # never consumes
            )
        )
        sim = SANSimulator(m, StreamFactory(1), max_instantaneous_chain=100)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(until=1)

    def test_case_selection_in_simulation(self):
        m = SANModel("m")
        fuel = m.add_place(Place("fuel", initial=1000))
        left = m.add_place(Place("left"))
        right = m.add_place(Place("right"))
        m.add_activity(
            InstantaneousActivity(
                "branch",
                input_gates=[InputGate("g", lambda: fuel.tokens > 0, fuel.remove)],
                cases=[
                    Case(0.5, [OutputGate("l", left.add)]),
                    Case(0.5, [OutputGate("r", right.add)]),
                ],
            )
        )
        sim = SANSimulator(m, StreamFactory(3))
        sim.run(until=1)
        assert left.tokens + right.tokens == 1000
        assert 380 < left.tokens < 620  # roughly balanced


class TestRewardsAndReset:
    def test_rate_reward_integrates_piecewise(self):
        model, count = ticker_model()
        sim = SANSimulator(model, StreamFactory(1))
        reward = sim.add_reward(RateReward("tokens", lambda: float(count.tokens)))
        sim.run(until=4)
        # count holds k during (k, k+1]; integral over [0,4) = 0+1+2+3 = 6.
        assert reward.integral == pytest.approx(6.0)
        assert reward.time_average() == pytest.approx(1.5)

    def test_reset_restores_everything(self):
        model, count = ticker_model()
        sim = SANSimulator(model, StreamFactory(1))
        reward = sim.add_reward(RateReward("tokens", lambda: float(count.tokens)))
        sim.run(until=5)
        sim.reset(StreamFactory(1, replication=1))
        assert sim.clock.now == 0.0
        assert count.tokens == 0
        assert sim.completions == 0
        assert reward.integral == 0.0
        sim.run(until=5)
        assert count.tokens == 4

    def test_run_to_quiescence(self):
        m = SANModel("m")
        fuel = m.add_place(Place("fuel", initial=3))
        done = m.add_place(Place("done"))
        m.add_activity(
            TimedActivity(
                "burn",
                Uniform(0.5, 1.5),
                input_gates=[InputGate("g", lambda: fuel.tokens > 0, fuel.remove)],
                output_gates=[OutputGate("o", done.add)],
            )
        )
        sim = SANSimulator(m, StreamFactory(2))
        sim.run_to_quiescence()
        assert done.tokens == 3
        assert fuel.tokens == 0


class TestReactivation:
    def test_reactivating_activity_resamples_each_event(self):
        # A reactivating exponential races a fast deterministic ticker;
        # every tick resamples it.  With a tiny rate it essentially
        # never fires; without reactivation this test still passes, so
        # we assert on the pending-event churn instead: the sampled
        # completion time keeps moving.
        m = SANModel("m")
        fired = m.add_place(Place("fired"))
        ticks = m.add_place(Place("ticks"))
        m.add_activity(
            TimedActivity(
                "ticker",
                Deterministic(1.0),
                input_gates=[InputGate("always", lambda: True)],
                output_gates=[OutputGate("t", ticks.add)],
            )
        )
        m.add_activity(
            TimedActivity(
                "slow",
                Exponential(0.001),
                input_gates=[InputGate("not_fired", lambda: fired.tokens == 0)],
                output_gates=[OutputGate("f", fired.add)],
                reactivation=True,
            )
        )
        sim = SANSimulator(m, StreamFactory(0))
        times = set()
        sim._ensure_started()
        for _ in range(20):
            sim.step()
            pending = sim._pending.get("m.slow")
            if pending is not None:
                times.add(pending.time)
        # Resampling means many distinct scheduled completion times.
        assert len(times) > 10

    def test_non_reactivating_activity_keeps_its_sample(self):
        m = SANModel("m")
        fired = m.add_place(Place("fired"))
        m.add_activity(
            TimedActivity(
                "ticker",
                Deterministic(1.0),
                input_gates=[InputGate("always", lambda: True)],
            )
        )
        m.add_activity(
            TimedActivity(
                "slow",
                Exponential(0.001),
                input_gates=[InputGate("not_fired", lambda: fired.tokens == 0)],
                output_gates=[OutputGate("f", fired.add)],
            )
        )
        sim = SANSimulator(m, StreamFactory(0))
        sim._ensure_started()
        times = set()
        for _ in range(20):
            sim.step()
            pending = sim._pending.get("m.slow")
            if pending is not None:
                times.add(pending.time)
        assert len(times) == 1  # race semantics: the sample survives


class TestCompletionErrors:
    """A raising gate function surfaces as a SimulationError naming it.

    The compiled engine completes single-case activities through a
    prebuilt tuple of gate functions instead of ``Activity.complete``;
    the error a user sees must not depend on the engine.
    """

    @staticmethod
    def one_shot(input_function=None, output_function=None):
        from repro.san import exprs as E

        m = SANModel("one_shot")
        p = m.add_place(Place("p", initial=1))
        q = m.add_place(Place("q"))
        m.add_activity(
            InstantaneousActivity(
                "move",
                input_gates=[
                    InputGate("has_token", expr=E.tokens(p) > 0,
                              function=input_function or p.remove)
                ],
                output_gates=[OutputGate("deposit", output_function or q.add)],
            )
        )
        return m

    @staticmethod
    def boom():
        raise ValueError("boom")

    @pytest.mark.parametrize("engine", ["rescan", "compiled"])
    def test_raising_input_gate_function_names_the_gate(self, engine):
        from repro.san import build_simulator

        sim = build_simulator(self.one_shot(input_function=self.boom),
                              StreamFactory(1), engine=engine)
        with pytest.raises(SimulationError) as info:
            sim.run(until=1)
        assert str(info.value) == "input gate 'has_token' function raised: boom"
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("engine", ["rescan", "compiled"])
    def test_raising_output_gate_function_names_the_gate(self, engine):
        from repro.san import build_simulator

        sim = build_simulator(self.one_shot(output_function=self.boom),
                              StreamFactory(1), engine=engine)
        with pytest.raises(SimulationError) as info:
            sim.run(until=1)
        assert str(info.value) == "output gate 'deposit' function raised: boom"
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("engine", ["rescan", "compiled"])
    def test_simulation_error_from_a_gate_is_not_rewrapped(self, engine):
        from repro.san import build_simulator

        def fail():
            raise SimulationError("model says no")

        sim = build_simulator(self.one_shot(output_function=fail),
                              StreamFactory(1), engine=engine)
        with pytest.raises(SimulationError, match="^model says no$"):
            sim.run(until=1)

    def test_inline_ir_evaluations_are_counted_exactly(self):
        # Every activity of the ticker-with-IR-gates model has exactly one
        # expression gate, so each refresh costs one evaluation; the
        # settle loop's batched counting must add up at the boundary.
        from repro.san import build_simulator
        from repro.san import exprs as E

        m = SANModel("pipeline")
        src = m.add_place(Place("src"))
        mid = m.add_place(Place("mid"))
        dst = m.add_place(Place("dst"))
        m.add_activity(TimedActivity(
            "arrive", Deterministic(1.0),
            input_gates=[InputGate("always", expr=E.TRUE)],
            output_gates=[OutputGate("put", src.add)],
        ))
        m.add_activity(InstantaneousActivity(
            "stage", input_gates=[InputGate("staged", expr=E.tokens(src) > 0,
                                            function=src.remove)],
            output_gates=[OutputGate("to_mid", mid.add)],
        ))
        m.add_activity(InstantaneousActivity(
            "finish", input_gates=[InputGate("ready", expr=E.tokens(mid) > 0,
                                             function=mid.remove)],
            output_gates=[OutputGate("to_dst", dst.add)],
        ))
        sim = build_simulator(m, StreamFactory(1), engine="compiled")
        sim.run(until=5.5)
        first = sim.gate_evaluations
        assert sim.stats()["gate_evaluations"] == first == sim.refreshes
        sim.run(until=10.5)
        assert sim.stats()["gate_evaluations"] == sim.gate_evaluations
        assert sim.gate_evaluations > first
        assert sim.gate_evaluations == sim.refreshes
        assert dst.tokens == 10
