"""Tests for the analytical CTMC solver, including closed-form checks
and simulator-vs-analytic fidelity validation (the paper's §V ask).
"""

import pytest

from repro.des import Deterministic, Exponential, StreamFactory
from repro.errors import ModelError
from repro.san import (
    Case,
    CTMCSolver,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    RateReward,
    SANModel,
    SANSimulator,
    TimedActivity,
)


def on_off_model(rate_up=2.0, rate_down=1.0):
    """Two-state process: OFF -(rate_up)-> ON -(rate_down)-> OFF."""
    m = SANModel("onoff")
    on = m.add_place(Place("on"))
    m.add_activity(
        TimedActivity(
            "turn_on",
            Exponential(rate_up),
            input_gates=[InputGate("is_off", lambda: on.tokens == 0)],
            output_gates=[OutputGate("set_on", on.add)],
        )
    )
    m.add_activity(
        TimedActivity(
            "turn_off",
            Exponential(rate_down),
            input_gates=[InputGate("is_on", lambda: on.tokens == 1)],
            output_gates=[OutputGate("set_off", on.remove)],
        )
    )
    return m, on


def mm1k_model(arrival=1.0, service=1.5, capacity=5):
    """M/M/1/K queue: arrivals blocked at capacity."""
    m = SANModel("mm1k")
    queue = m.add_place(Place("queue"))
    m.add_activity(
        TimedActivity(
            "arrive",
            Exponential(arrival),
            input_gates=[InputGate("space", lambda: queue.tokens < capacity)],
            output_gates=[OutputGate("enqueue", queue.add)],
        )
    )
    m.add_activity(
        TimedActivity(
            "serve",
            Exponential(service),
            input_gates=[InputGate("work", lambda: queue.tokens > 0)],
            output_gates=[OutputGate("dequeue", queue.remove)],
        )
    )
    return m, queue


class TestOnOff:
    def test_state_space(self):
        model, _ = on_off_model()
        solver = CTMCSolver(model)
        assert solver.explore() == 2

    def test_closed_form_availability(self):
        # pi_on = rate_up / (rate_up + rate_down)
        model, on = on_off_model(rate_up=2.0, rate_down=1.0)
        solver = CTMCSolver(model)
        solver.explore()
        availability = solver.expected_reward(lambda: float(on.tokens))
        assert availability == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_state_probability(self):
        model, on = on_off_model(rate_up=1.0, rate_down=1.0)
        solver = CTMCSolver(model)
        solver.explore()
        assert solver.state_probability(lambda: on.tokens == 1) == pytest.approx(0.5)

    def test_steady_state_is_read_only(self):
        # The returned array is the cache expected_reward reads, so a
        # caller's in-place write must not reach later expectations.
        model, on = on_off_model(rate_up=2.0, rate_down=1.0)
        solver = CTMCSolver(model)
        solver.explore()
        before = solver.expected_reward(lambda: float(on.tokens))
        pi = solver.steady_state()
        with pytest.raises(ValueError):
            pi /= 2
        assert solver.steady_state() is pi
        assert solver.expected_reward(lambda: float(on.tokens)) == before


class TestMM1K:
    def closed_form_mean(self, lam, mu, k):
        rho = lam / mu
        probs = [rho**n for n in range(k + 1)]
        total = sum(probs)
        return sum(n * p for n, p in enumerate(probs)) / total

    def test_state_space_size(self):
        model, _ = mm1k_model(capacity=5)
        solver = CTMCSolver(model)
        assert solver.explore() == 6  # 0..5 jobs

    @pytest.mark.parametrize("lam,mu,k", [(1.0, 1.5, 5), (2.0, 1.0, 4), (1.0, 1.0, 3)])
    def test_mean_queue_length_matches_closed_form(self, lam, mu, k):
        model, queue = mm1k_model(lam, mu, k)
        solver = CTMCSolver(model)
        solver.explore()
        mean = solver.expected_reward(lambda: float(queue.tokens))
        assert mean == pytest.approx(self.closed_form_mean(lam, mu, k), abs=1e-10)


class TestSimulatorFidelity:
    """The §V fidelity check: simulation must agree with exact numbers."""

    def test_simulation_matches_ctmc_on_mm1k(self):
        model, queue = mm1k_model(1.0, 1.5, 5)
        solver = CTMCSolver(model)
        solver.explore()
        exact = solver.expected_reward(lambda: float(queue.tokens))

        model2, queue2 = mm1k_model(1.0, 1.5, 5)
        sim = SANSimulator(model2, StreamFactory(17))
        reward = sim.add_reward(
            RateReward("qlen", lambda: float(queue2.tokens), warmup=500)
        )
        sim.run(until=60_000)
        assert reward.time_average() == pytest.approx(exact, abs=0.05)

    def test_simulation_matches_ctmc_on_onoff(self):
        model, on = on_off_model(3.0, 1.0)
        solver = CTMCSolver(model)
        solver.explore()
        exact = solver.expected_reward(lambda: float(on.tokens))

        model2, on2 = on_off_model(3.0, 1.0)
        sim = SANSimulator(model2, StreamFactory(23))
        reward = sim.add_reward(RateReward("on", lambda: float(on2.tokens)))
        sim.run(until=50_000)
        assert reward.time_average() == pytest.approx(exact, abs=0.01)


class TestWithInstantaneous:
    def test_vanishing_states_are_eliminated(self):
        # A timed activity deposits into a staging place; an instantaneous
        # activity immediately moves the token onward.  The settled chain
        # must never show a token in staging.
        m = SANModel("pipeline")
        staging = m.add_place(Place("staging"))
        done = m.add_place(Place("done"))
        m.add_activity(
            TimedActivity(
                "produce",
                Exponential(1.0),
                input_gates=[InputGate("empty", lambda: done.tokens == 0)],
                output_gates=[OutputGate("stage", staging.add)],
            )
        )
        m.add_activity(
            TimedActivity(
                "consume",
                Exponential(2.0),
                input_gates=[InputGate("full", lambda: done.tokens == 1, done.remove)],
            )
        )
        m.add_activity(
            InstantaneousActivity(
                "forward",
                input_gates=[InputGate("staged", lambda: staging.tokens > 0, staging.remove)],
                output_gates=[OutputGate("finish", done.add)],
            )
        )
        solver = CTMCSolver(m)
        assert solver.explore() == 2
        probability = solver.state_probability(lambda: staging.tokens > 0)
        assert probability == 0.0


class TestValidation:
    def test_non_exponential_rejected(self):
        m = SANModel("m")
        p = m.add_place(Place("p"))
        m.add_activity(
            TimedActivity(
                "det",
                Deterministic(1.0),
                input_gates=[InputGate("g", lambda: True)],
                output_gates=[OutputGate("o", p.add)],
            )
        )
        with pytest.raises(ModelError, match="exponential"):
            CTMCSolver(m)

    def test_probabilistic_instantaneous_rejected(self):
        m = SANModel("m")
        p = m.add_place(Place("p", 1))
        m.add_activity(
            InstantaneousActivity(
                "branch",
                input_gates=[InputGate("g", lambda: p.tokens > 0)],
                cases=[Case(0.5, []), Case(0.5, [])],
            )
        )
        with pytest.raises(ModelError, match="probabilistic cases"):
            CTMCSolver(m)

    def test_state_space_cap(self):
        model, _ = mm1k_model(capacity=50)
        solver = CTMCSolver(model, max_states=10)
        with pytest.raises(ModelError, match="max_states"):
            solver.explore()

    def test_steady_state_before_explore_rejected(self):
        model, _ = on_off_model()
        with pytest.raises(ModelError, match="explore"):
            CTMCSolver(model).steady_state()

    def test_two_absorbing_states_make_a_singular_generator(self):
        # From the start state one rate-3 activity goes to either of two
        # absorbing states; with no way between them, πQ = 0 plus Σπ = 1
        # has no unique solution and the solve must say so.
        m = SANModel("fork")
        side = m.add_place(Place("side"))  # 0 = undecided, 1 / 2 = absorbed
        m.add_activity(
            TimedActivity(
                "fork",
                Exponential(3.0),
                input_gates=[InputGate("undecided", lambda: side.tokens == 0)],
                cases=[
                    Case(1 / 3, [OutputGate("left", lambda: setattr_tokens(side, 1))]),
                    Case(2 / 3, [OutputGate("right", lambda: setattr_tokens(side, 2))]),
                ],
            )
        )
        solver = CTMCSolver(m)
        assert solver.explore() == 3
        with pytest.raises(ModelError, match="singular generator matrix"):
            solver.steady_state()

    def test_timed_cases_split_rates(self):
        # A rate-3 activity that goes left with p=1/3 and right with
        # p=2/3 must behave like two activities of rates 1 and 2.
        m = SANModel("split")
        side = m.add_place(Place("side"))  # 0 = left, 1 = right
        m.add_activity(
            TimedActivity(
                "flip",
                Exponential(3.0),
                input_gates=[InputGate("always", lambda: True)],
                cases=[
                    Case(1 / 3, [OutputGate("go_left", lambda: setattr_tokens(side, 0))]),
                    Case(2 / 3, [OutputGate("go_right", lambda: setattr_tokens(side, 1))]),
                ],
            )
        )
        solver = CTMCSolver(m)
        solver.explore()
        right = solver.state_probability(lambda: side.tokens == 1)
        assert right == pytest.approx(2 / 3, abs=1e-9)


def setattr_tokens(place, value):
    place.tokens = value
