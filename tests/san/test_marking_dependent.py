"""Tests for marking-dependent exponential rates (Mobius-style).

The flagship check: an M/M/c/K queue built with one service activity
whose rate is ``mu * min(c, queue)`` must match the classic closed
form, both analytically (CTMC) and by simulation.
"""

import math
import random

import pytest

from repro.des import (
    Exponential,
    MarkingDependentExponential,
    StreamFactory,
)
from repro.errors import ConfigurationError
from repro.san import (
    CTMCSolver,
    InputGate,
    OutputGate,
    Place,
    RateReward,
    SANModel,
    SANSimulator,
    TimedActivity,
)


def mmck_model(lam: float, mu: float, servers: int, capacity: int):
    """M/M/c/K: service rate scales with busy servers."""
    m = SANModel("mmck")
    queue = m.add_place(Place("queue"))
    m.add_activity(
        TimedActivity(
            "arrive",
            Exponential(lam),
            input_gates=[InputGate("space", lambda: queue.tokens < capacity)],
            output_gates=[OutputGate("enq", queue.add)],
        )
    )
    m.add_activity(
        TimedActivity(
            "serve",
            MarkingDependentExponential(lambda: mu * min(servers, queue.tokens)),
            input_gates=[InputGate("busy", lambda: queue.tokens > 0)],
            output_gates=[OutputGate("deq", queue.remove)],
            # Marking-dependent rates must resample when the marking
            # changes (Mobius reactivation); without this, a service
            # scheduled at rate mu*1 keeps its long delay after the
            # queue grows, biasing the mean upward.
            reactivation=True,
        )
    )
    return m, queue


def mmck_closed_form_mean(lam, mu, c, k):
    """Mean number in system for M/M/c/K via the birth-death product form."""
    probs = [1.0]
    for n in range(1, k + 1):
        death = mu * min(c, n)
        probs.append(probs[-1] * lam / death)
    total = sum(probs)
    return sum(n * p for n, p in enumerate(probs)) / total


class TestDistribution:
    def test_rate_follows_marking(self):
        level = {"n": 2}
        dist = MarkingDependentExponential(lambda: 0.5 * level["n"])
        assert dist.rate == 1.0
        level["n"] = 4
        assert dist.rate == 2.0
        assert dist.mean() == 0.5

    def test_sampling_uses_current_rate(self):
        rng = random.Random(1)
        dist = MarkingDependentExponential(lambda: 100.0)
        samples = dist.sample_many(rng, 200)
        assert sum(samples) / len(samples) < 0.05  # mean 0.01

    def test_nonpositive_rate_rejected_at_sample_time(self):
        dist = MarkingDependentExponential(lambda: 0.0)
        with pytest.raises(ConfigurationError):
            dist.sample(random.Random(0))

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            MarkingDependentExponential(2.0)


class TestCTMC:
    @pytest.mark.parametrize(
        "lam,mu,c,k", [(2.0, 1.0, 2, 6), (1.0, 1.0, 3, 5), (3.0, 0.5, 4, 8)]
    )
    def test_mmck_matches_closed_form(self, lam, mu, c, k):
        model, queue = mmck_model(lam, mu, c, k)
        solver = CTMCSolver(model)
        assert solver.explore() == k + 1
        mean = solver.expected_reward(lambda: float(queue.tokens))
        assert mean == pytest.approx(mmck_closed_form_mean(lam, mu, c, k), abs=1e-10)


class TestSimulation:
    def test_simulated_mmck_matches_exact(self):
        lam, mu, c, k = 2.0, 1.0, 2, 6
        exact = mmck_closed_form_mean(lam, mu, c, k)
        model, queue = mmck_model(lam, mu, c, k)
        sim = SANSimulator(model, StreamFactory(31))
        reward = sim.add_reward(
            RateReward("n", lambda: float(queue.tokens), warmup=500)
        )
        sim.run(until=60_000)
        assert reward.time_average() == pytest.approx(exact, abs=0.08)

    def test_rate_resampled_on_reenable(self):
        # The simulator aborts/resamples on disable->enable transitions;
        # sanity-check the dynamics don't explode over a long run.
        model, queue = mmck_model(1.0, 2.0, 2, 4)
        sim = SANSimulator(model, StreamFactory(5))
        sim.run(until=10_000)
        assert 0 <= queue.tokens <= 4
        assert math.isfinite(sim.clock.now)
