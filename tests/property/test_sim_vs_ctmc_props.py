"""Property-based fidelity check: simulation vs exact CTMC solution.

Random birth-death chains (M/M/1/K queues with random rates and
capacities) are built as SAN models, solved exactly with
:class:`repro.san.CTMCSolver`, and simulated; the time-averaged queue
length must agree.  This is the §V "evaluate the fidelity of the
model" concern turned into an executable property of the engine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Exponential, StreamFactory
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


def birth_death_model(arrival: float, service: float, capacity: int):
    m = SANModel("bd")
    queue = m.add_place(Place("queue"))
    m.add_activity(
        TimedActivity(
            "arrive",
            Exponential(arrival),
            input_gates=[InputGate("space", lambda: queue.tokens < capacity)],
            output_gates=[OutputGate("enq", queue.add)],
        )
    )
    m.add_activity(
        TimedActivity(
            "serve",
            Exponential(service),
            input_gates=[InputGate("work", lambda: queue.tokens > 0)],
            output_gates=[OutputGate("deq", queue.remove)],
        )
    )
    return m, queue


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)
def test_simulated_mean_matches_exact(arrival, service, capacity, seed):
    model, queue = birth_death_model(arrival, service, capacity)
    solver = CTMCSolver(model)
    assert solver.explore() == capacity + 1
    exact = solver.expected_reward(lambda: float(queue.tokens))

    model2, queue2 = birth_death_model(arrival, service, capacity)
    sim = SANSimulator(model2, StreamFactory(seed))
    reward = sim.add_reward(
        RateReward("qlen", lambda: float(queue2.tokens), warmup=200)
    )
    sim.run(until=20_000)
    measured = reward.time_average()
    # Generous absolute tolerance: one finite run of a slow-mixing chain.
    assert abs(measured - exact) < max(0.15, 0.12 * capacity)


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.integers(min_value=1, max_value=6),
)
def test_blocking_probability_matches_exact(arrival, service, capacity):
    model, queue = birth_death_model(arrival, service, capacity)
    solver = CTMCSolver(model)
    solver.explore()
    exact_block = solver.state_probability(lambda: queue.tokens == capacity)

    model2, queue2 = birth_death_model(arrival, service, capacity)
    sim = SANSimulator(model2, StreamFactory(99))
    reward = sim.add_reward(
        RateReward(
            "blocked",
            lambda: 1.0 if queue2.tokens == capacity else 0.0,
            warmup=200,
        )
    )
    sim.run(until=20_000)
    assert abs(reward.time_average() - exact_block) < 0.1
