"""Unit tests for the SAN-level lane protocol.

``build_simulator(model, streams, engine="batch")`` builds a compiled
lane; this file covers the lane driver itself:
:func:`repro.san.run_lanes` on models the vector planner refuses
(serial compiled, lane by lane), :func:`repro.san.place_matrix`
snapshots, and the error paths.  The lanes here carry the paper's VMM
model, built the way :class:`~repro.core.framework.Simulation` builds
it.
"""

import numpy
import pytest

from repro.core.framework import Simulation
from repro.errors import ConfigurationError, SimulationError
from repro.san import BatchCompiledSANSimulator, place_matrix, run_lanes

from ..conftest import build_lane, make_spec


def _spec(scheduler="rrs", **overrides):
    defaults = dict(sim_time=200, warmup=20)
    defaults.update(overrides)
    return make_spec([2, 1], pcpus=2, scheduler=scheduler, **defaults)


def _lanes(replications, spec=None, root_seed=7):
    """``(rewards per lane, lanes)`` for ``replications`` of ``spec``."""
    spec = spec if spec is not None else _spec()
    built = [build_lane(spec, rep, root_seed) for rep in replications]
    return [rewards for _lane, rewards in built], [lane for lane, _ in built]


def _metrics(rewards):
    """A lane's reward values after ``run_lanes`` advanced it."""
    return {name: reward.result() for name, reward in rewards.items()}


class TestRunLanes:
    def test_lane_results_match_independent_runs(self):
        spec = _spec()
        rewards, lanes = _lanes(range(3), spec)
        run_lanes(lanes, spec.sim_time)
        for rep, (lane_rewards, lane) in enumerate(zip(rewards, lanes)):
            solo = Simulation(spec, replication=rep, root_seed=7, engine="compiled")
            reference = solo.run()
            assert _metrics(lane_rewards) == reference.metrics
            assert lane.completions == reference.completions

    @pytest.mark.parametrize("scheduler", ["rrs", "rcs"])
    def test_closure_gate_lanes_run_as_serial_compiled(self, scheduler):
        # The VMM model's extended-place gates and procedural output
        # gates keep it off the vectorized kernels; every lane must then
        # be its standalone compiled run, engine counters included, not
        # only its metrics.
        spec = _spec(scheduler)
        rewards, lanes = _lanes(range(3), spec)
        stats = run_lanes(lanes, spec.sim_time)
        assert stats["vectorized"] == 0
        for rep, (lane_rewards, lane) in enumerate(zip(rewards, lanes)):
            solo = Simulation(spec, replication=rep, root_seed=7, engine="compiled")
            reference = solo.run()
            want = solo.simulator.stats()
            got = lane.stats()
            assert (got.pop("engine"), want.pop("engine")) == ("batch", "compiled")
            assert got == want
            assert _metrics(lane_rewards) == reference.metrics

    def test_empty_lane_list_is_a_noop(self):
        stats = run_lanes([], 100.0)
        assert stats["waves"] == 0
        assert stats["lane_steps"] == 0

    def test_all_lanes_reach_until(self):
        spec = _spec()
        _rewards, lanes = _lanes(range(3), spec)
        run_lanes(lanes, spec.sim_time)
        for lane in lanes:
            assert lane.clock.now == spec.sim_time

    def test_rejects_running_backwards(self):
        spec = _spec()
        _rewards, lanes = _lanes(range(2), spec)
        run_lanes(lanes, spec.sim_time)
        with pytest.raises(SimulationError):
            run_lanes(lanes, spec.sim_time / 2)

    def test_engine_name(self):
        _rewards, lanes = _lanes(range(1))
        assert isinstance(lanes[0], BatchCompiledSANSimulator)
        assert lanes[0].engine == "batch"


class TestPlaceMatrix:
    def test_shape_and_dtype(self):
        spec = _spec()
        _rewards, lanes = _lanes(range(3), spec)
        matrix = place_matrix(lanes)
        assert matrix.dtype == numpy.int64
        assert matrix.shape[0] == 3
        assert matrix.shape[1] > 0
        # Same spec, same initial marking: identical rows before any run.
        assert (matrix == matrix[0]).all()

    def test_rows_diverge_with_replication_streams(self):
        spec = _spec("rcs")
        _rewards, lanes = _lanes(range(2), spec)
        run_lanes(lanes, spec.sim_time)
        matrix = place_matrix(lanes)
        # Different RNG streams: final markings are (overwhelmingly)
        # different somewhere, and each row matches its own lane.
        for row, lane in enumerate(matrix):
            places = lanes[row].model.places()
            total = sum(
                place.tokens
                for place in places.values()
                if hasattr(place, "tokens")
            )
            assert int(lane.sum()) == total

    def test_empty_input(self):
        assert place_matrix([]).shape == (0, 0)

    def test_mismatched_lanes_rejected(self):
        _rewards_a, lanes_a = _lanes(range(1), _spec())
        _rewards_b, lanes_b = _lanes(range(1), make_spec([1], pcpus=1, sim_time=200,
                                                      warmup=20))
        with pytest.raises(ConfigurationError):
            place_matrix([lanes_a[0], lanes_b[0]])
