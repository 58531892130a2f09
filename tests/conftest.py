"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import SystemSpec, VMSpec, WorkloadSpec
from repro.des import StreamFactory


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden-trace fixtures in tests/golden/fixtures "
        "instead of comparing against them (review the diff like code)",
    )


@pytest.fixture
def executions(monkeypatch):
    """The replication indices run in-process from here on (the task
    loop looks ``simulate_once`` up on its module per call)."""
    from repro.core import framework

    calls = []
    original = framework.simulate_once

    def counted(*args, **kwargs):
        calls.append(kwargs["replication"])
        return original(*args, **kwargs)

    monkeypatch.setattr(framework, "simulate_once", counted)
    return calls


@pytest.fixture
def rng():
    """A deterministic random stream for sampling tests."""
    return random.Random(12345)


@pytest.fixture
def streams():
    """A deterministic stream factory (root seed 7, replication 0)."""
    return StreamFactory(root_seed=7, replication=0)


@pytest.fixture
def paper_fig8_spec():
    """The paper's Figure 8 setup: VMs 2+1+1, sync 1:5 (PCPUs vary)."""
    return SystemSpec(
        vms=[VMSpec(2), VMSpec(1), VMSpec(1)],
        pcpus=2,
        scheduler="rrs",
        sim_time=600,
        warmup=100,
    )


@pytest.fixture
def small_spec():
    """A tiny 2-VM system for fast end-to-end tests."""
    return SystemSpec(
        vms=[VMSpec(2), VMSpec(1)],
        pcpus=2,
        scheduler="rrs",
        sim_time=300,
        warmup=50,
    )


def make_spec(topology, pcpus, scheduler="rrs", sync_ratio=5, sim_time=600,
              warmup=100, **scheduler_params):
    """Helper used across integration tests to build specs tersely."""
    return SystemSpec(
        vms=[VMSpec(n, WorkloadSpec(sync_ratio=sync_ratio)) for n in topology],
        pcpus=pcpus,
        scheduler=scheduler,
        scheduler_params=scheduler_params,
        sim_time=sim_time,
        warmup=warmup,
    )


def build_lane(spec, replication, root_seed, engine="batch"):
    """One replication of ``spec`` as a bare ``build_simulator`` simulator.

    The model is built the way :class:`~repro.core.framework.Simulation`
    builds it, with the standard rewards attached.  Returns
    ``(simulator, rewards)``.
    """
    from repro.core.framework import _build_model
    from repro.core.registry import create_scheduler
    from repro.metrics.rewards import standard_rewards
    from repro.san import build_simulator

    streams = StreamFactory(root_seed=root_seed, replication=replication)
    algorithm = create_scheduler(spec.scheduler, **spec.scheduler_params)
    system = _build_model(spec, algorithm, streams)
    simulator = build_simulator(system, streams, engine=engine)
    rewards = standard_rewards(system, warmup=spec.warmup)
    for reward in rewards.values():
        simulator.add_reward(reward)
    return simulator, rewards
