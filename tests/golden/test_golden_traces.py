"""Golden-trace regression suite: exact-match scheduler behavior pins.

Each case runs one short deterministic replication on a paper-shaped
system, normalizes the scheduler-level trace (see
:mod:`repro.observability.golden`), and compares it record-for-record
against a committed fixture.  Reward-level tests tolerate numeric
wiggle; these do not — any change to dispatch order, tie-breaking,
random-stream consumption, or engine semantics shows up as a fixture
diff.

After an *intentional* behavior change, refresh with::

    PYTHONPATH=src python -m pytest tests/golden -q --regen-golden

and review the fixture diff like code.
"""

from __future__ import annotations

import os

import pytest

from repro.core import simulate_once
from repro.core.registry import list_schedulers
from repro.observability import GOLDEN_KINDS, SimTracer, diff_traces, normalize
from repro.observability.golden import dump_jsonl, load_jsonl
from tests.conftest import make_spec

# CI runs the golden corpus in the slow-marked lane, parallel to tier-1.
pytestmark = pytest.mark.slow

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

ROOT_SEED = 7
SIM_TIME = 48  # short but long enough for expiries and rotation

# (case name, topology, pcpus, sync_ratio, scheduler).  Figure 8's
# starved host for every registered scheduler; Figures 9/10 shapes for
# the paper's three headline algorithms.
CASES = [
    ("fig8", (2, 1, 1), 2, 5, name) for name in sorted(list_schedulers())
] + [
    ("fig9", (2, 3), 4, 5, name) for name in ("rrs", "scs", "rcs")
] + [
    ("fig10", (2, 4), 4, 2, name) for name in ("rrs", "scs", "rcs")
]


def case_id(case):
    shape, topology, pcpus, sync, scheduler = case
    return f"{shape}-{scheduler}"


def fixture_path(case):
    shape, topology, pcpus, sync, scheduler = case
    return os.path.join(FIXTURES, f"{case_id(case)}.jsonl")


def run_case(case):
    shape, topology, pcpus, sync, scheduler = case
    spec = make_spec(topology, pcpus, scheduler=scheduler, sync_ratio=sync,
                     sim_time=SIM_TIME, warmup=0)
    tracer = SimTracer(kinds=GOLDEN_KINDS)
    simulate_once(spec, replication=0, root_seed=ROOT_SEED, tracer=tracer)
    return normalize(tracer.records)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_trace(case, request):
    path = fixture_path(case)
    actual = run_case(case)
    assert actual, f"{case_id(case)} produced an empty scheduler trace"
    if request.config.getoption("--regen-golden"):
        dump_jsonl(path, actual)
        pytest.skip(f"regenerated {os.path.basename(path)}")
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden fixture {path}; generate it with "
            "`pytest tests/golden --regen-golden` and commit the file"
        )
    message = diff_traces(actual, load_jsonl(path))
    assert message is None, (
        f"{case_id(case)}: scheduler behavior drifted from the committed "
        f"golden trace.\n{message}\n"
        "If this change is intentional, refresh the fixtures with "
        "`pytest tests/golden --regen-golden` and review the diff."
    )


def test_no_orphan_fixtures():
    """Every committed fixture corresponds to a live case."""
    expected = {os.path.basename(fixture_path(case)) for case in CASES}
    present = {name for name in os.listdir(FIXTURES) if name.endswith(".jsonl")}
    assert present <= expected, f"orphaned fixtures: {sorted(present - expected)}"
