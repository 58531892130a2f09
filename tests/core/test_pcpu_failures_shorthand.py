"""``pcpu_failures`` is shorthand for the two-state health chain.

``{"mtbf": m, "mttr": r}`` on a P-PCPU spec must run exactly as
``degradation={"p": 1.0, "h_max": 1, "mtbe": m}`` plus
``maintenance={"policy": "corrective", "crews": P, "mttr": r}``: the
same metrics, bit for bit, and the same trace, record for record, on
both engines.
"""

import pytest

from repro.core import SystemSpec, VMSpec, simulate_once
from repro.errors import ConfigurationError
from repro.observability import SimTracer, check_trace

PCPUS = 2
MTBF, MTTR = 80.0, 20.0


def spec(scheduler="rrs", **health):
    return SystemSpec(vms=[VMSpec(2), VMSpec(1), VMSpec(1)], pcpus=PCPUS,
                      scheduler=scheduler, sim_time=600, warmup=50, **health)


SHORTHAND = {"pcpu_failures": {"mtbf": MTBF, "mttr": MTTR}}
EXPLICIT = {
    "degradation": {"p": 1.0, "h_max": 1, "mtbe": MTBF},
    "maintenance": {"policy": "corrective", "crews": PCPUS, "mttr": MTTR},
}


def traced_run(system_spec, engine):
    tracer = SimTracer()
    result = simulate_once(system_spec, replication=1, root_seed=5,
                           tracer=tracer, engine=engine)
    return result.metrics, [record.to_dict() for record in tracer.records]


@pytest.mark.parametrize("engine", ["rescan", "compiled"])
@pytest.mark.parametrize("scheduler", ["rrs", "scs", "rcs"])
def test_shorthand_runs_exactly_as_its_explicit_form(scheduler, engine):
    short_metrics, short_records = traced_run(spec(scheduler, **SHORTHAND), engine)
    full_metrics, full_records = traced_run(spec(scheduler, **EXPLICIT), engine)
    assert short_metrics == full_metrics
    assert short_records == full_records
    kinds = [record["kind"] for record in short_records]
    assert kinds.count("pcpu.fail") > 0
    assert kinds.count("pcpu.repair") == kinds.count("pcpu.fail")
    assert check_trace(short_records) == []


def test_spec_keeps_the_shorthand():
    system_spec = spec(**SHORTHAND)
    assert system_spec.to_dict()["pcpu_failures"] == SHORTHAND["pcpu_failures"]
    assert system_spec.to_dict()["degradation"] is None
    models = [m and m.to_dict() for m in system_spec.extension_models()]
    explicit = [m and m.to_dict() for m in spec(**EXPLICIT).extension_models()]
    assert models == explicit
    assert models[0]["h_max"] == 1 and models[1]["crews"] == PCPUS


@pytest.mark.parametrize("health, match", [
    ({"degradation": {"p": 0.5}}, "mutually exclusive"),
    ({"maintenance": {"crews": 1}}, "maintenance requires a degradation"),
    ({"degradation": {"p": 0.5}, "maintenance": {"crews": 1}},
     "mutually exclusive"),
], ids=["with_degradation", "with_maintenance", "with_both"])
def test_shorthand_excludes_explicit_health_fields(health, match):
    with pytest.raises(ConfigurationError, match=match):
        spec(**SHORTHAND, **health).validate()


@pytest.mark.parametrize("failures, match", [
    ({"mtbf": MTBF}, "exactly the keys"),
    ({"mttr": MTTR}, "exactly the keys"),
    ({"mtbf": MTBF, "mttr": MTTR, "crews": 1}, "exactly the keys"),
    ({"mtbf": 0, "mttr": MTTR}, "must be > 0"),
    ({"mtbf": MTBF, "mttr": -1.0}, "must be > 0"),
], ids=["no_mttr", "no_mtbf", "extra_key", "zero_mtbf", "negative_mttr"])
def test_shorthand_keys_are_checked(failures, match):
    with pytest.raises(ConfigurationError, match=match):
        spec(pcpu_failures=failures).validate()
