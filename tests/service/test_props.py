"""Property tests of the wire schemas and cross-process key stability."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.observability.trace import from_wire, to_wire
from repro.resilience.result_cache import ResultCache
from repro.service import SimulationPayload

from .conftest import SMALL_SPEC

_FIELD_NAMES = {f.name for f in dataclasses.fields(SimulationPayload)}

#: Valid payload dicts: every field drawn from its legal range.
payloads = st.fixed_dictionaries(
    {"spec": st.just(dict(SMALL_SPEC))},
    optional={
        "tenant": st.text(min_size=1, max_size=12),
        "label": st.none() | st.text(max_size=12),
        "min_replications": st.integers(min_value=2, max_value=5),
        "max_replications": st.integers(min_value=5, max_value=30),
        "confidence": st.floats(min_value=0.5, max_value=0.99),
        "target_half_width": st.floats(min_value=0.01, max_value=2.0),
        "root_seed": st.integers(min_value=0, max_value=2**31),
        "extra_probes": st.booleans(),
        "engine": st.none() | st.sampled_from(["rescan", "compiled"]),
    },
)


class TestPayloadProperties:
    @given(data=payloads)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip_is_identity(self, data):
        payload = SimulationPayload.from_dict(data)
        again = SimulationPayload.from_dict(payload.to_dict())
        assert again == payload
        assert again.to_dict() == payload.to_dict()

    @given(data=payloads, key=st.text(min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_unknown_keys_always_rejected(self, data, key):
        if key in _FIELD_NAMES:
            return
        with pytest.raises(ServiceError, match="unknown payload keys"):
            SimulationPayload.from_dict({**data, key: 1})

    @given(
        confidence=st.one_of(
            st.floats(max_value=0.0), st.floats(min_value=1.0)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_out_of_range_confidence_always_rejected(self, confidence):
        payload = SimulationPayload(spec=dict(SMALL_SPEC), confidence=confidence)
        with pytest.raises(ServiceError):
            payload.validate()

    @given(budget=st.integers(max_value=1))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_budget_always_rejected(self, budget):
        payload = SimulationPayload(spec=dict(SMALL_SPEC), min_replications=budget)
        with pytest.raises(ServiceError):
            payload.validate()

    @given(data=payloads)
    @settings(max_examples=60, deadline=None)
    def test_identity_key_ignores_presentation_fields(self, data):
        payload = SimulationPayload.from_dict(data)
        relabeled = dataclasses.replace(payload, tenant="other", label="other")
        assert payload.identity_key() == relabeled.identity_key()


class TestWireFormat:
    @given(
        kind=st.sampled_from(["job.progress", "job.done", "sched.in"]),
        t=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        seq=st.integers(min_value=0, max_value=2**31),
        value=st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_wire_round_trip_is_identity(self, kind, t, seq, value):
        from repro.observability.trace import TraceRecord

        record = TraceRecord(kind=kind, t=t, seq=seq, data={"value": value})
        assert from_wire(to_wire(record)) == record


_KEY_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.resilience.result_cache import ResultCache
from repro.service import SimulationPayload

payload = SimulationPayload.from_dict(json.loads(sys.argv[1]))
cache = ResultCache("/tmp/unused")
spec_payload = payload.validate().to_dict()
print(json.dumps({{
    "identity": payload.identity_key(),
    "cache": [
        cache.key(spec_payload, "compiled", payload.root_seed, r)
        for r in range(3)
    ],
}}))
"""


class TestCrossProcessStability:
    def test_cache_keys_stable_across_processes(self, tmp_path):
        """Equal payloads must hash identically in different interpreters.

        This is the property the whole warm-hit path rests on: if keys
        drifted across processes (repr-based hashing, dict order,
        PYTHONHASHSEED leakage), the service cache would silently never
        hit across restarts.
        """
        import repro

        src = str(next(iter(repro.__path__)))[: -len("/repro")]
        data = json.dumps(
            {"spec": dict(SMALL_SPEC), "root_seed": 9, "tenant": "acme"}
        )
        script = _KEY_SCRIPT.format(src=src)
        outputs = [
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", script, data],
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        # and the in-process keys agree with the subprocess keys
        payload = SimulationPayload.from_dict(json.loads(data))
        cache = ResultCache(str(tmp_path))
        spec_payload = payload.validate().to_dict()
        assert outputs[0]["identity"] == payload.identity_key()
        assert outputs[0]["cache"] == [
            cache.key(spec_payload, "compiled", payload.root_seed, r)
            for r in range(3)
        ]
