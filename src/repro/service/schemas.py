"""Wire schemas of the simulation service.

Requests and responses cross the HTTP boundary as JSON objects; these
dataclasses are their validated in-process forms.  The contract mirrors
the AsyncFlow payload idiom: ``from_dict`` rejects unknown keys instead
of silently dropping them (a typo'd ``max_replication`` must be a 400,
not a default-valued run), ``to_dict``/``from_dict`` round-trip to the
identical object, and every constraint violation raises a one-line
:class:`~repro.errors.ServiceError` suitable for a structured error
response.

A payload also knows its *identity*: the canonical JSON of everything
that determines the simulation's numbers — the spec, the replication
protocol, the seed — excluding presentation-only fields (``tenant``,
``label``).  Two payloads with equal identities are the same experiment,
so the server can answer the second from the content-addressed result
cache without executing anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.config import SystemSpec
from ..core.experiment import (
    DEFAULT_CONFIDENCE,
    DEFAULT_TARGET_HALF_WIDTH,
    validate_protocol,
)
from ..core.results import ExperimentResult
from ..errors import ReproError, ServiceError
from ..san.compiled import ENGINES


@dataclass
class SimulationPayload:
    """One experiment request, as submitted to ``POST /v1/jobs``.

    Attributes:
        spec: the system to simulate, in :meth:`SystemSpec.to_dict` form.
        tenant: quota accounting bucket; not part of the identity.
        label: result-table label; not part of the identity.
        min_replications / max_replications / confidence /
            target_half_width / root_seed / extra_probes: the
            :func:`~repro.core.experiment.run_experiment` protocol knobs.
        engine: enablement engine, one of
            :data:`repro.san.compiled.ENGINES` or ``None`` for the
            default (``resolve_engine(None)``).
    """

    spec: Dict[str, Any]
    tenant: str = "default"
    label: Optional[str] = None
    min_replications: int = 5
    max_replications: int = 30
    confidence: float = DEFAULT_CONFIDENCE
    target_half_width: float = DEFAULT_TARGET_HALF_WIDTH
    root_seed: int = 0
    extra_probes: bool = False
    engine: Optional[str] = None

    def validate(self) -> SystemSpec:
        """Check every field; return the built, validated spec."""
        if not isinstance(self.spec, dict) or not self.spec:
            raise ServiceError("spec must be a non-empty object")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ServiceError("tenant must be a non-empty string")
        if self.label is not None and not isinstance(self.label, str):
            raise ServiceError(f"label must be a string, got {self.label!r}")
        try:
            validate_protocol(int(self.min_replications), int(self.max_replications))
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed replication budget: {exc}") from exc
        except ReproError as exc:
            raise ServiceError(str(exc)) from exc
        if not isinstance(self.confidence, (int, float)) or not (
            0.0 < self.confidence < 1.0
        ):
            raise ServiceError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        if not isinstance(self.target_half_width, (int, float)) or (
            self.target_half_width <= 0
        ):
            raise ServiceError(
                f"target_half_width must be > 0, got {self.target_half_width!r}"
            )
        if not isinstance(self.root_seed, int) or isinstance(self.root_seed, bool):
            raise ServiceError(f"root_seed must be an integer, got {self.root_seed!r}")
        if not isinstance(self.extra_probes, bool):
            raise ServiceError(
                f"extra_probes must be a boolean, got {self.extra_probes!r}"
            )
        if self.engine is not None and self.engine not in ENGINES:
            raise ServiceError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        try:
            spec = SystemSpec.from_dict(self.spec)
            spec.validate()
        except ReproError as exc:
            raise ServiceError(str(exc)) from exc
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; exact inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationPayload":
        if not isinstance(payload, dict):
            raise ServiceError(f"payload must be an object, got {type(payload).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ServiceError(
                f"unknown payload keys {sorted(unknown)}; expected {sorted(known)}"
            )
        if "spec" not in payload:
            raise ServiceError("payload is missing required key 'spec'")
        return cls(**payload)

    # -- identity ----------------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        """Everything that determines the numbers (no tenant, no label)."""
        data = self.to_dict()
        data.pop("tenant")
        data.pop("label")
        return data

    def identity_key(self) -> str:
        """Stable digest of :meth:`identity` (dedup / warm-hit lookups)."""
        text = json.dumps(self.identity(), sort_keys=True)
        return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class SimulationOutput:
    """One finished job, as returned by ``GET /v1/jobs/{id}``.

    ``metrics`` flattens each estimate to its reportable triple —
    ``{"mean": ..., "half_width": ..., "n": ...}`` — because raw sample
    lists are an implementation detail the wire contract must not pin.
    ``executed`` / ``cache_hits`` expose the warm-hit guarantee: a
    repeat of a cached experiment reports ``executed == 0``.
    """

    job: str
    status: str
    label: str = ""
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    replications: int = 0
    executed: int = 0
    cache_hits: int = 0
    degraded: bool = False
    failures: int = 0
    error: Optional[str] = None
    elapsed: float = 0.0

    @classmethod
    def from_result(
        cls,
        job: str,
        result: ExperimentResult,
        executed: int,
        cache_hits: int,
        elapsed: float,
    ) -> "SimulationOutput":
        return cls(
            job=job,
            status="done",
            label=result.label,
            metrics={
                name: {
                    "mean": estimate.mean,
                    "half_width": estimate.half_width,
                    "n": estimate.n,
                }
                for name, estimate in sorted(result.estimates.items())
            },
            replications=result.replications,
            executed=executed,
            cache_hits=cache_hits,
            degraded=result.degraded,
            failures=len(result.failures),
            error=None,
            elapsed=elapsed,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationOutput":
        if not isinstance(payload, dict):
            raise ServiceError(f"output must be an object, got {type(payload).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ServiceError(
                f"unknown output keys {sorted(unknown)}; expected {sorted(known)}"
            )
        for required in ("job", "status"):
            if required not in payload:
                raise ServiceError(f"output is missing required key {required!r}")
        return cls(**payload)
