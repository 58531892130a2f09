"""Multi-state PCPU health: Markov degradation, maintenance, HV overhead.

The paper's host model is idealized: a PCPU is always perfectly up.
Real cores fail, and degrade *gradually* before they do — thermal
throttling, correctable-error storms, firmware-level capacity loss —
and fleets repair them with a bounded maintenance crew.  This module ports the discrete-state degradation
idiom of manufacturing simulators (simantha's ``degradation_matrix``)
onto the hypervisor's PCPU array:

* :class:`DegradationModel` — a seeded Markov chain over integer
  health states ``0..h_max`` per PCPU.  State 0 is pristine; state
  ``h_max`` is terminal failure (traced as ``pcpu.fail``, and as
  ``pcpu.repair`` once maintenance restores it).  Binary exponential
  fail/repair — ``SystemSpec.pcpu_failures`` — is the two-state chain
  with ``p = 1``.  Intermediate states scale the core's *effective
  capacity*: a PCPU at health ``h`` delivers only ``capacity[h]`` of
  its clock ticks to the VCPU it hosts (the withheld ticks model a
  degraded core running slower).
* :class:`MaintenancePolicy` — corrective, periodic, or
  condition-based repair, with all PCPUs competing for ``crews``
  repair crews (a token-bounded resource).  A PCPU under maintenance
  is out of service until its repair completes, which restores it to
  pristine health.
* :class:`HVOverheadModel` — a per-world-switch hypervisor cost: the
  first ``cost`` ticks after every schedule-in are consumed by the
  hypervisor (context-switch, TLB/cache refill) instead of the guest,
  so context-switch-heavy schedulers pay a realistic penalty.

All three are plain-data configs that round-trip through dicts (spec
files, sweeps, the result cache).  The stochastic parts draw from
named :class:`~repro.des.random_streams.StreamFactory` streams, so
trajectories are bit-identical across the three enablement engines and
under cross-replication model reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ConfigurationError

#: Tolerance for row-stochasticity checks (rows must sum to 1).
_ROW_SUM_TOL = 1e-9

MAINTENANCE_POLICIES = ("corrective", "periodic", "condition_based")


def generate_degradation_matrix(p: float, h_max: int) -> List[List[float]]:
    """The standard single-step degradation transition matrix.

    An ``(h_max + 1) x (h_max + 1)`` row-stochastic matrix: from each
    non-terminal health state the chain steps to the next-worse state
    with probability ``p`` and stays put with ``1 - p``; the terminal
    state ``h_max`` is absorbing (only maintenance leaves it).

    Example:
        >>> generate_degradation_matrix(0.25, 2)
        [[0.75, 0.25, 0.0], [0.0, 0.75, 0.25], [0.0, 0.0, 1.0]]
    """
    if not 0 < p <= 1:
        raise ConfigurationError(f"degradation p must be in (0, 1], got {p}")
    if h_max < 1:
        raise ConfigurationError(f"h_max must be >= 1, got {h_max}")
    size = h_max + 1
    matrix = [[0.0] * size for _ in range(size)]
    for h in range(h_max):
        matrix[h][h] = 1.0 - p
        matrix[h][h + 1] = p
    matrix[h_max][h_max] = 1.0
    return matrix


def validate_degradation_matrix(matrix: Sequence[Sequence[float]]) -> None:
    """Check squareness, non-negativity, and row-stochasticity."""
    size = len(matrix)
    if size < 2:
        raise ConfigurationError(
            f"a degradation matrix needs >= 2 health states, got {size}"
        )
    for h, row in enumerate(matrix):
        if len(row) != size:
            raise ConfigurationError(
                f"degradation matrix row {h} has {len(row)} entries, "
                f"expected {size} (matrix must be square)"
            )
        if any(entry < 0 for entry in row):
            raise ConfigurationError(
                f"degradation matrix row {h} has a negative probability"
            )
        total = sum(row)
        if abs(total - 1.0) > _ROW_SUM_TOL:
            raise ConfigurationError(
                f"degradation matrix row {h} sums to {total!r}, not 1 "
                "(rows must be probability distributions)"
            )


@dataclass
class DegradationModel:
    """Per-PCPU Markov health process with capacity scaling.

    Attributes:
        p: single-step degradation probability used when ``matrix`` is
            not given (see :func:`generate_degradation_matrix`).
        h_max: terminal health state (``>= 1``); ignored in favor of
            the matrix size when ``matrix`` is given.
        mtbe: mean time between degradation evaluations per PCPU
            (ticks; each evaluation draws one transition from the
            current state's matrix row).
        matrix: explicit ``(h_max+1) x (h_max+1)`` row-stochastic
            transition matrix; ``None`` generates the standard one.
        capacity: effective capacity per health state, each in
            ``[0, 1]``; ``None`` defaults to the linear ramp
            ``1 - h / h_max``.  A PCPU at health ``h`` delivers a
            ``capacity[h]`` fraction of its ticks to the hosted VCPU.
        initial_health: optional per-PCPU starting health (length
            checked against the system's PCPU count at validation).
            A PCPU starting at ``h_max`` is out of service from t=0 —
            the forced-degradation hook used by tests and ablations.
    """

    p: float = 0.1
    h_max: int = 4
    mtbe: float = 50.0
    matrix: Optional[List[List[float]]] = None
    capacity: Optional[List[float]] = None
    initial_health: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.matrix is not None:
            validate_degradation_matrix(self.matrix)
            self.h_max = len(self.matrix) - 1
        if self.h_max < 1:
            raise ConfigurationError(f"h_max must be >= 1, got {self.h_max}")
        if self.matrix is None and not 0 < self.p <= 1:
            raise ConfigurationError(
                f"degradation p must be in (0, 1], got {self.p}"
            )
        if self.mtbe <= 0:
            raise ConfigurationError(f"mtbe must be > 0, got {self.mtbe}")
        if self.capacity is not None:
            if len(self.capacity) != self.h_max + 1:
                raise ConfigurationError(
                    f"capacity needs {self.h_max + 1} entries (one per "
                    f"health state), got {len(self.capacity)}"
                )
            if any(not 0.0 <= c <= 1.0 for c in self.capacity):
                raise ConfigurationError(
                    "capacity entries must be in [0, 1], got "
                    f"{self.capacity}"
                )
        if self.initial_health is not None:
            for i, h in enumerate(self.initial_health):
                if not 0 <= int(h) <= self.h_max:
                    raise ConfigurationError(
                        f"initial_health[{i}] = {h} outside 0..{self.h_max}"
                    )

    def effective_matrix(self) -> List[List[float]]:
        """The transition matrix (explicit or generated)."""
        if self.matrix is not None:
            return [list(row) for row in self.matrix]
        return generate_degradation_matrix(self.p, self.h_max)

    def effective_capacity(self) -> List[float]:
        """Capacity per health state (explicit or the linear ramp)."""
        if self.capacity is not None:
            return list(self.capacity)
        return [1.0 - h / self.h_max for h in range(self.h_max + 1)]

    def health_at(self, pcpu_index: int) -> int:
        """Starting health for one PCPU (0 unless initial_health says)."""
        if self.initial_health is None or pcpu_index >= len(self.initial_health):
            return 0
        return int(self.initial_health[pcpu_index])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        return {
            "p": self.p,
            "h_max": self.h_max,
            "mtbe": self.mtbe,
            "matrix": [list(row) for row in self.matrix] if self.matrix else None,
            "capacity": list(self.capacity) if self.capacity else None,
            "initial_health": (
                list(self.initial_health) if self.initial_health else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DegradationModel":
        known = {"p", "h_max", "mtbe", "matrix", "capacity", "initial_health"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown degradation keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(
            p=float(payload.get("p", 0.1)),
            h_max=int(payload.get("h_max", 4)),
            mtbe=float(payload.get("mtbe", 50.0)),
            matrix=payload.get("matrix"),
            capacity=payload.get("capacity"),
            initial_health=payload.get("initial_health"),
        )


@dataclass
class MaintenancePolicy:
    """Repair strategy for degraded/failed PCPUs, with bounded crews.

    Attributes:
        policy: ``"corrective"`` (repair only terminal failures),
            ``"periodic"`` (additionally overhaul every PCPU every
            ``period`` ticks), or ``"condition_based"`` (additionally
            repair as soon as health reaches ``threshold``).  All
            policies repair FAILED PCPUs — a dead core is never left
            dead while a crew is free.
        crews: repair crews shared by all PCPUs (``>= 1``); at most
            this many maintenances run concurrently.
        mttr: mean time to repair (ticks; exponential).
        period: periodic-policy overhaul interval (ticks).
        threshold: condition-based trigger health (``>= 1``).
    """

    policy: str = "corrective"
    crews: int = 1
    mttr: float = 20.0
    period: float = 100.0
    threshold: int = 2

    def __post_init__(self) -> None:
        if self.policy not in MAINTENANCE_POLICIES:
            raise ConfigurationError(
                f"maintenance policy must be one of {MAINTENANCE_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.crews < 1:
            raise ConfigurationError(f"crews must be >= 1, got {self.crews}")
        if self.mttr <= 0:
            raise ConfigurationError(f"mttr must be > 0, got {self.mttr}")
        if self.period <= 0:
            raise ConfigurationError(f"period must be > 0, got {self.period}")
        if self.threshold < 1:
            raise ConfigurationError(
                f"threshold must be >= 1, got {self.threshold}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        return {
            "policy": self.policy,
            "crews": self.crews,
            "mttr": self.mttr,
            "period": self.period,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MaintenancePolicy":
        known = {"policy", "crews", "mttr", "period", "threshold"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown maintenance keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(
            policy=str(payload.get("policy", "corrective")),
            crews=int(payload.get("crews", 1)),
            mttr=float(payload.get("mttr", 20.0)),
            period=float(payload.get("period", 100.0)),
            threshold=int(payload.get("threshold", 2)),
        )


@dataclass
class HVOverheadModel:
    """Per-world-switch hypervisor cost.

    Attributes:
        cost: ticks consumed by the hypervisor after every schedule-in
            before the guest receives its first work tick (``>= 0``;
            0 disables the layer).  The VCPU's timeslice keeps counting
            down during those ticks, so a ``cost``-tick overhead
            shortens every tenure by ``cost`` useful ticks.
    """

    cost: int = 2

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ConfigurationError(
                f"hv overhead cost must be >= 0, got {self.cost}"
            )
        self.cost = int(self.cost)

    @property
    def enabled(self) -> bool:
        return self.cost > 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        return {"cost": self.cost}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HVOverheadModel":
        known = {"cost"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown hv_overhead keys {sorted(unknown)}; expected {sorted(known)}"
            )
        return cls(cost=int(payload.get("cost", 2)))
