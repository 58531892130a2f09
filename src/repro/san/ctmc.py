"""Analytical (CTMC) solution of small SAN models.

Mobius solves models either by simulation or analytically/numerically;
the paper used only the simulator.  This module supplies the other
path for models that admit it, because it answers the paper's §V
concern — "evaluating the fidelity of the model" — directly: on small
models, the simulator's estimates can be checked against exact
steady-state numbers.

Requirements on the model (checked, with clear errors):

* every timed activity's delay distribution is :class:`Exponential`
  or :class:`MarkingDependentExponential` (the memoryless property is
  what makes the marking process a CTMC; marking-dependent rates are
  evaluated per state);
* instantaneous activities have a single case (probabilistic zero-time
  branching would need vanishing-marking elimination with branching
  probabilities — unsupported);
* the reachable, instantaneous-settled state space fits in
  ``max_states``.

Timed activities *may* have probabilistic cases: a rate-λ activity
with cases (p₁, p₂, ...) contributes transitions of rate λ·pᵢ.

The solver works on the live model by snapshotting and restoring
markings, so reward functions written for the simulator (closures over
places) evaluate unchanged per state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..des.distributions import Exponential, MarkingDependentExponential
from ..errors import ModelError, SimulationError
from .activities import InstantaneousActivity, TimedActivity
from .model import ModelBase
from .places import ExtendedPlace, Place


def _freeze(value: Any) -> Hashable:
    """Recursively convert a marking value into a hashable key."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


class CTMCSolver:
    """Exact steady-state solution of an exponential SAN.

    Example (a two-state on/off process):
        >>> solver = CTMCSolver(model)          # doctest: +SKIP
        >>> solver.explore()                    # doctest: +SKIP
        >>> solver.expected_reward(lambda: on.tokens)  # doctest: +SKIP
    """

    def __init__(self, model: ModelBase, max_states: int = 10_000) -> None:
        self.model = model
        self.max_states = int(max_states)
        self._places = model.places()
        self._timed: List[TimedActivity] = []
        self._instantaneous: List[InstantaneousActivity] = []
        for activity in model.activities():
            if isinstance(activity, TimedActivity):
                if not isinstance(
                    activity.distribution,
                    (Exponential, MarkingDependentExponential),
                ):
                    raise ModelError(
                        f"CTMC solution needs exponential delays; activity "
                        f"{activity.qualified_name!r} has "
                        f"{activity.distribution!r}"
                    )
                self._timed.append(activity)
            elif isinstance(activity, InstantaneousActivity):
                if len(activity.cases) != 1:
                    raise ModelError(
                        f"CTMC solution cannot handle probabilistic cases on "
                        f"instantaneous activity {activity.qualified_name!r}"
                    )
                self._instantaneous.append(activity)
        self._instantaneous.sort(key=lambda a: a.priority)
        self._index: Dict[Hashable, int] = {}
        self._snapshots: List[Dict[str, Any]] = []
        self._transitions: List[Tuple[int, int, float]] = []
        self._pi: Optional[numpy.ndarray] = None

    # -- marking plumbing ---------------------------------------------------

    def _snapshot(self) -> Dict[str, Any]:
        return {name: place.snapshot() for name, place in self._places.items()}

    def _restore(self, snapshot: Dict[str, Any]) -> None:
        import copy

        for name, place in self._places.items():
            value = snapshot[name]
            if isinstance(place, Place):
                place.tokens = value
            else:
                place.value = copy.deepcopy(value)

    def _key(self) -> Hashable:
        # Shared places appear under several names; freezing the whole
        # named snapshot is redundant but canonical, and correctness
        # beats compactness at these state-space sizes.
        return _freeze(self._snapshot())

    def _settle(self) -> None:
        """Fire enabled instantaneous activities to quiescence."""
        for _ in range(100_000):
            for activity in self._instantaneous:
                if activity.enabled():
                    activity.complete(_NO_RNG)
                    break
            else:
                return
        raise SimulationError("instantaneous settling did not converge")

    # -- exploration ----------------------------------------------------------

    def explore(self) -> int:
        """Build the reachable settled state space; returns its size."""
        self.model.reset()
        self._settle()
        frontier = [self._snapshot()]
        self._index[self._key()] = 0
        self._snapshots = [frontier[0]]

        while frontier:
            snapshot = frontier.pop()
            self._restore(snapshot)
            source = self._index[self._key()]
            # Which timed activities are enabled here?
            enabled = [a for a in self._timed if a.enabled()]
            for activity in enabled:
                # Marking-dependent rates must be read in the *source*
                # state (a previous case firing mutated the model).
                self._restore(snapshot)
                rate = activity.distribution.rate
                for case in activity.cases:
                    if case.probability == 0:
                        continue
                    self._restore(snapshot)
                    for gate in activity.input_gates:
                        gate.fire()
                    for gate in case.output_gates:
                        gate.fire()
                    self._settle()
                    key = self._key()
                    target = self._index.get(key)
                    if target is None:
                        if len(self._index) >= self.max_states:
                            raise ModelError(
                                f"state space exceeds max_states={self.max_states}"
                            )
                        target = len(self._index)
                        self._index[key] = target
                        successor = self._snapshot()
                        self._snapshots.append(successor)
                        frontier.append(successor)
                    self._transitions.append(
                        (source, target, rate * case.probability)
                    )
        self.model.reset()
        return len(self._index)

    @property
    def num_states(self) -> int:
        return len(self._index)

    # -- solution ---------------------------------------------------------------

    def steady_state(self) -> numpy.ndarray:
        """The stationary distribution π (πQ = 0, Σπ = 1).

        The array is the solver's cache, which :meth:`expected_reward`
        and :meth:`state_probability` read too, so it is returned
        read-only: an in-place write raises ``ValueError``.

        Raises:
            ModelError: if exploration has not run, or the chain has an
                absorbing/disconnected structure that leaves the linear
                system singular beyond the usual rank-1 deficiency.
        """
        if self._pi is not None:
            return self._pi
        if not self._snapshots:
            raise ModelError("call explore() before steady_state()")
        import numpy

        n = self.num_states
        q = numpy.zeros((n, n))
        for source, target, rate in self._transitions:
            if source != target:
                q[source, target] += rate
                q[source, source] -= rate
        # Replace one balance equation with the normalization Σπ = 1.
        a = q.T.copy()
        a[-1, :] = 1.0
        b = numpy.zeros(n)
        b[-1] = 1.0
        try:
            pi = numpy.linalg.solve(a, b)
        except numpy.linalg.LinAlgError as exc:
            raise ModelError(f"singular generator matrix: {exc}") from exc
        if numpy.any(pi < -1e-9):
            raise ModelError(
                "negative stationary probabilities — the chain is likely "
                "reducible; CTMC solution needs an irreducible model"
            )
        pi = numpy.clip(pi, 0.0, None)
        pi /= pi.sum()
        pi.setflags(write=False)
        self._pi = pi
        return pi

    def expected_reward(self, rate: Callable[[], float]) -> float:
        """Steady-state expectation of a rate reward.

        ``rate`` is the same zero-argument closure a
        :class:`~repro.san.reward.RateReward` would use; it is evaluated
        with the model restored to each state.
        """
        pi = self.steady_state()
        total = 0.0
        for probability, snapshot in zip(pi, self._snapshots):
            if probability == 0.0:
                continue
            self._restore(snapshot)
            total += probability * float(rate())
        self.model.reset()
        return total

    def state_probability(self, predicate: Callable[[], bool]) -> float:
        """Steady-state probability that ``predicate`` holds."""
        return self.expected_reward(lambda: 1.0 if predicate() else 0.0)


class _NoRng:
    """Stand-in RNG for single-case completions (never consulted)."""

    def random(self) -> float:  # pragma: no cover - guarded by case checks
        raise SimulationError("CTMC settling must not need randomness")


_NO_RNG = _NoRng()
