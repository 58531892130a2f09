"""SAN activities: timed and instantaneous transitions.

An *activity* models a state transition.  Timed activities take a random
(or deterministic) delay to complete; instantaneous activities complete
in zero time the moment they become enabled.  An activity may have
*cases* — a discrete probability distribution over alternative outcomes,
each with its own set of output gates.

Execution policy (matching Mobius's default simulator semantics):

1. When an activity becomes enabled, its delay is sampled and a
   completion event is scheduled (timed) or it joins the zero-delay
   queue (instantaneous).
2. If any state change disables it before completion, the activity is
   *aborted* — the pending completion is cancelled, and a later
   re-enabling samples a fresh delay.
3. On completion: every input gate's input function runs, a case is
   selected by probability, then that case's output gates run in order.
"""

from __future__ import annotations

from random import Random
from typing import List, Optional, Sequence

from ..des.distributions import Distribution
from ..errors import ModelError
from .gates import InputGate, OutputGate


class Case:
    """One probabilistic outcome of an activity.

    Args:
        probability: selection weight; all of an activity's case
            probabilities must sum to 1 (within 1e-9).
        output_gates: gates fired (in order) when this case is chosen.
    """

    def __init__(self, probability: float, output_gates: Sequence[OutputGate]) -> None:
        if probability < 0:
            raise ModelError(f"case probability must be >= 0, got {probability}")
        self.probability = float(probability)
        self.output_gates = list(output_gates)

    def __repr__(self) -> str:
        gates = ", ".join(g.name for g in self.output_gates)
        return f"Case(p={self.probability}, gates=[{gates}])"


class Activity:
    """Common behaviour of timed and instantaneous activities.

    Not instantiated directly — use :class:`TimedActivity` or
    :class:`InstantaneousActivity`.
    """

    def __init__(
        self,
        name: str,
        input_gates: Optional[Sequence[InputGate]] = None,
        output_gates: Optional[Sequence[OutputGate]] = None,
        cases: Optional[Sequence[Case]] = None,
    ) -> None:
        if not name:
            raise ModelError("an activity needs a non-empty name")
        self.name = name
        self.input_gates: List[InputGate] = list(input_gates or [])
        if cases is not None and output_gates:
            raise ModelError(
                f"activity {name!r}: give either cases or output_gates, not both"
            )
        if cases is not None:
            total = sum(c.probability for c in cases)
            if abs(total - 1.0) > 1e-9:
                raise ModelError(
                    f"activity {name!r}: case probabilities sum to {total}, expected 1"
                )
            self.cases: List[Case] = list(cases)
        else:
            self.cases = [Case(1.0, list(output_gates or []))]
        # Qualified name, set when the activity is added to a model and
        # possibly re-qualified by Join/Replicate.  Used as the random
        # stream key so every activity draws from its own stream.
        self.qualified_name = name

    def add_input_gate(self, gate: InputGate) -> None:
        """Attach another input gate (used by model builders)."""
        self.input_gates.append(gate)

    def add_output_gate(self, gate: OutputGate, case: int = 0) -> None:
        """Attach another output gate to the given case, at the end."""
        self.cases[case].output_gates.append(gate)

    def is_volatile(self) -> bool:
        """True when any input gate opted out of read-set tracking.

        The compiled engine re-evaluates volatile activities after
        every completion instead of caching their enablement.
        """
        return any(gate.volatile for gate in self.input_gates)

    def declared_read_cells(self) -> list:
        """Union of storage cells declared by this activity's gates."""
        cells: list = []
        for gate in self.input_gates:
            for cell in gate.declared_read_cells():
                if cell not in cells:
                    cells.append(cell)
        return cells

    def enabled(self) -> bool:
        """True while every attached input gate's predicate holds.

        An activity with no input gates is never enabled — in SAN terms it
        has no enabling condition, and leaving it permanently enabled
        would spin the simulator.  (Mobius requires at least one input arc
        or gate for the same reason.)
        """
        if not self.input_gates:
            return False
        return all(gate.holds() for gate in self.input_gates)

    def select_case(self, rng: Random) -> Case:
        """Draw one case according to the case probabilities."""
        if len(self.cases) == 1:
            return self.cases[0]
        pick = rng.random()
        cumulative = 0.0
        for case in self.cases:
            cumulative += case.probability
            if pick < cumulative:
                return case
        return self.cases[-1]  # guard against floating-point shortfall

    def complete(self, rng: Random) -> Case:
        """Run the completion sequence; returns the chosen case.

        Order per SAN semantics: input-gate functions (attachment order),
        then case selection, then that case's output gates (attachment
        order).
        """
        for gate in self.input_gates:
            gate.fire()
        case = self.select_case(rng)
        for gate in case.output_gates:
            gate.fire()
        return case

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.qualified_name!r})"


class TimedActivity(Activity):
    """An activity whose completion takes a sampled delay.

    Args:
        distribution: delay distribution (any :class:`repro.des.Distribution`).
        reactivation: Mobius's reactivation semantics — when True, a
            *pending* completion is aborted and resampled after every
            other activity's completion, so the delay always reflects
            the current marking.  Required for correctness with
            :class:`~repro.des.MarkingDependentExponential` (a stale
            rate otherwise survives marking changes); statistically
            harmless for a plain exponential (memoryless), and wrong
            for non-memoryless distributions unless that reset is the
            intended semantics.
        Remaining args as for :class:`Activity`.
    """

    def __init__(
        self,
        name: str,
        distribution: Distribution,
        input_gates: Optional[Sequence[InputGate]] = None,
        output_gates: Optional[Sequence[OutputGate]] = None,
        cases: Optional[Sequence[Case]] = None,
        reactivation: bool = False,
    ) -> None:
        super().__init__(name, input_gates, output_gates, cases)
        if not isinstance(distribution, Distribution):
            raise ModelError(
                f"activity {name!r}: distribution must be a Distribution, "
                f"got {type(distribution).__name__}"
            )
        self.distribution = distribution
        self.reactivation = bool(reactivation)

    def sample_delay(self, rng: Random) -> float:
        """Sample the firing delay; must be >= 0."""
        delay = self.distribution.sample(rng)
        if delay < 0:
            raise ModelError(
                f"activity {self.qualified_name!r}: sampled a negative delay {delay}"
            )
        return delay


class InstantaneousActivity(Activity):
    """An activity that completes immediately upon enabling.

    Args:
        priority: among simultaneously enabled instantaneous activities,
            lower values complete first.  The virtualization model uses
            this to pin the per-tick ordering (process loads, then clear
            barriers, then generate/dispatch workloads, then schedule).
    """

    def __init__(
        self,
        name: str,
        priority: int = 0,
        input_gates: Optional[Sequence[InputGate]] = None,
        output_gates: Optional[Sequence[OutputGate]] = None,
        cases: Optional[Sequence[Case]] = None,
    ) -> None:
        super().__init__(name, input_gates, output_gates, cases)
        self.priority = int(priority)
