"""Atomic SAN models.

An atomic model is a named bag of places and activities, mirroring one
Mobius "SAN editor" canvas — e.g. the paper's Figures 3–6 are each one
atomic model.  Composed models (:mod:`repro.san.composed`) assemble
atomic models with Join and Replicate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from ..errors import ModelError
from .activities import Activity, InstantaneousActivity, TimedActivity
from .gates import InputGate
from .places import ExtendedPlace, Marking, Place, PlaceLike


class ModelBase:
    """Interface shared by atomic and composed models.

    Both keep their qualified place table in ``_places`` and their
    activities in ``_activities``; the accessors hand out copies.
    """

    name: str
    _places: Dict[str, PlaceLike]
    _activities: List[Activity]

    def places(self) -> Dict[str, PlaceLike]:
        """Mapping of qualified place name to place object (a copy)."""
        return dict(self._places)

    def activities(self) -> List[Activity]:
        """All activities, in deterministic registration order."""
        return list(self._activities)

    def input_gates(self) -> List[InputGate]:
        """Every distinct input gate, in deterministic attachment order."""
        gates: List[InputGate] = []
        seen: set = set()
        for activity in self.activities():
            for gate in activity.input_gates:
                if id(gate) not in seen:
                    seen.add(id(gate))
                    gates.append(gate)
        return gates

    def gate_read_sets(self) -> Dict[str, List[str]]:
        """Declared read sets per input gate, as place names.

        Gates without a declaration report an empty list — their read
        sets are established by the simulator's first-evaluation
        observation instead (or never, for ``volatile`` gates).  Keyed
        by ``<activity qualified name>/<gate name>`` so shared gate
        names across sub-models stay distinguishable.
        """
        report: Dict[str, List[str]] = {}
        for activity in self.activities():
            for gate in activity.input_gates:
                key = f"{activity.qualified_name}/{gate.name}"
                report[key] = [place.name for place in gate.declared_reads]
        return report

    def place(self, path: str) -> PlaceLike:
        """Look up a place by qualified (dot-separated) name.

        Raises:
            ModelError: if no such place exists.
        """
        place = self._places.get(path)
        if place is None:
            raise ModelError(
                f"model {self.name!r} has no place {path!r}; "
                f"known places: {sorted(self._places)[:20]}"
            )
        return place

    def marking(self) -> Marking:
        """A read-only view of the whole model state."""
        return Marking(self.places())

    def reset(self) -> None:
        """Restore every place's initial marking (between replications)."""
        for place in self.places().values():
            place.reset()


class SANModel(ModelBase):
    """An atomic Stochastic Activity Network.

    Example:
        >>> from repro.san import SANModel, Place, InstantaneousActivity, InputGate, OutputGate
        >>> m = SANModel("demo")
        >>> src = m.add_place(Place("src", initial=1))
        >>> dst = m.add_place(Place("dst"))
        >>> move = InstantaneousActivity(
        ...     "move",
        ...     input_gates=[InputGate("has_token", lambda: src.tokens > 0, src.remove)],
        ...     output_gates=[OutputGate("deposit", dst.add)],
        ... )
        >>> _ = m.add_activity(move)
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ModelError("a model needs a non-empty name")
        if "." in name:
            raise ModelError(f"model name {name!r} must not contain '.' (reserved for qualification)")
        self.name = name
        self._places: Dict[str, PlaceLike] = {}
        self._activities: List[Activity] = []
        # Set by Join/Replicate so a model cannot be composed twice — its
        # activities' qualified names would otherwise be re-prefixed.
        self._composed_into: Optional[str] = None

    # -- construction -----------------------------------------------------

    def add_place(self, place: PlaceLike) -> PlaceLike:
        """Register a place; returns it for fluent use.

        Raises:
            ModelError: on a duplicate place name.
        """
        if place.name in self._places:
            raise ModelError(f"model {self.name!r}: duplicate place {place.name!r}")
        self._places[place.name] = place
        return place

    def add_places(self, places: Iterable[PlaceLike]) -> None:
        """Register several places at once."""
        for place in places:
            self.add_place(place)

    def add_activity(self, activity: Activity) -> Activity:
        """Register an activity; returns it for fluent use.

        The activity's qualified name becomes ``<model>.<activity>``, which
        is also its random-stream key.

        Raises:
            ModelError: on a duplicate activity name.
        """
        if any(a.name == activity.name for a in self._activities):
            raise ModelError(f"model {self.name!r}: duplicate activity {activity.name!r}")
        activity.qualified_name = f"{self.name}.{activity.name}"
        self._activities.append(activity)
        return activity

    # -- introspection ----------------------------------------------------

    def timed_activities(self) -> List[TimedActivity]:
        return [a for a in self._activities if isinstance(a, TimedActivity)]

    def instantaneous_activities(self) -> List[InstantaneousActivity]:
        return [a for a in self._activities if isinstance(a, InstantaneousActivity)]

    def __repr__(self) -> str:
        return (
            f"SANModel({self.name!r}, places={len(self._places)}, "
            f"activities={len(self._activities)})"
        )
