"""Composed SAN models: the Join and Replicate operations.

Mobius builds large models from small ones with two operators:

* **Join** — place several sub-models side by side and *share* chosen
  state variables between them.  The paper's Table 1 ("join places in
  Virtual Machine model") and Table 2 ("join places in Virtual System
  model") are exactly the shared-variable declarations of two Joins.
* **Replicate** — stamp out N copies of a sub-model, sharing chosen
  variables across all replicas.

:func:`join` takes independently constructed sub-models plus a list of
:class:`SharedVariable` declarations; member places are unified onto a
single storage cell (see :func:`repro.san.places.share`), so gates built
against any member observe and mutate the same marking.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ModelError
from .activities import Activity
from .model import ModelBase, SANModel
from .places import PlaceLike, share


class SharedVariable:
    """Declares one join place: a shared name plus its member places.

    Args:
        name: the shared variable's name in the composed model's
            namespace (e.g. ``"Blocked"``).
        members: ``(submodel_name, place_path)`` pairs; ``place_path`` is
            a dot-separated path valid inside that sub-model (so nested
            composed models can be joined, as the paper's Table 2 does
            with ``VCPU_Scheduler->VCPU1->Schedule_In``).
    """

    def __init__(self, name: str, members: Sequence[Tuple[str, str]]) -> None:
        if not name:
            raise ModelError("a shared variable needs a non-empty name")
        if not members:
            raise ModelError(f"shared variable {name!r} needs at least one member")
        self.name = name
        self.members = [(str(sub), str(path)) for sub, path in members]

    def __repr__(self) -> str:
        members = ", ".join(f"{sub}->{path}" for sub, path in self.members)
        return f"SharedVariable({self.name!r}: {members})"


class ComposedModel(ModelBase):
    """The result of a Join (or Replicate): behaves like one big model.

    Place names are qualified ``<submodel>.<path>``; each shared variable
    is *additionally* exposed under its bare shared name, pointing at the
    unified place.  Activities keep their sub-model-qualified names so
    their random streams stay distinct.
    """

    def __init__(
        self,
        name: str,
        submodels: Dict[str, ModelBase],
        shared: Sequence[SharedVariable],
    ) -> None:
        if not name:
            raise ModelError("a composed model needs a non-empty name")
        self.name = name
        self.submodels = dict(submodels)
        self.shared = list(shared)
        self._places: Dict[str, PlaceLike] = {}
        self._activities: List[Activity] = []
        self._build()

    def _build(self) -> None:
        # 1. Qualified namespace for every sub-model place.
        for sub_name, sub in self.submodels.items():
            if "." in sub_name:
                raise ModelError(
                    f"composed model {self.name!r}: submodel name {sub_name!r} "
                    "must not contain '.'"
                )
            for path, place in sub.places().items():
                self._places[f"{sub_name}.{path}"] = place

        # 2. Unify each shared variable's members onto one cell and expose
        #    the shared name.
        for var in self.shared:
            members = []
            for sub_name, path in var.members:
                if sub_name not in self.submodels:
                    raise ModelError(
                        f"composed model {self.name!r}: shared variable "
                        f"{var.name!r} references unknown submodel {sub_name!r}"
                    )
                members.append(self.submodels[sub_name].place(path))
            if var.name in self._places and self._places[var.name] not in members:
                raise ModelError(
                    f"composed model {self.name!r}: shared name {var.name!r} "
                    "collides with an existing place name"
                )
            if len(members) > 1:
                share(members)
            self._places[var.name] = members[0]

        # 3. Flatten activities, prefixing qualified names once.
        for sub_name, sub in self.submodels.items():
            composed_into = getattr(sub, "_composed_into", None)
            if composed_into is not None:
                raise ModelError(
                    f"model {sub.name!r} is already part of composed model "
                    f"{composed_into!r}; build a fresh instance instead"
                )
            for activity in sub.activities():
                # An activity's qualified name already starts with its own
                # model's name; re-prefix the sub-model key only when the
                # caller registered the model under a different one.
                if activity.qualified_name.split(".", 1)[0] == sub_name:
                    activity.qualified_name = f"{self.name}.{activity.qualified_name}"
                else:
                    activity.qualified_name = (
                        f"{self.name}.{sub_name}.{activity.qualified_name}"
                    )
                self._activities.append(activity)
            sub._composed_into = self.name
        # A composed model can itself be joined once more (nested joins).
        self._composed_into: Optional[str] = None

    # -- introspection ----------------------------------------------------

    def join_place_table(self) -> List[Dict[str, str]]:
        """The composed model's join places, as rows like the paper's tables.

        Each row has a ``state_variable`` (the shared name) and
        ``submodel_variables`` (the ``sub->path`` members), matching the
        layout of Table 1 / Table 2 in the paper.
        """
        rows = []
        for var in self.shared:
            rows.append(
                {
                    "state_variable": var.name,
                    "submodel_variables": [f"{sub}->{path}" for sub, path in var.members],
                }
            )
        return rows

    def __repr__(self) -> str:
        return (
            f"ComposedModel({self.name!r}, submodels={sorted(self.submodels)}, "
            f"shared={len(self.shared)})"
        )


def join(
    name: str,
    submodels: Dict[str, ModelBase],
    shared: Sequence[SharedVariable] = (),
) -> ComposedModel:
    """Compose sub-models, sharing the declared variables (Mobius Join)."""
    return ComposedModel(name, submodels, shared)


def replicate(
    name: str,
    builder: Callable[[int], ModelBase],
    count: int,
    shared_names: Sequence[str] = (),
) -> ComposedModel:
    """Stamp out ``count`` copies of a sub-model (Mobius Replicate).

    Args:
        name: composed model name.
        builder: called with the replica index (0-based); must return a
            fresh model with a unique name each time (e.g.
            ``f"worker{index}"``).
        count: number of replicas (>= 1).
        shared_names: place paths shared across *all* replicas (the
            Replicate operator's "shared state variables").
    """
    if count < 1:
        raise ModelError(f"replicate {name!r}: count must be >= 1, got {count}")
    replicas: Dict[str, ModelBase] = {}
    for index in range(count):
        model = builder(index)
        if model.name in replicas:
            raise ModelError(
                f"replicate {name!r}: builder produced duplicate name {model.name!r}"
            )
        replicas[model.name] = model
    shared = [
        SharedVariable(path, [(sub_name, path) for sub_name in replicas])
        for path in shared_names
    ]
    return ComposedModel(name, replicas, shared)
