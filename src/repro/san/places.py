"""SAN places: the state variables of a Stochastic Activity Network.

A *place* holds a natural number of tokens (Sanders & Meyer's formal
definition).  Mobius additionally supports *extended places* whose
"token" is a structured value — the paper leans on these heavily: a
``VCPU_slot`` place carries ``remaining_load``, ``sync_point``, and
``status`` fields rather than a bare count.

**Sharing.**  Mobius's Join operation equates state variables of
independently constructed sub-models (the paper's Tables 1 and 2 list
exactly these "join places").  Gates in this implementation close over
place objects, so joining cannot swap the objects themselves; instead,
every place stores its marking in an internal *cell*, and
:func:`share` redirects several places onto one common cell.  After
sharing, a token deposited through any member is visible through all —
precisely Mobius's shared-variable semantics.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence, Set, Union

from ..errors import ModelError, SimulationError


class _TokenCell:
    """Shared storage for a natural-number marking."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: int) -> None:
        self.tokens = tokens


class _ValueCell:
    """Shared storage for an extended place's structured value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


# -- dependency tracking -------------------------------------------------
#
# The compiled enablement engine (see ``repro.san.compiled``) needs to
# know which storage cells a gate predicate *reads* and which cells a
# completion *writes*.  Tracking happens at the cell level because Join
# redirects several places onto one cell: a write through any member must
# invalidate gates watching any other member.
#
# Two module-level sinks drive it:
#
# * ``_read_sink`` — while installed, cell reads are recorded into it and
#   reads of an extended place's mutable value are treated as pure (the
#   engine installs it around gate predicates and reward functions, which
#   are required to be side-effect-free observers of the marking).
# * ``_dirty_sink`` — while installed, written cells are recorded into it
#   (the engine installs it around activity completions).
#
# Every write additionally bumps ``_WRITE_EPOCH``, a process-global
# counter; a simulator compares it against the value it saw at the end of
# its last public call to detect out-of-band mutations (tests poking at
# places, model resets, a second simulator) and conservatively drops its
# whole enablement cache when they happened.
#
# Because an :class:`ExtendedPlace` hands out a *mutable* value through
# its getter, a ``.value`` read outside any read sink is conservatively
# counted as a potential write — gate functions mutate slot dicts in
# place through exactly that path, and guessing would break semantics.
# Code that only observes uses :meth:`ExtendedPlace.peek` instead, which
# never counts as a write.

_WRITE_EPOCH = 0
_read_sink: Optional[Set[Any]] = None
_dirty_sink: Optional[Set[Any]] = None


def write_epoch() -> int:
    """The process-global write counter (monotonic; engine plumbing)."""
    return _WRITE_EPOCH


def set_read_sink(sink: Optional[Set[Any]]) -> Optional[Set[Any]]:
    """Install a read sink; returns the previous one (engine plumbing).

    Callers must restore the previous sink in a ``finally`` block.
    """
    global _read_sink
    previous = _read_sink
    _read_sink = sink
    return previous


def set_dirty_sink(sink: Optional[Set[Any]]) -> Optional[Set[Any]]:
    """Install a write sink; returns the previous one (engine plumbing)."""
    global _dirty_sink
    previous = _dirty_sink
    _dirty_sink = sink
    return previous


@contextmanager
def tracking_reads(sink: Set[Any]) -> Iterator[Set[Any]]:
    """Record every cell read inside the block into ``sink``.

    Inside the block, reads of extended-place values are treated as pure
    observations (they do not conservatively dirty the cell), so only
    wrap code that genuinely does not mutate the marking.
    """
    previous = set_read_sink(sink)
    try:
        yield sink
    finally:
        set_read_sink(previous)


@contextmanager
def capturing_writes(sink: Set[Any]) -> Iterator[Set[Any]]:
    """Record every cell written inside the block into ``sink``."""
    previous = set_dirty_sink(sink)
    try:
        yield sink
    finally:
        set_dirty_sink(previous)


def _mark_written(cell: Any) -> None:
    global _WRITE_EPOCH
    _WRITE_EPOCH += 1
    if _dirty_sink is not None:
        _dirty_sink.add(cell)


class Place:
    """A place holding a natural number of tokens.

    Attributes:
        name: the place's name within its atomic model.
        initial: marking restored by :meth:`reset`.
    """

    def __init__(self, name: str, initial: int = 0) -> None:
        if not name:
            raise ModelError("a place needs a non-empty name")
        if initial < 0:
            raise ModelError(f"place {name!r}: initial marking must be >= 0, got {initial}")
        self.name = name
        self.initial = int(initial)
        self._cell = _TokenCell(int(initial))

    @property
    def tokens(self) -> int:
        if _read_sink is not None:
            _read_sink.add(self._cell)
        return self._cell.tokens

    @tokens.setter
    def tokens(self, value: int) -> None:
        if value < 0:
            raise SimulationError(
                f"place {self.name!r}: marking would go negative ({value})"
            )
        self._cell.tokens = int(value)
        _mark_written(self._cell)

    def add(self, n: int = 1) -> None:
        """Deposit ``n`` tokens."""
        self.tokens = self._cell.tokens + n

    def remove(self, n: int = 1) -> None:
        """Withdraw ``n`` tokens; raises if the marking would go negative."""
        self.tokens = self._cell.tokens - n

    def is_empty(self) -> bool:
        if _read_sink is not None:
            _read_sink.add(self._cell)
        return self._cell.tokens == 0

    def reset(self) -> None:
        """Restore the initial marking (between replications)."""
        self._cell.tokens = self.initial
        _mark_written(self._cell)

    def snapshot(self) -> int:
        """An immutable copy of the marking, for traces and rewards."""
        if _read_sink is not None:
            _read_sink.add(self._cell)
        return self._cell.tokens

    def shares_cell_with(self, other: "Place") -> bool:
        """True if this place and ``other`` have been joined."""
        return self._cell is other._cell

    def __repr__(self) -> str:
        return f"Place({self.name!r}, tokens={self._cell.tokens})"


class ExtendedPlace:
    """A place whose marking is a structured value (Mobius extended place).

    The value can be any object; the model decides its shape.  The initial
    value is deep-copied on reset so that mutations during one replication
    never leak into the next.

    Example:
        >>> slot = ExtendedPlace("VCPU_slot", {"remaining_load": 0, "status": "INACTIVE"})
        >>> slot.value["status"] = "READY"
        >>> slot.reset()
        >>> slot.value["status"]
        'INACTIVE'
    """

    def __init__(self, name: str, initial: Any) -> None:
        if not name:
            raise ModelError("a place needs a non-empty name")
        self.name = name
        self.initial = initial
        self._cell = _ValueCell(copy.deepcopy(initial))

    @property
    def value(self) -> Any:
        # The getter hands out a mutable reference.  Under a read sink
        # (gate predicates, rewards) it is a pure observation; anywhere
        # else the caller may mutate the value in place, so the read is
        # conservatively counted as a potential write.
        if _read_sink is not None:
            _read_sink.add(self._cell)
        else:
            _mark_written(self._cell)
        return self._cell.value

    @value.setter
    def value(self, new_value: Any) -> None:
        self._cell.value = new_value
        _mark_written(self._cell)

    def peek(self) -> Any:
        """The current value as a pure observation.

        Like :attr:`value` it records the cell under a read sink, but it
        never counts as a write, so observing a slot from inside a
        completion does not invalidate the gates watching it.  The
        caller must not mutate the returned object (or anything reached
        through it): such a write would be invisible to the compiled
        engine.  Read through :attr:`value` when you intend to mutate.
        """
        if _read_sink is not None:
            _read_sink.add(self._cell)
        return self._cell.value

    def reset(self) -> None:
        """Restore a deep copy of the initial value."""
        self._cell.value = copy.deepcopy(self.initial)
        _mark_written(self._cell)

    def snapshot(self) -> Any:
        """A deep copy of the current value, for traces and rewards."""
        if _read_sink is not None:
            _read_sink.add(self._cell)
        return copy.deepcopy(self._cell.value)

    def shares_cell_with(self, other: "ExtendedPlace") -> bool:
        """True if this place and ``other`` have been joined."""
        return self._cell is other._cell

    def __repr__(self) -> str:
        return f"ExtendedPlace({self.name!r}, value={self._cell.value!r})"


PlaceLike = Union[Place, ExtendedPlace]


def share(places: Sequence[PlaceLike]) -> None:
    """Join several places onto one common storage cell.

    All members must be the same kind (all :class:`Place` or all
    :class:`ExtendedPlace`) and declare equal initial markings — joining
    a place initialised to 3 tokens with one initialised to 0 would make
    "reset" ambiguous, which Mobius likewise rejects.

    After sharing, the first member's *current* marking wins.

    Raises:
        ModelError: on mixed kinds, mismatched initials, or < 2 members.
    """
    if len(places) < 2:
        raise ModelError("share() needs at least two places")
    first = places[0]
    for other in places[1:]:
        if type(other) is not type(first):
            raise ModelError(
                f"cannot share {first.name!r} ({type(first).__name__}) with "
                f"{other.name!r} ({type(other).__name__}): kinds differ"
            )
        if other.initial != first.initial:
            raise ModelError(
                f"cannot share {first.name!r} with {other.name!r}: "
                f"initial markings differ ({first.initial!r} vs {other.initial!r})"
            )
        other._cell = first._cell
    # Joining rewires storage out from under any existing enablement
    # cache; bump the epoch so attached simulators notice.
    _mark_written(first._cell)


class Marking:
    """A read-only view over a set of places, keyed by qualified name.

    Reward variables and tests use this to observe state without holding
    references into the model's internals.
    """

    def __init__(self, places: Dict[str, PlaceLike]) -> None:
        self._places = dict(places)

    def __getitem__(self, name: str):
        # A Marking is an observation API: reads through it never count
        # as potential writes (mutating a value obtained here is
        # undefined behaviour — use the place object itself to mutate).
        place = self._places[name]
        if _read_sink is not None:
            _read_sink.add(place._cell)
        return (
            place._cell.tokens
            if isinstance(place, Place)
            else place._cell.value
        )

    def get(self, name: str, default: Optional[Any] = None):
        if name not in self._places:
            return default
        return self[name]

    def __contains__(self, name: str) -> bool:
        return name in self._places

    def names(self) -> list:
        return sorted(self._places)

    def snapshot(self) -> Dict[str, Any]:
        """Deep-copied dict of every place's marking."""
        return {name: place.snapshot() for name, place in self._places.items()}
