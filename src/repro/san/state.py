"""State observation helpers: marking traces.

A :class:`MarkingTrace` samples the marking of selected places at fixed
intervals by piggy-backing on a probe: the caller invokes
:meth:`MarkingTrace.record` whenever it wants a sample (the
virtualization framework wires this to the hypervisor clock tick).
Traces stay lightweight — they snapshot only the places they were asked
to watch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from .model import ModelBase


class MarkingTrace:
    """Time series of selected place markings.

    Example:
        >>> trace = MarkingTrace(model, ["Workload", "Blocked"])
        >>> trace.record(0.0)
        >>> trace.rows()  # doctest: +SKIP
        [{'time': 0.0, 'Workload': 0, 'Blocked': 0}]
    """

    def __init__(self, model: ModelBase, watch: Sequence[str]) -> None:
        table = model.places()
        self._watched = {name: table[name] for name in watch}  # KeyError = typo, fail fast
        self._rows: List[Dict[str, Any]] = []

    def record(self, time: float) -> None:
        """Snapshot the watched places at the given time."""
        row: Dict[str, Any] = {"time": time}
        for name, place in self._watched.items():
            row[name] = place.snapshot()
        self._rows.append(row)

    def rows(self) -> List[Dict[str, Any]]:
        """All recorded samples, oldest first."""
        return list(self._rows)

    def series(self, name: str) -> List[Any]:
        """The time series of one watched place."""
        if name not in self._watched:
            raise KeyError(f"place {name!r} is not watched by this trace")
        return [row[name] for row in self._rows]

    def times(self) -> List[float]:
        """Sample times, oldest first."""
        return [row["time"] for row in self._rows]

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)
