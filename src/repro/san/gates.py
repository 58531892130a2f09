"""SAN input and output gates.

Gates are where SANs go beyond plain Petri nets:

* an **input gate** attaches to an activity a *predicate* (the activity is
  enabled only while every attached input gate's predicate holds) and an
  *input function* executed when the activity completes — typically
  removing tokens;
* an **output gate** attaches a *function* executed after the input
  functions — typically depositing tokens or updating extended places.

Gate predicates and functions come in two forms:

* **closures** — zero-argument Python callables closing over the
  :class:`~repro.san.places.Place` objects they touch, mirroring how
  Mobius gate code bodies reference shared state variables directly;
* **expressions** — declarative IR from :mod:`repro.san.exprs`, passed
  as ``expr=`` (predicate) / ``effect=`` (function).  The framework
  compiles an expression to a specialized scalar evaluator here, and
  the engines additionally derive read/write sets from it, pin
  constant predicates, and (in the batch engine) compile vectorized
  lane kernels.  Closures remain a fully supported fallback and the
  two forms mix freely, even on one activity.

**Read sets.**  The compiled enablement engine only re-evaluates a
predicate when a place it reads has changed.  A gate's read set is
either *derived* from its expression, *declared* up front
(``reads=[place, ...]``), or *observed* on each evaluation via the
tracking hooks in :mod:`repro.san.places`.  Observation is sound for
predicates that are deterministic, pure functions of place state
accessed through place accessors — which every gate in this repository
is.  A predicate that depends on anything else (module globals, object
attributes, wall-clock) must be constructed with ``volatile=True`` so
the engine falls back to re-evaluating it after every completion,
exactly like the full-rescan engine.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ModelError, SimulationError
from . import exprs as _exprs

Predicate = Callable[[], bool]
GateFunction = Callable[[], None]

# Process-global predicate-evaluation counter.  Simulators capture
# before/after deltas around their run entry points to maintain the
# per-simulator counters surfaced through ``stats()``; it is not
# thread-safe (simulations are single-threaded per process).
_EVALUATIONS = 0


def count_evaluations(n: int = 1) -> None:
    """Account ``n`` predicate evaluations performed outside ``holds()``.

    The compiled engine's fused IR conjunctions and the batch engine's
    vector kernels evaluate gates without calling ``holds()``; they
    report those evaluations here so the per-simulator delta counters
    (``gate_evaluations`` / ``stats()``) stay comparable across engines.
    """
    global _EVALUATIONS
    _EVALUATIONS += n


def _noop() -> None:
    return None


class InputGate:
    """Predicate + input function guarding an activity.

    Args:
        name: gate name (diagnostics only; must be non-empty).
        predicate: zero-argument callable; the attached activity is enabled
            only while this returns a truthy value.  Mutually exclusive
            with ``expr``.
        function: executed when the activity completes, before any output
            gate.  Defaults to a no-op.  Mutually exclusive with
            ``effect``.
        reads: optional declared read set — the places whose markings the
            predicate depends on.  The compiled engine trusts this
            declaration instead of (in addition to) run-time observation;
            an incomplete declaration on a gate whose reads cannot be
            observed breaks cached re-evaluation, so declare every
            place the predicate can touch.  Unnecessary with ``expr``
            (the read set is derived).
        volatile: the predicate depends on state outside the declared or
            observable places; the compiled engine re-evaluates it
            after every completion (the conservative full-rescan
            behaviour, per gate).
        expr: declarative predicate expression (:mod:`repro.san.exprs`);
            compiled to a specialized evaluator, with the read set
            derived structurally.
        effect: declarative effect tuple replacing ``function``.
    """

    def __init__(
        self,
        name: str,
        predicate: Optional[Predicate] = None,
        function: Optional[GateFunction] = None,
        reads: Optional[Sequence] = None,
        volatile: bool = False,
        *,
        expr: Optional[_exprs.Expr] = None,
        effect: Optional[Sequence[_exprs.Effect]] = None,
    ) -> None:
        if not name:
            raise ModelError("an input gate needs a non-empty name")
        if expr is not None:
            if predicate is not None:
                raise ModelError(
                    f"input gate {name!r}: pass either predicate or expr, not both"
                )
            if not isinstance(expr, _exprs.Expr):
                raise ModelError(
                    f"input gate {name!r}: expr must be an Expr node, got "
                    f"{type(expr).__name__}"
                )
            if volatile:
                raise ModelError(
                    f"input gate {name!r}: an expression gate cannot be volatile "
                    "(its reads are fully derived)"
                )
            predicate = _exprs.compile_scalar_predicate(expr)
            if reads is None:
                reads = _exprs.expr_places(expr)
        elif not callable(predicate):
            raise ModelError(f"input gate {name!r}: predicate must be callable")
        if effect is not None:
            if function is not None:
                raise ModelError(
                    f"input gate {name!r}: pass either function or effect, not both"
                )
            effect = _exprs.effects(*effect)
            function = _exprs.compile_scalar_effects(effect)
        self.name = name
        self.expr = expr
        self.effect: Optional[Tuple[_exprs.Effect, ...]] = effect
        #: Fixed verdict of a constant predicate (``TRUE``/``FALSE``
        #: expressions); engines pin it instead of re-evaluating, which
        #: also keeps empty-read-set constants off the volatile path.
        self.constant_verdict: Optional[bool] = (
            _exprs.constant_verdict(expr) if expr is not None else None
        )
        self._predicate = predicate
        self._function = function if function is not None else _noop
        self.declared_reads: List = list(reads) if reads else []
        for place in self.declared_reads:
            if not hasattr(place, "_cell"):
                raise ModelError(
                    f"input gate {name!r}: reads must list Place/ExtendedPlace "
                    f"objects, got {type(place).__name__}"
                )
        self.volatile = bool(volatile)

    def declared_read_cells(self) -> List:
        """Storage cells of the declared read set, resolved lazily.

        Resolution must be lazy because Join redirects place cells
        *after* gates are constructed.
        """
        return [place._cell for place in self.declared_reads]

    def holds(self) -> bool:
        """Evaluate the predicate, wrapping model bugs in SimulationError."""
        global _EVALUATIONS
        _EVALUATIONS += 1
        try:
            return bool(self._predicate())
        except Exception as exc:  # surface the gate name in the traceback
            raise SimulationError(f"input gate {self.name!r} predicate raised: {exc}") from exc

    def fire(self) -> None:
        """Run the input function."""
        try:
            self._function()
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"input gate {self.name!r} function raised: {exc}") from exc

    def __repr__(self) -> str:
        return f"InputGate({self.name!r})"


class OutputGate:
    """State-update function run after an activity completes.

    Output gates attached to one activity case run in their attachment
    order — the framework relies on this for the deterministic per-tick
    sequencing documented in DESIGN.md §5.  Accepts either a closure
    ``function`` or a declarative ``effect=`` tuple (compiled to an
    equivalent function; the IR additionally gives the batch engine a
    lane-vectorized form).
    """

    def __init__(
        self,
        name: str,
        function: Optional[GateFunction] = None,
        *,
        effect: Optional[Sequence[_exprs.Effect]] = None,
    ) -> None:
        if not name:
            raise ModelError("an output gate needs a non-empty name")
        if effect is not None:
            if function is not None:
                raise ModelError(
                    f"output gate {name!r}: pass either function or effect, not both"
                )
            effect = _exprs.effects(*effect)
            function = _exprs.compile_scalar_effects(effect)
        elif not callable(function):
            raise ModelError(f"output gate {name!r}: function must be callable")
        self.name = name
        self.effect: Optional[Tuple[_exprs.Effect, ...]] = (
            tuple(effect) if effect is not None else None
        )
        self._function = function

    def fire(self) -> None:
        """Run the output function."""
        try:
            self._function()
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"output gate {self.name!r} function raised: {exc}") from exc

    def __repr__(self) -> str:
        return f"OutputGate({self.name!r})"
