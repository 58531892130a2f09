"""Declarative gate/reward expression IR.

Gate predicates and reward rates in this framework have historically
been opaque zero-argument Python closures.  Closures are maximally
expressive but *opaque*: the engines cannot see which places they read
(hence run-time read-set observation), cannot specialize them (every
evaluation pays attribute lookups and the read-sink protocol), and
cannot vectorize them over the replication axis (which is why the PR 7
batch engine only reached parity with the serial compiled engine).

This module adds a small typed expression IR that model code builds
fluently::

    ig("Sched_armed", expr=tokens(sched_tick) > 0)
    og("Consume", effect=effects(remove(sched_tick), add(timestamp)))

and the framework compiles three ways:

* **scalar** (:func:`compile_scalar_predicate` and friends) — generated
  Python source specialized to the places the expression touches.
  Token reads go straight through ``place._cell.tokens`` — no property
  dispatch, no read-sink bookkeeping — which is sound precisely because
  the read set is *derived* from the IR (:func:`expr_places`), so the
  engines no longer need run-time observation for IR gates.  Cell
  resolution stays lazy (the generated code holds the *place* and
  dereferences ``_cell`` per call) so Join/``share()`` redirection
  after gate construction keeps working.
* **vector** (:func:`compile_vector_predicate` / effects) — generated
  numpy source over a shared ``(R, n_places)`` int64 token matrix, so
  one ufunc pass evaluates a gate for all R batch lanes at once.  Only
  token-place expressions vectorize (:func:`vectorizable`); extended
  places hold arbitrary Python values and stay on the scalar path.
* **closure fallback** — everything that has no IR form (the RCS skew
  logic, health/maintenance dict juggling) remains an ordinary closure;
  :class:`~repro.san.gates.InputGate` accepts either and engines mix
  the two freely.

Bit-identity contract: generated scalar code performs the *same Python
arithmetic* the equivalent hand-written closure would (``True * 1`` is
``1``, ``x / n`` is float true division, ``in`` on a frozenset matches
``in`` on a tuple for hashable members), and the vector kernels perform
the same IEEE operations elementwise over int64 columns — so results
are exactly ``==`` across all compilation strategies, not merely close.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy

from ..errors import ModelError, SimulationError

__all__ = [
    "Expr",
    "TokensOf",
    "ExtField",
    "Const",
    "Compare",
    "InSet",
    "And",
    "Or",
    "Not",
    "ToInt",
    "ToFloat",
    "Arith",
    "BoolConst",
    "TRUE",
    "FALSE",
    "Effect",
    "AddTokens",
    "RemoveTokens",
    "SetTokens",
    "tokens",
    "field",
    "const",
    "isin",
    "count",
    "indicator",
    "land",
    "lor",
    "lnot",
    "add",
    "remove",
    "set_tokens",
    "effects",
    "conjunction",
    "expr_places",
    "effect_read_places",
    "effect_write_places",
    "vectorizable",
    "vectorizable_effects",
    "signature",
    "effects_signature",
    "compile_scalar_predicate",
    "compile_scalar_rate",
    "compile_scalar_effects",
    "compile_vector_predicate",
    "compile_vector_rate",
    "compile_vector_effects",
]

_COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")
_ARITH_OPS = ("+", "-", "*", "/")

#: Constant leaf types that may be embedded verbatim in generated source.
_LITERAL_TYPES = (bool, int, float, str, type(None))


def _is_place(obj: Any) -> bool:
    return hasattr(obj, "_cell") and hasattr(obj, "name")


def _as_expr(value: Any) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, _LITERAL_TYPES):
        return Const(value)
    raise ModelError(
        f"cannot use {type(value).__name__} in a gate expression; wrap "
        "places with tokens()/field() and other values with const()"
    )


class Expr:
    """Base expression node.

    Comparison and arithmetic operators build bigger expressions, so
    model code reads like the closure it replaces:
    ``tokens(p) > 0``, ``(tokens(a) + tokens(b)) / 2``.  Boolean
    connectives use ``&``, ``|`` and ``~`` (Python's ``and``/``or``
    cannot be overloaded).  Because ``==`` builds a node, Expr objects
    are identity-hashed and must not be used as dict/set keys expecting
    value semantics.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    # -- comparisons -> bool exprs ---------------------------------------
    def __lt__(self, other: Any) -> "Compare":
        return Compare("<", self, _as_expr(other))

    def __le__(self, other: Any) -> "Compare":
        return Compare("<=", self, _as_expr(other))

    def __gt__(self, other: Any) -> "Compare":
        return Compare(">", self, _as_expr(other))

    def __ge__(self, other: Any) -> "Compare":
        return Compare(">=", self, _as_expr(other))

    def __eq__(self, other: Any) -> "Compare":  # type: ignore[override]
        return Compare("==", self, _as_expr(other))

    def __ne__(self, other: Any) -> "Compare":  # type: ignore[override]
        return Compare("!=", self, _as_expr(other))

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: Any) -> "Arith":
        return Arith("+", self, _as_expr(other))

    def __radd__(self, other: Any) -> "Arith":
        return Arith("+", _as_expr(other), self)

    def __sub__(self, other: Any) -> "Arith":
        return Arith("-", self, _as_expr(other))

    def __mul__(self, other: Any) -> "Arith":
        return Arith("*", self, _as_expr(other))

    def __truediv__(self, other: Any) -> "Arith":
        return Arith("/", self, _as_expr(other))

    # -- boolean connectives ---------------------------------------------
    def __and__(self, other: Any) -> "And":
        return And((self, _as_expr(other)))

    def __or__(self, other: Any) -> "Or":
        return Or((self, _as_expr(other)))

    def __invert__(self) -> "Not":
        return Not(self)


class TokensOf(Expr):
    """The integer marking of a token place."""

    __slots__ = ("place",)

    def __init__(self, place: Any) -> None:
        if not _is_place(place):
            raise ModelError(
                f"tokens() needs a Place, got {type(place).__name__}"
            )
        self.place = place


class ExtField(Expr):
    """A field read from an extended place's structured value.

    ``path`` is a tuple of subscripts applied in order, e.g.
    ``field(pcpus, 0, "state")`` reads ``pcpus.value[0]["state"]``.
    An empty path reads the whole value.
    """

    __slots__ = ("place", "path")

    def __init__(self, place: Any, path: Tuple[Any, ...]) -> None:
        if not _is_place(place):
            raise ModelError(
                f"field() needs an ExtendedPlace, got {type(place).__name__}"
            )
        for key in path:
            if not isinstance(key, (int, str)):
                raise ModelError(
                    f"field() path components must be int or str, got "
                    f"{type(key).__name__}"
                )
        self.place = place
        self.path = tuple(path)


class Const(Expr):
    """A literal constant (int, float, str, bool, or None)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        if not isinstance(value, _LITERAL_TYPES):
            raise ModelError(
                f"const() supports int/float/str/bool/None literals, got "
                f"{type(value).__name__}"
            )
        self.value = value


class BoolConst(Expr):
    """The constant predicates ``TRUE`` and ``FALSE``.

    A gate whose whole expression is a :class:`BoolConst` exposes a
    ``constant_verdict`` the engines pin instead of re-evaluating —
    the fix for ``lambda: True`` gates being demoted to the volatile
    re-evaluate-every-flush path (their observed read set is empty).
    """

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = bool(value)


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Compare(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARE_OPS:
            raise ModelError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right


class InSet(Expr):
    """Membership of an expression's value in a fixed literal set."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: Expr, values: Sequence[Any]) -> None:
        members = frozenset(values)
        if not members:
            raise ModelError("isin() needs a non-empty set of values")
        for member in members:
            if not isinstance(member, _LITERAL_TYPES):
                raise ModelError(
                    f"isin() members must be literals, got {type(member).__name__}"
                )
        self.operand = operand
        self.values = members


class And(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Expr]) -> None:
        flat: List[Expr] = []
        for part in parts:
            if isinstance(part, And):
                flat.extend(part.parts)
            else:
                flat.append(_as_expr(part))
        if not flat:
            raise ModelError("and-expression needs at least one operand")
        self.parts = tuple(flat)


class Or(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Expr]) -> None:
        flat: List[Expr] = []
        for part in parts:
            if isinstance(part, Or):
                flat.extend(part.parts)
            else:
                flat.append(_as_expr(part))
        if not flat:
            raise ModelError("or-expression needs at least one operand")
        self.parts = tuple(flat)


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = _as_expr(operand)


class ToInt(Expr):
    """A boolean as 0/1 — for counting: ``count(tokens(p) > 0)``."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = _as_expr(operand)


class ToFloat(Expr):
    """A boolean as 0.0/1.0 — the classic indicator-rate reward."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = _as_expr(operand)


class Arith(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH_OPS:
            raise ModelError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right


# -- effects -------------------------------------------------------------


class Effect:
    """Base class of token effects (the IR of gate functions)."""

    __slots__ = ()


class AddTokens(Effect):
    __slots__ = ("place", "n")

    def __init__(self, place: Any, n: int = 1) -> None:
        if not _is_place(place):
            raise ModelError(f"add() needs a Place, got {type(place).__name__}")
        if not isinstance(n, int) or n < 0:
            raise ModelError(f"add() count must be an int >= 0, got {n!r}")
        self.place = place
        self.n = n


class RemoveTokens(Effect):
    __slots__ = ("place", "n")

    def __init__(self, place: Any, n: int = 1) -> None:
        if not _is_place(place):
            raise ModelError(f"remove() needs a Place, got {type(place).__name__}")
        if not isinstance(n, int) or n < 0:
            raise ModelError(f"remove() count must be an int >= 0, got {n!r}")
        self.place = place
        self.n = n


class SetTokens(Effect):
    """Set a place's marking to a constant or an expression's value."""

    __slots__ = ("place", "value")

    def __init__(self, place: Any, value: Union[int, Expr]) -> None:
        if not _is_place(place):
            raise ModelError(
                f"set_tokens() needs a Place, got {type(place).__name__}"
            )
        if isinstance(value, int) and not isinstance(value, bool):
            if value < 0:
                raise ModelError(
                    f"set_tokens() constant must be >= 0, got {value}"
                )
            value = Const(value)
        elif not isinstance(value, Expr):
            raise ModelError(
                "set_tokens() value must be an int or an expression, got "
                f"{type(value).__name__}"
            )
        self.place = place
        self.value = value


# -- fluent builders ------------------------------------------------------


def tokens(place: Any) -> TokensOf:
    """The marking of ``place`` as an integer expression."""
    return TokensOf(place)


def field(place: Any, *path: Any) -> ExtField:
    """A subscript chain into an extended place's value."""
    return ExtField(place, tuple(path))


def const(value: Any) -> Const:
    """An explicit literal (usually implied by operator overloads)."""
    return Const(value)


def isin(operand: Expr, values: Sequence[Any]) -> InSet:
    """Membership test: ``isin(field(slot, "status"), VCPUStatus.ACTIVE)``."""
    return InSet(_as_expr(operand), values)


def count(operand: Expr) -> ToInt:
    """A boolean as 0/1, for summing indicators."""
    return ToInt(operand)


def indicator(operand: Expr) -> ToFloat:
    """A boolean as 0.0/1.0, the indicator rate-reward shape."""
    return ToFloat(operand)


def land(*parts: Expr) -> Expr:
    """Conjunction of one or more boolean expressions."""
    return parts[0] if len(parts) == 1 else And(parts)


def lor(*parts: Expr) -> Expr:
    """Disjunction of one or more boolean expressions."""
    return parts[0] if len(parts) == 1 else Or(parts)


def lnot(operand: Expr) -> Not:
    """Negation."""
    return Not(operand)


def add(place: Any, n: int = 1) -> AddTokens:
    """Deposit ``n`` tokens on completion."""
    return AddTokens(place, n)


def remove(place: Any, n: int = 1) -> RemoveTokens:
    """Withdraw ``n`` tokens on completion (raises if negative)."""
    return RemoveTokens(place, n)


def set_tokens(place: Any, value: Union[int, Expr]) -> SetTokens:
    """Set a place's marking on completion."""
    return SetTokens(place, value)


def effects(*items: Effect) -> Tuple[Effect, ...]:
    """An ordered effect list (executed in the given order)."""
    for item in items:
        if not isinstance(item, Effect):
            raise ModelError(
                f"effects() entries must be Effect nodes, got "
                f"{type(item).__name__}"
            )
    return tuple(items)


def conjunction(exprs: Sequence[Expr]) -> Expr:
    """The fused AND of several gate expressions (engine helper)."""
    parts = [e for e in exprs]
    if not parts:
        raise ModelError("conjunction() needs at least one expression")
    return parts[0] if len(parts) == 1 else And(parts)


# -- structural queries ---------------------------------------------------


def _walk(expr: Expr):
    yield expr
    if isinstance(expr, (Compare, Arith)):
        yield from _walk(expr.left)
        yield from _walk(expr.right)
    elif isinstance(expr, (And, Or)):
        for part in expr.parts:
            yield from _walk(part)
    elif isinstance(expr, (Not, ToInt, ToFloat)):
        yield from _walk(expr.operand)
    elif isinstance(expr, InSet):
        yield from _walk(expr.operand)


def expr_places(expr: Expr) -> List[Any]:
    """Places an expression reads, in first-occurrence order."""
    seen: List[Any] = []
    for node in _walk(expr):
        if isinstance(node, (TokensOf, ExtField)) and node.place not in seen:
            seen.append(node.place)
    return seen


def effect_read_places(items: Sequence[Effect]) -> List[Any]:
    """Places an effect list reads (set_tokens value expressions)."""
    seen: List[Any] = []
    for item in items:
        if isinstance(item, SetTokens):
            for place in expr_places(item.value):
                if place not in seen:
                    seen.append(place)
    return seen


def effect_write_places(items: Sequence[Effect]) -> List[Any]:
    """Places an effect list writes, in first-occurrence order."""
    seen: List[Any] = []
    for item in items:
        if item.place not in seen:
            seen.append(item.place)
    return seen


def is_boolean(expr: Expr) -> bool:
    """True when the node is boolean-valued (usable as a predicate)."""
    return isinstance(expr, (Compare, InSet, And, Or, Not, BoolConst))


def constant_verdict(expr: Expr) -> Optional[bool]:
    """The fixed verdict of a constant predicate, else None."""
    if isinstance(expr, BoolConst):
        return expr.value
    return None


def vectorizable(expr: Expr) -> bool:
    """True when every read is a token place and every leaf numeric.

    Extended-place fields hold arbitrary Python objects, and string
    comparisons/membership have no int64-column form — those stay on
    the scalar path.
    """
    for node in _walk(expr):
        if isinstance(node, ExtField):
            return False
        if isinstance(node, (Const,)) and not isinstance(
            node.value, (bool, int, float)
        ):
            return False
        if isinstance(node, InSet):
            return False
    return True


def vectorizable_effects(items: Sequence[Effect]) -> bool:
    """True when every effect has an int64-matrix form.

    ``set_tokens`` vectorizes only with a constant value — expression
    values would need per-lane evaluation ordering guarantees the
    kernel does not promise.
    """
    for item in items:
        if isinstance(item, SetTokens) and not (
            isinstance(item.value, Const)
            and isinstance(item.value.value, int)
            and not isinstance(item.value.value, bool)
        ):
            return False
    return True


# -- canonical signatures --------------------------------------------------
#
# The batch driver validates that every lane's model carries the *same*
# IR before sharing compiled kernels built from lane 0's expression
# objects.  Signatures are name-based (places are identified by name),
# so structurally identical models built by the same builder compare
# equal while any divergence — different constants, different operand
# order — is caught.


def signature(expr: Expr) -> str:
    """A canonical structural string for cross-lane validation."""
    if isinstance(expr, TokensOf):
        return f"tok({expr.place.name})"
    if isinstance(expr, ExtField):
        return f"fld({expr.place.name},{expr.path!r})"
    if isinstance(expr, Const):
        return f"c({expr.value!r})"
    if isinstance(expr, BoolConst):
        return f"b({expr.value})"
    if isinstance(expr, Compare):
        return f"({signature(expr.left)}{expr.op}{signature(expr.right)})"
    if isinstance(expr, InSet):
        members = ",".join(sorted(repr(v) for v in expr.values))
        return f"in({signature(expr.operand)},[{members}])"
    if isinstance(expr, And):
        return "&".join(signature(p) for p in expr.parts).join("()")
    if isinstance(expr, Or):
        return "|".join(signature(p) for p in expr.parts).join("()")
    if isinstance(expr, Not):
        return f"!({signature(expr.operand)})"
    if isinstance(expr, ToInt):
        return f"int({signature(expr.operand)})"
    if isinstance(expr, ToFloat):
        return f"flt({signature(expr.operand)})"
    if isinstance(expr, Arith):
        return f"({signature(expr.left)}{expr.op}{signature(expr.right)})"
    raise ModelError(f"unknown expression node {type(expr).__name__}")


def effects_signature(items: Sequence[Effect]) -> str:
    parts = []
    for item in items:
        if isinstance(item, AddTokens):
            parts.append(f"add({item.place.name},{item.n})")
        elif isinstance(item, RemoveTokens):
            parts.append(f"rem({item.place.name},{item.n})")
        elif isinstance(item, SetTokens):
            parts.append(f"set({item.place.name},{signature(item.value)})")
        else:
            raise ModelError(f"unknown effect node {type(item).__name__}")
    return ";".join(parts)


# -- column-abstracted shapes ----------------------------------------------
#
# Replicated model fragments (``Finish_0`` .. ``Finish_7``) differ only
# in *which* place each token read/write touches — operators, operand
# order, and constants are identical.  A shape signature abstracts the
# place out of :func:`signature`, so two expressions with equal shapes
# can share one *family* kernel that evaluates every member at once by
# indexing the token matrix with per-occurrence column arrays.


def shape_signature(expr: Expr) -> str:
    """:func:`signature` with every place leaf abstracted to ``@``."""
    if isinstance(expr, TokensOf):
        return "tok(@)"
    if isinstance(expr, ExtField):
        return f"fld(@,{expr.path!r})"
    if isinstance(expr, Const):
        return f"c({expr.value!r})"
    if isinstance(expr, BoolConst):
        return f"b({expr.value})"
    if isinstance(expr, Compare):
        return f"({shape_signature(expr.left)}{expr.op}{shape_signature(expr.right)})"
    if isinstance(expr, InSet):
        members = ",".join(sorted(repr(v) for v in expr.values))
        return f"in({shape_signature(expr.operand)},[{members}])"
    if isinstance(expr, And):
        return "&".join(shape_signature(p) for p in expr.parts).join("()")
    if isinstance(expr, Or):
        return "|".join(shape_signature(p) for p in expr.parts).join("()")
    if isinstance(expr, Not):
        return f"!({shape_signature(expr.operand)})"
    if isinstance(expr, ToInt):
        return f"int({shape_signature(expr.operand)})"
    if isinstance(expr, ToFloat):
        return f"flt({shape_signature(expr.operand)})"
    if isinstance(expr, Arith):
        return f"({shape_signature(expr.left)}{expr.op}{shape_signature(expr.right)})"
    raise ModelError(f"unknown expression node {type(expr).__name__}")


def effects_shape_signature(items: Sequence[Effect]) -> str:
    """:func:`effects_signature` with place names abstracted to ``@``."""
    parts = []
    for item in items:
        if isinstance(item, AddTokens):
            parts.append(f"add(@,{item.n})")
        elif isinstance(item, RemoveTokens):
            parts.append(f"rem(@,{item.n})")
        elif isinstance(item, SetTokens):
            parts.append(f"set(@,{shape_signature(item.value)})")
        else:
            raise ModelError(f"unknown effect node {type(item).__name__}")
    return ";".join(parts)


def expr_leaf_cols(expr: Expr, colmap: Dict[int, int]) -> List[int]:
    """Matrix columns of every ``TokensOf`` *occurrence*, in walk order.

    Unlike :func:`expr_places` this does not deduplicate: the family
    emitter binds one column array per leaf occurrence, and members may
    legitimately read the same place at several occurrences.
    """
    return [
        _col(node.place, colmap)
        for node in _walk(expr)
        if isinstance(node, TokensOf)
    ]


def effect_leaf_cols(items: Sequence[Effect], colmap: Dict[int, int]) -> List[int]:
    """Matrix column of each effect item's target place, in order."""
    return [_col(item.place, colmap) for item in items]


# -- scalar compilation ----------------------------------------------------


class _Ctx:
    """Codegen environment: binds live objects to generated names.

    The generated source never names a builtin directly, but the env
    still carries the real builtins: numpy's reduction methods resolve
    ``__import__`` through the calling frame's builtins, so an empty
    dict would break the vector kernels at run time.
    """

    def __init__(self) -> None:
        self.env: Dict[str, Any] = {"__builtins__": __builtins__}
        self._n = 0
        self._place_names: Dict[int, str] = {}

    def bind(self, prefix: str, obj: Any) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.env[name] = obj
        return name

    def bind_place(self, place: Any) -> str:
        # One name per place object keeps generated source short.
        name = self._place_names.get(id(place))
        if name is None:
            name = self.bind("p", place)
            self._place_names[id(place)] = name
        return name


def _emit_scalar(expr: Expr, ctx: _Ctx) -> str:
    if isinstance(expr, TokensOf):
        return f"{ctx.bind_place(expr.place)}._cell.tokens"
    if isinstance(expr, ExtField):
        chain = "".join(f"[{key!r}]" for key in expr.path)
        return f"{ctx.bind_place(expr.place)}._cell.value{chain}"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, BoolConst):
        return "True" if expr.value else "False"
    if isinstance(expr, Compare):
        left = _emit_scalar(expr.left, ctx)
        right = _emit_scalar(expr.right, ctx)
        return f"(({left}) {expr.op} ({right}))"
    if isinstance(expr, InSet):
        operand = _emit_scalar(expr.operand, ctx)
        return f"(({operand}) in {ctx.bind('s', expr.values)})"
    if isinstance(expr, And):
        return "(" + " and ".join(
            f"({_emit_scalar(p, ctx)})" for p in expr.parts
        ) + ")"
    if isinstance(expr, Or):
        return "(" + " or ".join(
            f"({_emit_scalar(p, ctx)})" for p in expr.parts
        ) + ")"
    if isinstance(expr, Not):
        return f"(not ({_emit_scalar(expr.operand, ctx)}))"
    if isinstance(expr, ToInt):
        # bool * 1 is exactly the int the closure idiom sums.
        return f"(({_emit_scalar(expr.operand, ctx)}) * 1)"
    if isinstance(expr, ToFloat):
        # bool * 1.0 is exactly 1.0/0.0 — the indicator-rate idiom.
        return f"(({_emit_scalar(expr.operand, ctx)}) * 1.0)"
    if isinstance(expr, Arith):
        # A left-nested chain of one operator is emitted flat
        # ("a + b + c"): Python groups it to the left, so values and
        # evaluation order are unchanged, while one paren pair per term
        # would overflow the parser's nesting limit (a reward summing
        # more than 97 VCPUs).  Right operands keep their parens.
        rights: List[Expr] = []
        node: Expr = expr
        while isinstance(node, Arith) and node.op == expr.op:
            rights.append(node.right)
            node = node.left
        head = _emit_scalar(node, ctx)
        tail = "".join(
            f" {expr.op} ({_emit_scalar(right, ctx)})" for right in reversed(rights)
        )
        return f"(({head}){tail})"
    raise ModelError(f"unknown expression node {type(expr).__name__}")


@functools.lru_cache(maxsize=4096)
def _code(src: str) -> Any:
    """The code object of a generated source, compiled once per text.

    Generated source names places and helpers only through the ``_Ctx``
    bindings (``p0``, ``s1``, ``C2`` ...), never by identity, so every
    gate of one shape — the same gate in each model built for a spec,
    each lane of a batch — yields the same text and shares one code
    object, executed into its own env.
    """
    return compile(src, "<san-expr-ir>", "exec")


def _compile_function(src: str, env: Dict[str, Any], name: str) -> Callable:
    exec(_code(src), env)
    return env[name]


def compile_scalar_predicate(expr: Expr) -> Callable[[], bool]:
    """A zero-argument specialized evaluator of a boolean expression."""
    if not is_boolean(expr):
        raise ModelError(
            "a gate predicate expression must be boolean-valued "
            f"(got {type(expr).__name__}); compare or wrap it"
        )
    ctx = _Ctx()
    body = _emit_scalar(expr, ctx)
    src = f"def _pred():\n    return {body}\n"
    return _compile_function(src, ctx.env, "_pred")


def compile_scalar_rate(expr: Expr) -> Callable[[], float]:
    """A zero-argument specialized evaluator of a numeric expression."""
    if is_boolean(expr):
        raise ModelError(
            "a rate expression must be numeric; wrap booleans with "
            "indicator() or count()"
        )
    ctx = _Ctx()
    body = _emit_scalar(expr, ctx)
    src = f"def _rate():\n    return {body}\n"
    return _compile_function(src, ctx.env, "_rate")


def compile_scalar_effects(items: Sequence[Effect]) -> Callable[[], None]:
    """A zero-argument effect function using the public place API.

    Effects must go through the place accessors (``add``/``remove``/
    the ``tokens`` setter) so the engines' dirty-tracking sinks see
    every write — unlike predicate reads, which bypass the sink because
    the write set is statically derived.
    """
    ctx = _Ctx()
    lines: List[str] = []
    for item in items:
        name = ctx.bind_place(item.place)
        if isinstance(item, AddTokens):
            lines.append(f"{name}.add({item.n})")
        elif isinstance(item, RemoveTokens):
            lines.append(f"{name}.remove({item.n})")
        elif isinstance(item, SetTokens):
            lines.append(f"{name}.tokens = {_emit_scalar(item.value, ctx)}")
        else:
            raise ModelError(f"unknown effect node {type(item).__name__}")
    body = "".join(f"    {line}\n" for line in lines) or "    pass\n"
    src = f"def _fx():\n{body}"
    return _compile_function(src, ctx.env, "_fx")


# -- vector compilation ----------------------------------------------------
#
# ``colmap`` maps ``id(cell)`` -> column index into the shared
# ``(R, n_places)`` int64 token matrix.  It is keyed by *cell* (not
# place) because Join redirects several places onto one cell and the
# matrix must hold one authoritative column per storage location.
# Kernels are compiled per model *shape* (lane 0) and shared across
# lanes after signature validation.


def _col(place: Any, colmap: Dict[int, int]) -> int:
    try:
        return colmap[id(place._cell)]
    except KeyError:
        raise ModelError(
            f"place {place.name!r} is missing from the batch column layout"
        ) from None


def _emit_vector(expr: Expr, colmap: Dict[int, int], ctx: _Ctx) -> str:
    if isinstance(expr, TokensOf):
        return f"M[:, {_col(expr.place, colmap)}]"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, BoolConst):
        return "True" if expr.value else "False"
    if isinstance(expr, Compare):
        left = _emit_vector(expr.left, colmap, ctx)
        right = _emit_vector(expr.right, colmap, ctx)
        return f"(({left}) {expr.op} ({right}))"
    if isinstance(expr, And):
        return "(" + " & ".join(
            f"({_emit_vector(p, colmap, ctx)})" for p in expr.parts
        ) + ")"
    if isinstance(expr, Or):
        return "(" + " | ".join(
            f"({_emit_vector(p, colmap, ctx)})" for p in expr.parts
        ) + ")"
    if isinstance(expr, Not):
        return f"(~({_emit_vector(expr.operand, colmap, ctx)}))"
    if isinstance(expr, ToInt):
        return f"(({_emit_vector(expr.operand, colmap, ctx)}) * 1)"
    if isinstance(expr, ToFloat):
        return f"(({_emit_vector(expr.operand, colmap, ctx)}) * 1.0)"
    if isinstance(expr, Arith):
        if expr.op == "+":
            fused = _emit_count_sum(expr, colmap, ctx)
            if fused is not None:
                return fused
        left = _emit_vector(expr.left, colmap, ctx)
        right = _emit_vector(expr.right, colmap, ctx)
        return f"(({left}) {expr.op} ({right}))"
    raise ModelError(
        f"expression node {type(expr).__name__} has no vector form"
    )


def _flatten_add(expr: Expr, terms: List[Expr]) -> None:
    if isinstance(expr, Arith) and expr.op == "+":
        _flatten_add(expr.left, terms)
        _flatten_add(expr.right, terms)
    else:
        terms.append(expr)


def _emit_count_sum(
    expr: Expr, colmap: Dict[int, int], ctx: _Ctx
) -> Optional[str]:
    """Fuse ``count(a) + count(b) + ...`` over same-shape predicates.

    The reward idiom ``sum of indicators over replicated places`` is a
    left-nested integer Add chain; when every term is ``ToInt`` of a
    structurally identical predicate (same shape, different columns),
    the whole chain evaluates as one family kernel — a column-array
    gather per leaf, one elementwise pass, one integer row reduction.
    Integer addition is exact, so the reduction is bit-identical to the
    nested adds regardless of association order.
    """
    terms: List[Expr] = []
    _flatten_add(expr, terms)
    if len(terms) < 3 or not all(isinstance(t, ToInt) for t in terms):
        return None
    shapes = {shape_signature(t.operand) for t in terms}
    if len(shapes) != 1:
        return None
    member_cols = [expr_leaf_cols(t.operand, colmap) for t in terms]
    body = _emit_family(terms[0].operand, _family_col_names(member_cols, ctx))
    return f"((({body}) * 1).sum(axis=1))"


def compile_vector_predicate(
    expr: Expr, colmap: Dict[int, int]
) -> Callable[[Any], Any]:
    """``fn(M) -> (R,) bool`` evaluating the gate for every lane at once."""
    if not is_boolean(expr):
        raise ModelError("a vector predicate must be boolean-valued")
    ctx = _Ctx()
    body = _emit_vector(expr, colmap, ctx)
    src = f"def _vpred(M):\n    return {body}\n"
    return _compile_function(src, ctx.env, "_vpred")


def compile_vector_rate(
    expr: Expr, colmap: Dict[int, int]
) -> Callable[[Any], Any]:
    """``fn(M) -> (R,) float64`` — one reward rate for every lane."""
    if is_boolean(expr):
        raise ModelError("a vector rate must be numeric; use indicator()")
    ctx = _Ctx()
    body = _emit_vector(expr, colmap, ctx)
    src = f"def _vrate(M):\n    return {body}\n"
    return _compile_function(src, ctx.env, "_vrate")


def compile_vector_effects(
    items: Sequence[Effect], colmap: Dict[int, int]
) -> Callable[[Any, Any], None]:
    """``fn(M, rows)`` applying the effect list to the given lane rows.

    Mirrors the scalar semantics exactly, including the negative-
    marking guard ``Place.remove`` enforces.
    """
    ctx = _Ctx()
    ctx.env["_negative"] = _raise_negative
    lines: List[str] = []
    for item in items:
        col = _col(item.place, colmap)
        pname = repr(item.place.name)
        if isinstance(item, AddTokens):
            if item.n:
                lines.append(f"M[rows, {col}] += {item.n}")
        elif isinstance(item, RemoveTokens):
            if item.n:
                lines.append(f"_c = M[rows, {col}] - {item.n}")
                lines.append(f"if (_c < 0).any(): _negative({pname})")
                lines.append(f"M[rows, {col}] = _c")
        elif isinstance(item, SetTokens):
            value = item.value
            if not isinstance(value, Const) or not isinstance(value.value, int):
                raise ModelError(
                    f"set_tokens on {item.place.name!r} has no vector form "
                    "(non-constant value)"
                )
            lines.append(f"M[rows, {col}] = {value.value}")
        else:
            raise ModelError(f"unknown effect node {type(item).__name__}")
    body = "".join(f"    {line}\n" for line in lines) or "    pass\n"
    src = f"def _vfx(M, rows):\n{body}"
    return _compile_function(src, ctx.env, "_vfx")


# -- family compilation ----------------------------------------------------
#
# A *family* is a run of activities whose gate and effect shapes are
# identical (``Dispatch_0`` .. ``Dispatch_{G-1}``).  One family kernel
# replaces the member-by-member calls the batch driver would otherwise
# make: the predicate evaluates every (lane, member) pair through
# column-array gathers, and the effect kernel scatters one fused
# ``M[rows, cols[js]]`` update per effect item across all fired pairs.
# Scatters never alias within an item — each lane fires at most one
# activity per round or settle pass, so the (row, column) index pairs
# are unique — which keeps the item-by-item apply order identical to
# the serial engines'.


def _family_col_names(
    member_cols: Sequence[Sequence[int]], ctx: _Ctx
) -> List[str]:
    """Bind one column array per leaf occurrence; return their names."""
    n_occ = len(member_cols[0])
    return [
        ctx.bind(
            "C",
            numpy.array([mc[i] for mc in member_cols], dtype=numpy.intp),
        )
        for i in range(n_occ)
    ]


def _emit_family(expr: Expr, col_names: Sequence[str]) -> str:
    """Emit the template over ``(R, m)`` per-occurrence column gathers."""
    names = iter(col_names)

    def emit(node: Expr) -> str:
        if isinstance(node, TokensOf):
            return f"M[:, {next(names)}]"
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, BoolConst):
            return "True" if node.value else "False"
        if isinstance(node, Compare):
            return f"(({emit(node.left)}) {node.op} ({emit(node.right)}))"
        if isinstance(node, And):
            return "(" + " & ".join(f"({emit(p)})" for p in node.parts) + ")"
        if isinstance(node, Or):
            return "(" + " | ".join(f"({emit(p)})" for p in node.parts) + ")"
        if isinstance(node, Not):
            return f"(~({emit(node.operand)}))"
        if isinstance(node, ToInt):
            return f"(({emit(node.operand)}) * 1)"
        if isinstance(node, ToFloat):
            return f"(({emit(node.operand)}) * 1.0)"
        if isinstance(node, Arith):
            return f"(({emit(node.left)}) {node.op} ({emit(node.right)}))"
        raise ModelError(
            f"expression node {type(node).__name__} has no family form"
        )

    return emit(expr)


def compile_family_predicate(
    template: Expr, member_cols: Sequence[Sequence[int]]
) -> Callable[[Any], Any]:
    """``fn(M) -> (R, m) bool`` — one gate shape over m member columns.

    ``member_cols`` lists, per family member, the matrix column of each
    ``TokensOf`` occurrence of ``template`` in walk order (the order
    :func:`expr_leaf_cols` returns).
    """
    if not is_boolean(template):
        raise ModelError("a family predicate must be boolean-valued")
    ctx = _Ctx()
    body = _emit_family(template, _family_col_names(member_cols, ctx))
    src = f"def _vfpred(M):\n    return {body}\n"
    return _compile_function(src, ctx.env, "_vfpred")


def compile_family_effects(
    template: Sequence[Effect],
    member_cols: Sequence[Sequence[int]],
    member_names: Sequence[Sequence[str]],
) -> Callable[[Any, Any, Any], None]:
    """``fn(M, rows, js)`` applying the template to fired (lane, member) pairs.

    ``rows`` and ``js`` are parallel index arrays: lane row and family
    member index of each firing.  ``member_cols``/``member_names`` give,
    per member, the column and place name of each effect item.
    """
    ctx = _Ctx()
    ctx.env["_negfam"] = _raise_negative_family
    lines: List[str] = []
    for i, item in enumerate(template):
        col_name = ctx.bind(
            "E",
            numpy.array([mc[i] for mc in member_cols], dtype=numpy.intp),
        )
        if isinstance(item, AddTokens):
            if item.n:
                lines.append(f"M[rows, {col_name}[js]] += {item.n}")
        elif isinstance(item, RemoveTokens):
            if item.n:
                names = ctx.bind("N", [mn[i] for mn in member_names])
                lines.append(f"_e = {col_name}[js]")
                lines.append(f"_c = M[rows, _e] - {item.n}")
                lines.append(f"if (_c < 0).any(): _negfam({names}, js, _c)")
                lines.append("M[rows, _e] = _c")
        elif isinstance(item, SetTokens):
            value = item.value
            if not isinstance(value, Const) or not isinstance(value.value, int):
                raise ModelError(
                    f"set_tokens on {item.place.name!r} has no vector form "
                    "(non-constant value)"
                )
            lines.append(f"M[rows, {col_name}[js]] = {value.value}")
        else:
            raise ModelError(f"unknown effect node {type(item).__name__}")
    body = "".join(f"    {line}\n" for line in lines) or "    pass\n"
    src = f"def _vffx(M, rows, js):\n{body}"
    return _compile_function(src, ctx.env, "_vffx")


def _raise_negative(place_name: str) -> None:
    raise SimulationError(
        f"place {place_name!r}: marking would go negative (batch lane)"
    )


def _raise_negative_family(names: Sequence[str], js: Any, counts: Any) -> None:
    for i, count in enumerate(counts.tolist()):
        if count < 0:
            _raise_negative(names[int(js[i])])
