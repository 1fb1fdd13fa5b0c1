"""Symbolic shape/dtype lattice for the array-contract analyzer.

Dimensions are **polynomials over named symbols** (``N``, ``C``,
``n_opp``) with integer coefficients: the contract vocabulary the
kernel modules annotate their arrays with.  Polynomial arithmetic is
what lets the interpreter prove facts like *"the slice
``[u * w : (u + 1) * w]`` has width ``w``"* or *"``buf[:, p:]`` of a
``(N, p + n)`` buffer has width ``n``"* without knowing any concrete
sizes.  Opaque dimensions — sizes the interpreter cannot relate to any
contract symbol — are fresh anonymous symbols (``?17``): they compare
equal only to themselves, so an opaque dimension is *compatible with
everything* (no finding is ever based on a size we merely failed to
track).

Abstract values mirror the handful of runtime kinds the kernels
traffic in: arrays (shape, dtype, may-alias buffer set, view key),
symbolic integers (a :class:`Dim`), floats/bools/strings (opaque),
tuples, ``None``, contract-typed objects, and unknown.  The aliasing
fields power REPRO-S003: every materialized array gets a fresh buffer
id, views inherit their base's buffers plus an access-path view key,
and two values may alias iff their buffer sets intersect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "DTYPE_BOOL",
    "DTYPE_F32",
    "DTYPE_F64",
    "DTYPE_I8",
    "DTYPE_I64",
    "DTYPE_UNKNOWN",
    "ArrayV",
    "BoolV",
    "Dim",
    "FloatV",
    "IntV",
    "NoneV",
    "ObjV",
    "StrV",
    "TupleV",
    "UnknownV",
    "Value",
    "broadcast_dims",
    "broadcast_shapes",
    "dims_compatible",
    "format_shape",
    "fresh_buffer",
    "fresh_dim",
    "join_values",
    "promote_dtypes",
    "shapes_equal",
]


# ----------------------------------------------------------------------
# Dimensions: integer polynomials over named symbols
# ----------------------------------------------------------------------
_COUNTER = itertools.count(1)


def _next_id() -> int:
    return next(_COUNTER)


@dataclass(frozen=True)
class Dim:
    """A dimension as a polynomial: ``terms[monomial] -> coefficient``.

    ``terms`` is a sorted tuple of ``(monomial, coeff)`` pairs where a
    monomial is a sorted tuple of symbol names (``()`` is the constant
    term).  ``Dim.const(3)``, ``Dim.sym("N")`` and arithmetic build
    everything else; the representation is canonical, so ``==`` decides
    polynomial identity.
    """

    terms: tuple[tuple[tuple[str, ...], int], ...] = ()

    # -- constructors --------------------------------------------------
    @staticmethod
    def const(value: int) -> "Dim":
        return Dim(((tuple(), int(value)),)) if value else Dim()

    @staticmethod
    def sym(name: str) -> "Dim":
        return Dim((((name,), 1),))

    @staticmethod
    def _from_map(mapping: dict[tuple[str, ...], int]) -> "Dim":
        items = tuple(
            sorted((m, c) for m, c in mapping.items() if c != 0)
        )
        return Dim(items)

    # -- queries -------------------------------------------------------
    @property
    def is_const(self) -> bool:
        return all(m == () for m, _ in self.terms)

    @property
    def const_value(self) -> Optional[int]:
        if not self.is_const:
            return None
        return self.terms[0][1] if self.terms else 0

    @property
    def is_opaque(self) -> bool:
        """True when any symbol is anonymous (``?n``): size untracked."""
        return any(
            sym.startswith("?") for m, _ in self.terms for sym in m
        )

    @property
    def is_one(self) -> bool:
        return self.const_value == 1

    # -- arithmetic ----------------------------------------------------
    def _as_map(self) -> dict[tuple[str, ...], int]:
        return {m: c for m, c in self.terms}

    def __add__(self, other: "Dim") -> "Dim":
        out = self._as_map()
        for m, c in other.terms:
            out[m] = out.get(m, 0) + c
        return Dim._from_map(out)

    def __sub__(self, other: "Dim") -> "Dim":
        out = self._as_map()
        for m, c in other.terms:
            out[m] = out.get(m, 0) - c
        return Dim._from_map(out)

    def __mul__(self, other: "Dim") -> "Dim":
        out: dict[tuple[str, ...], int] = {}
        for m1, c1 in self.terms or ((tuple(), 0),):
            for m2, c2 in other.terms or ((tuple(), 0),):
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return Dim._from_map(out)

    def __neg__(self) -> "Dim":
        return Dim.const(0) - self

    def substitute(self, mapping: dict[str, "Dim"]) -> "Dim":
        """This polynomial with named symbols replaced per ``mapping``."""
        out = Dim()
        for mono, coeff in self.terms:
            term = Dim.const(coeff)
            for sym in mono:
                term = term * mapping.get(sym, Dim.sym(sym))
            out = out + term
        return out

    @property
    def as_symbol(self) -> Optional[str]:
        """The symbol name when this dim is exactly one named symbol."""
        if len(self.terms) == 1:
            mono, coeff = self.terms[0]
            if coeff == 1 and len(mono) == 1:
                return mono[0]
        return None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            body = "*".join(mono)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return "+".join(parts).replace("+-", "-")


def fresh_dim() -> Dim:
    """A dimension about which nothing is known."""
    return Dim.sym(f"?{_next_id()}")


def dims_compatible(a: Dim, b: Dim) -> bool:
    """Broadcast compatibility: equal, literal 1, or untracked."""
    if a == b or a.is_opaque or b.is_opaque:
        return True
    return a.is_one or b.is_one


def broadcast_dims(a: Dim, b: Dim) -> Dim:
    """Result dimension of broadcasting two compatible dims."""
    if a == b:
        return a
    if a.is_one:
        return b
    if b.is_one:
        return a
    if a.is_opaque:
        return b if not b.is_opaque else a
    return a  # b opaque -> trust the tracked side


Shape = tuple[Dim, ...]


def format_shape(shape: Optional[Shape]) -> str:
    if shape is None:
        return "(?)"
    inner = ", ".join(str(d) for d in shape)
    if len(shape) == 1:
        inner += ","
    return f"({inner})"


def shapes_equal(a: Optional[Shape], b: Optional[Shape]) -> bool:
    """Exact equality where both sides are fully tracked."""
    if a is None or b is None or len(a) != len(b):
        return False
    return all(x == y for x, y in zip(a, b))


def broadcast_shapes(
    shapes: list[Optional[Shape]],
) -> tuple[Optional[Shape], Optional[tuple[Dim, Dim]]]:
    """Numpy broadcasting over symbolic shapes.

    Returns ``(result, conflict)``: ``conflict`` is the offending dim
    pair when two *tracked* dimensions can be neither equal nor 1
    (REPRO-S001); ``result`` is ``None`` when any rank is unknown.
    """
    known = [s for s in shapes if s is not None]
    if len(known) != len(shapes):
        return None, None
    rank = max((len(s) for s in known), default=0)
    result: list[Dim] = []
    for axis in range(rank):
        dims = [
            s[len(s) - rank + axis]
            for s in known
            if len(s) - rank + axis >= 0
        ]
        merged = Dim.const(1)
        for d in dims:
            if not dims_compatible(merged, d):
                return None, (merged, d)
            merged = broadcast_dims(merged, d)
        result.append(merged)
    return tuple(result), None


# ----------------------------------------------------------------------
# Dtypes
# ----------------------------------------------------------------------
DTYPE_BOOL = "bool"
DTYPE_I8 = "int8"
DTYPE_I64 = "int64"
DTYPE_F32 = "float32"
DTYPE_F64 = "float64"
DTYPE_UNKNOWN = "?"

_DTYPE_ORDER = {
    DTYPE_BOOL: 0,
    DTYPE_I8: 1,
    DTYPE_I64: 2,
    DTYPE_F32: 3,
    DTYPE_F64: 4,
}


def promote_dtypes(a: str, b: str) -> str:
    """Binary-op result dtype (numpy-style promotion, coarse grained)."""
    if a == DTYPE_UNKNOWN or b == DTYPE_UNKNOWN:
        return DTYPE_UNKNOWN
    # int64 with float32 promotes to float64 in numpy; our coarse order
    # already lands there because mixing f32 into int paths is rare and
    # the mix itself is what REPRO-S002 reports.
    if {a, b} == {DTYPE_I64, DTYPE_F32} or {a, b} == {DTYPE_I8, DTYPE_F32}:
        return DTYPE_F64
    return a if _DTYPE_ORDER[a] >= _DTYPE_ORDER[b] else b


def dtype_narrows(value: str, target: str) -> bool:
    """True when storing ``value`` into ``target`` loses precision."""
    if DTYPE_UNKNOWN in (value, target):
        return False
    return _DTYPE_ORDER[value] > _DTYPE_ORDER[target]


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
def fresh_buffer() -> int:
    return _next_id()


@dataclass(frozen=True)
class Value:
    """Base class; concrete kinds below."""


@dataclass(frozen=True)
class ArrayV(Value):
    shape: Optional[Shape]  # None = unknown rank
    dtype: str = DTYPE_F64
    buffers: frozenset[int] = field(default_factory=frozenset)
    view: Optional[str] = None  # access path; None = not identity-tracked
    rng_budget: Optional[Dim] = None  # set on tagged RNG noise blocks

    def with_view(self, view: Optional[str]) -> "ArrayV":
        return replace(self, view=view)

    def may_alias(self, other: "ArrayV") -> bool:
        return bool(self.buffers & other.buffers)

    def same_view(self, other: "ArrayV") -> bool:
        return (
            self.view is not None
            and self.view == other.view
            and self.buffers == other.buffers
        )


@dataclass(frozen=True)
class IntV(Value):
    dim: Dim = field(default_factory=fresh_dim)


@dataclass(frozen=True)
class FloatV(Value):
    pass


@dataclass(frozen=True)
class BoolV(Value):
    pass


@dataclass(frozen=True)
class StrV(Value):
    text: Optional[str] = None


@dataclass(frozen=True)
class NoneV(Value):
    pass


@dataclass(frozen=True)
class TupleV(Value):
    elems: tuple[Value, ...] = ()


@dataclass(frozen=True)
class UnknownV(Value):
    pass


class ObjV(Value):
    """A contract-typed object: per-instance attribute environment.

    Mutable on purpose (attribute reads are memoized so two reads of
    ``self._noise_used`` cancel in slice arithmetic); identity is
    object identity, so it must NOT be a frozen dataclass.
    """

    def __init__(self, class_name: str = "") -> None:
        self.class_name = class_name
        self.attrs: dict[str, Value] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ObjV({self.class_name!r})"


def join_values(a: Value, b: Value) -> Value:
    """Merge two branch states.  Precision-first: disagreement decays
    to fresh/unknown rather than guessing."""
    if a is b:
        return a
    if isinstance(a, ArrayV) and isinstance(b, ArrayV):
        if a.shape is not None and b.shape is not None and len(a.shape) == len(b.shape):
            shape = tuple(
                x if x == y else fresh_dim()
                for x, y in zip(a.shape, b.shape)
            )
        else:
            shape = a.shape if a.shape == b.shape else None
        dtype = a.dtype if a.dtype == b.dtype else DTYPE_UNKNOWN
        view = a.view if a.view == b.view else None
        draws = a.rng_budget if a.rng_budget == b.rng_budget else None
        return ArrayV(
            shape=shape,
            dtype=dtype,
            buffers=a.buffers | b.buffers,
            view=view,
            rng_budget=draws,
        )
    if isinstance(a, IntV) and isinstance(b, IntV):
        return a if a.dim == b.dim else IntV(fresh_dim())
    if type(a) is type(b) and isinstance(
        a, (FloatV, BoolV, NoneV, StrV)
    ):
        return a if a == b else type(a)()
    if isinstance(a, TupleV) and isinstance(b, TupleV) and len(a.elems) == len(b.elems):
        return TupleV(tuple(join_values(x, y) for x, y in zip(a.elems, b.elems)))
    if isinstance(a, ObjV) and isinstance(b, ObjV) and a.class_name == b.class_name:
        return a  # same contract; per-branch attr memos merge lazily
    return UnknownV()
