"""Abstract numpy operation models for the shapes interpreter.

Each model mirrors the numpy semantics the kernel modules rely on —
broadcasting, dtype promotion (scalars are *weak*: they never widen an
array), ``out=`` identity, view-vs-copy aliasing — precisely enough to
prove or refute the REPRO-S rules, and no further.  Everything the
models cannot track decays to opaque values; findings are only emitted
when every participating piece is known.

Aliasing ground rules encoded here:

* fresh allocations (``zeros``/``empty``/``np.array``/reductions/
  ``astype``/``copy``) get a **new** buffer id;
* views (``reshape``, ``broadcast_to``, slicing — handled in the
  interpreter) **inherit** buffers;
* ``asarray``/``ascontiguousarray`` may return the input unchanged, so
  they inherit buffers (may-alias must stay sound);
* an elementwise ufunc may write ``out=`` into one of its own inputs
  only through the *identical* view (``np.subtract(a, b, out=b)`` is
  fine; writing through a different overlapping view is REPRO-S003);
* a non-elementwise kernel (``matmul``/``matvec``/``vecmat``/``dot``)
  must never alias ``out=`` with any input, identical view or not.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.analysis.shapes.lattice import (
    DTYPE_BOOL,
    DTYPE_F64,
    DTYPE_I64,
    DTYPE_UNKNOWN,
    ArrayV,
    BoolV,
    Dim,
    FloatV,
    IntV,
    NoneV,
    TupleV,
    UnknownV,
    Value,
    broadcast_shapes,
    format_shape,
    fresh_buffer,
    fresh_dim,
    promote_dtypes,
)
from repro.analysis.shapes.lattice import dtype_narrows

__all__ = [
    "ELEMENTWISE_BINARY",
    "ELEMENTWISE_UNARY",
    "REDUCTIONS",
    "EmitFn",
    "check_store",
    "elementwise",
    "matmul_like",
    "numpy_call",
]


class EmitFn(Protocol):
    def __call__(self, line: int, rule: str, message: str) -> None: ...


ELEMENTWISE_UNARY = frozenset(
    {
        "abs",
        "absolute",
        "ceil",
        "exp",
        "expm1",
        "floor",
        "log",
        "log1p",
        "negative",
        "rint",
        "sign",
        "sqrt",
        "square",
        "tanh",
    }
)

ELEMENTWISE_BINARY = frozenset(
    {
        "add",
        "arctan2",
        "copysign",
        "divide",
        "floor_divide",
        "fmax",
        "fmin",
        "hypot",
        "maximum",
        "minimum",
        "mod",
        "multiply",
        "power",
        "remainder",
        "subtract",
        "true_divide",
    }
)

REDUCTIONS = frozenset(
    {
        "all",
        "amax",
        "amin",
        "any",
        "argmax",
        "argmin",
        "count_nonzero",
        "max",
        "mean",
        "median",
        "min",
        "prod",
        "std",
        "sum",
        "var",
    }
)

_NON_ELEMENTWISE = frozenset({"matmul", "matvec", "vecmat", "dot"})


def _new_array(
    shape, dtype: str, *, view: Optional[str] = None, draws=None
) -> ArrayV:
    return ArrayV(
        shape=shape,
        dtype=dtype,
        buffers=frozenset({fresh_buffer()}),
        view=view,
        rng_budget=draws,
    )


def _operand_arrays(values: Sequence[Value]) -> list[ArrayV]:
    return [v for v in values if isinstance(v, ArrayV)]


def _all_tracked(values: Sequence[Value]) -> bool:
    """True when no operand is fully unknown (rank-tracking intact)."""
    return all(
        not isinstance(v, UnknownV)
        and (not isinstance(v, ArrayV) or v.shape is not None)
        for v in values
    )


def _result_dtype(values: Sequence[Value]) -> str:
    """Weak-scalar promotion: only array dtypes participate."""
    arrays = _operand_arrays(values)
    if not arrays:
        return DTYPE_F64
    dtype = arrays[0].dtype
    for arr in arrays[1:]:
        dtype = promote_dtypes(dtype, arr.dtype)
    return dtype


# ----------------------------------------------------------------------
# out= handling (shared by elementwise and matmul-family models)
# ----------------------------------------------------------------------
def _check_out(
    emit: EmitFn,
    line: int,
    name: str,
    out: Value,
    inputs: Sequence[Value],
    result_shape,
    result_dtype: str,
    *,
    elementwise_op: bool,
) -> Value:
    if not isinstance(out, ArrayV):
        return (
            _new_array(result_shape, result_dtype)
            if result_shape is not None
            else UnknownV()
        )
    for inp in _operand_arrays(inputs):
        if not out.may_alias(inp):
            continue
        if elementwise_op:
            if not out.same_view(inp):
                emit(
                    line,
                    "REPRO-S003",
                    f"out= of np.{name} aliases an input operand through "
                    "a different view",
                )
        else:
            emit(
                line,
                "REPRO-S003",
                f"out= of non-elementwise np.{name} aliases an input "
                "operand",
            )
    if result_shape is not None and out.shape is not None:
        if len(result_shape) != len(out.shape) or any(
            not a.is_opaque and not b.is_opaque and a != b
            for a, b in zip(result_shape, out.shape)
        ):
            emit(
                line,
                "REPRO-S001",
                f"out= shape {format_shape(out.shape)} does not match "
                f"result shape {format_shape(result_shape)}",
            )
    if dtype_narrows(result_dtype, out.dtype):
        emit(
            line,
            "REPRO-S002",
            f"implicit dtype narrowing: {result_dtype} result written "
            f"into {out.dtype} out= target",
        )
    # The op's value IS the out array (identity preserved).
    return ArrayV(
        shape=out.shape,
        dtype=out.dtype,
        buffers=out.buffers,
        view=out.view,
    )


# ----------------------------------------------------------------------
# Elementwise / broadcasting
# ----------------------------------------------------------------------
def elementwise(
    emit: EmitFn,
    line: int,
    name: str,
    operands: Sequence[Value],
    out: Optional[Value] = None,
    *,
    bool_result: bool = False,
) -> Value:
    """Broadcasting ufunc model (also backs ``+``/``*`` on arrays)."""
    arrays = _operand_arrays(operands)
    shapes = [a.shape for a in arrays]
    result_shape = None
    if _all_tracked(operands) and arrays:
        result_shape, conflict = broadcast_shapes(shapes)
        if conflict is not None:
            da, db = conflict
            emit(
                line,
                "REPRO-S001",
                "broadcast mismatch: "
                + " vs ".join(format_shape(s) for s in shapes)
                + f" (dim {da} vs {db})",
            )
    dtype = DTYPE_BOOL if bool_result else _result_dtype(operands)
    if arrays and any(a.dtype == DTYPE_UNKNOWN for a in arrays):
        dtype = DTYPE_UNKNOWN if not bool_result else DTYPE_BOOL
    if out is not None:
        return _check_out(
            emit,
            line,
            name,
            out,
            operands,
            result_shape,
            dtype,
            elementwise_op=True,
        )
    if not arrays:
        if any(isinstance(v, UnknownV) for v in operands):
            return UnknownV()
        if bool_result:
            return BoolV()
        return FloatV() if name not in ("floor_divide", "mod") else UnknownV()
    if result_shape is None:
        return ArrayV(shape=None, dtype=dtype, buffers=frozenset({fresh_buffer()}))
    return _new_array(result_shape, dtype)


# ----------------------------------------------------------------------
# matmul family
# ----------------------------------------------------------------------
def _inner_check(emit: EmitFn, line: int, name: str, ka: Dim, kb: Dim) -> None:
    if not ka.is_opaque and not kb.is_opaque and ka != kb:
        emit(
            line,
            "REPRO-S001",
            f"np.{name} inner dimension mismatch: {ka} vs {kb}",
        )


def matmul_like(
    emit: EmitFn,
    line: int,
    name: str,
    a: Value,
    b: Value,
    out: Optional[Value] = None,
) -> Value:
    """``matmul``/``matvec``/``vecmat``/``dot`` shape algebra."""
    if not (isinstance(a, ArrayV) and isinstance(b, ArrayV)):
        return UnknownV()
    dtype = promote_dtypes(a.dtype, b.dtype)
    result_shape = None
    sa, sb = a.shape, b.shape
    if sa is not None and sb is not None:
        if name == "matvec" and len(sa) >= 2 and len(sb) >= 1:
            # (..., r, k) @ (..., k) -> (..., r)
            _inner_check(emit, line, name, sa[-1], sb[-1])
            lead, conflict = broadcast_shapes([sa[:-2], sb[:-1]])
            if conflict is None and lead is not None:
                result_shape = (*lead, sa[-2])
        elif name == "vecmat" and len(sa) >= 1 and len(sb) >= 2:
            # (..., k) @ (..., k, r) -> (..., r)
            _inner_check(emit, line, name, sa[-1], sb[-2])
            lead, conflict = broadcast_shapes([sa[:-1], sb[:-2]])
            if conflict is None and lead is not None:
                result_shape = (*lead, sb[-1])
        elif name in ("matmul", "dot"):
            if len(sa) == 1 and len(sb) == 1:
                _inner_check(emit, line, name, sa[0], sb[0])
                if out is None:
                    return FloatV()
                result_shape = ()
            elif len(sa) >= 2 and len(sb) == 1:
                _inner_check(emit, line, name, sa[-1], sb[0])
                result_shape = sa[:-1]
            elif len(sa) == 1 and len(sb) >= 2:
                _inner_check(emit, line, name, sa[0], sb[-2])
                result_shape = (*sb[:-2], sb[-1])
            elif len(sa) >= 2 and len(sb) >= 2:
                _inner_check(emit, line, name, sa[-1], sb[-2])
                lead, conflict = broadcast_shapes([sa[:-2], sb[:-2]])
                if conflict is None and lead is not None:
                    result_shape = (*lead, sa[-2], sb[-1])
    if out is not None:
        return _check_out(
            emit,
            line,
            name,
            out,
            (a, b),
            result_shape,
            dtype,
            elementwise_op=False,
        )
    if result_shape is None:
        return ArrayV(shape=None, dtype=dtype, buffers=frozenset({fresh_buffer()}))
    return _new_array(result_shape, dtype)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _reduction_scalar(name: str, dtype: str) -> Value:
    if name in ("any", "all"):
        return BoolV()
    if name in ("argmax", "argmin", "count_nonzero"):
        return IntV(fresh_dim())
    if dtype in (DTYPE_I64,):
        return IntV(fresh_dim())
    return FloatV()


def reduction(
    emit: EmitFn,
    line: int,
    name: str,
    arr: Value,
    axis: Optional[Value],
    keepdims: bool,
) -> Value:
    if not isinstance(arr, ArrayV):
        return UnknownV()
    dtype = arr.dtype
    if name in ("any", "all"):
        dtype = DTYPE_BOOL
    elif name in ("argmax", "argmin", "count_nonzero"):
        dtype = DTYPE_I64
    elif name in ("mean", "std", "var", "median") and dtype != DTYPE_UNKNOWN:
        dtype = DTYPE_F64
    if axis is None or isinstance(axis, NoneV):
        return _reduction_scalar(name, dtype)
    if (
        isinstance(axis, IntV)
        and axis.dim.is_const
        and arr.shape is not None
    ):
        k = axis.dim.const_value or 0
        rank = len(arr.shape)
        if -rank <= k < rank:
            k %= rank
            if keepdims:
                shape = tuple(
                    Dim.const(1) if i == k else d
                    for i, d in enumerate(arr.shape)
                )
            else:
                shape = tuple(
                    d for i, d in enumerate(arr.shape) if i != k
                )
            return _new_array(shape, dtype)
    return ArrayV(shape=None, dtype=dtype, buffers=frozenset({fresh_buffer()}))


# ----------------------------------------------------------------------
# Stores (slice assignment / contracted-attribute assignment)
# ----------------------------------------------------------------------
def check_store(
    emit: EmitFn,
    line: int,
    target_desc: str,
    target_shape,
    target_dtype: str,
    value: Value,
) -> None:
    """S001/S002 checks for writing ``value`` into a known target slot."""
    if isinstance(value, ArrayV):
        if (
            value.shape is not None
            and target_shape is not None
        ):
            if len(value.shape) != len(target_shape):
                # Trailing broadcast is legal when value rank is lower
                # and dims line up; only flag higher-rank stores.
                if len(value.shape) > len(target_shape):
                    emit(
                        line,
                        "REPRO-S001",
                        f"assigned value shape {format_shape(value.shape)} "
                        f"does not fit {target_desc} shape "
                        f"{format_shape(target_shape)}",
                    )
            elif any(
                not a.is_opaque and not b.is_opaque and a != b and not a.is_one
                for a, b in zip(value.shape, target_shape)
            ):
                emit(
                    line,
                    "REPRO-S001",
                    f"assigned value shape {format_shape(value.shape)} "
                    f"does not match {target_desc} shape "
                    f"{format_shape(target_shape)}",
                )
        if dtype_narrows(value.dtype, target_dtype):
            emit(
                line,
                "REPRO-S002",
                f"implicit dtype narrowing: {value.dtype} value written "
                f"into {target_dtype} {target_desc}",
            )
        elif (
            value.dtype not in (DTYPE_UNKNOWN, target_dtype)
            and target_dtype != DTYPE_UNKNOWN
        ):
            emit(
                line,
                "REPRO-S002",
                f"dtype contract violation: {target_desc} expects "
                f"{target_dtype} but receives {value.dtype}",
            )
    elif isinstance(value, (IntV, FloatV, BoolV)):
        pass  # scalar fill of an array slot broadcasts legally
    # NoneV / UnknownV / others: nothing provable.


# ----------------------------------------------------------------------
# Creation & misc numpy entry points
# ----------------------------------------------------------------------
def _shape_from_value(value: Optional[Value]):
    if isinstance(value, IntV):
        return (value.dim,)
    if isinstance(value, TupleV):
        dims = []
        for elem in value.elems:
            dims.append(elem.dim if isinstance(elem, IntV) else fresh_dim())
        return tuple(dims)
    return None


def _fill_dtype(fill: Value) -> str:
    if isinstance(fill, BoolV):
        return DTYPE_BOOL
    if isinstance(fill, IntV):
        return DTYPE_I64
    return DTYPE_F64


def numpy_call(
    emit: EmitFn,
    line: int,
    name: str,
    args: list[Value],
    kwargs: dict[str, Value],
    dtype_kw: Optional[str],
) -> Value:
    """Dispatch one ``np.<name>(...)`` call to its model."""
    out = kwargs.get("out")
    if name in ELEMENTWISE_UNARY:
        operands = args[:1]
        if out is None and len(args) >= 2:
            out = args[1]
        return elementwise(emit, line, name, operands, out)
    if name in ELEMENTWISE_BINARY:
        operands = args[:2]
        if out is None and len(args) >= 3:
            out = args[2]
        return elementwise(emit, line, name, operands, out)
    if name == "clip":
        return elementwise(emit, line, name, args[:3], out)
    if name == "where":
        if len(args) == 3:
            value = elementwise(emit, line, name, args, out)
            if isinstance(value, ArrayV) and out is None:
                # dtype comes from the two value branches, not the mask
                dtype = _result_dtype(args[1:])
                return ArrayV(
                    shape=value.shape, dtype=dtype, buffers=value.buffers
                )
            return value
        return UnknownV()
    if name in _NON_ELEMENTWISE and len(args) >= 2:
        if out is None and len(args) >= 3:
            out = args[2]
        return matmul_like(emit, line, name, args[0], args[1], out)
    if name in REDUCTIONS and args:
        axis = kwargs.get("axis")
        keep = isinstance(kwargs.get("keepdims"), BoolV) or bool(
            kwargs.get("keepdims")
        )
        return reduction(emit, line, name, args[0], axis, keep)
    if name in ("zeros", "empty", "ones") and args:
        shape = _shape_from_value(args[0])
        return _new_array(shape, dtype_kw or DTYPE_F64)
    if name == "full" and len(args) >= 2:
        shape = _shape_from_value(args[0])
        return _new_array(shape, dtype_kw or _fill_dtype(args[1]))
    if name.endswith("_like") and args:
        src = args[0]
        if isinstance(src, ArrayV):
            return _new_array(src.shape, dtype_kw or src.dtype)
        return UnknownV()
    if name == "arange" and args:
        if isinstance(args[0], IntV) and len(args) == 1:
            return _new_array((args[0].dim,), dtype_kw or DTYPE_I64)
        return _new_array((fresh_dim(),), dtype_kw or DTYPE_I64)
    if name in ("array", "asarray", "ascontiguousarray", "asfortranarray"):
        if not args:
            return UnknownV()
        src = args[0]
        if isinstance(src, ArrayV):
            if name == "array":
                return _new_array(src.shape, dtype_kw or src.dtype)
            # asarray & friends may return the input itself
            return ArrayV(
                shape=src.shape,
                dtype=dtype_kw or src.dtype,
                buffers=src.buffers,
                view=src.view,
            )
        if isinstance(src, TupleV):
            if all(
                isinstance(e, (IntV, FloatV, BoolV)) for e in src.elems
            ):
                inferred = (
                    DTYPE_I64
                    if all(isinstance(e, IntV) for e in src.elems)
                    else DTYPE_F64
                )
                return _new_array(
                    (Dim.const(len(src.elems)),), dtype_kw or inferred
                )
            return _new_array(None, dtype_kw or DTYPE_UNKNOWN)
        return _new_array(None, dtype_kw or DTYPE_UNKNOWN)
    if name == "reshape" and len(args) >= 2:
        return reshape(emit, line, args[0], args[1:])
    if name == "broadcast_to" and len(args) >= 2:
        return broadcast_to(emit, line, args[0], args[1])
    if name == "concatenate" and args:
        axis = kwargs.get("axis") or (args[1] if len(args) > 1 else None)
        return concatenate(emit, line, args[0], axis)
    if name == "stack" and args:
        return stack(args[0])
    if name == "transpose" and args:
        src = args[0]
        if isinstance(src, ArrayV) and src.shape is not None:
            return ArrayV(
                shape=tuple(reversed(src.shape)),
                dtype=src.dtype,
                buffers=src.buffers,
            )
        return UnknownV()
    if name in ("standard_normal", "normal", "uniform", "random"):
        size = kwargs.get("size") or (args[0] if args else None)
        shape = _shape_from_value(size)
        return _new_array(shape if size is not None else (), DTYPE_F64)
    return UnknownV()


def reshape(
    emit: EmitFn, line: int, arr: Value, shape_args: Sequence[Value]
) -> Value:
    if not isinstance(arr, ArrayV):
        return UnknownV()
    if len(shape_args) == 1 and isinstance(shape_args[0], TupleV):
        shape_args = list(shape_args[0].elems)
    dims: list[Dim] = []
    exact = True
    for v in shape_args:
        if isinstance(v, IntV):
            if v.dim.const_value == -1:
                dims.append(fresh_dim())
                exact = False
            else:
                dims.append(v.dim)
        else:
            dims.append(fresh_dim())
            exact = False
    if (
        exact
        and arr.shape is not None
        and not any(d.is_opaque for d in (*dims, *arr.shape))
    ):
        old = Dim.const(1)
        for d in arr.shape:
            old = old * d
        new = Dim.const(1)
        for d in dims:
            new = new * d
        if old != new:
            emit(
                line,
                "REPRO-S001",
                f"reshape element-count mismatch: {format_shape(arr.shape)} "
                f"-> {format_shape(tuple(dims))}",
            )
    return ArrayV(
        shape=tuple(dims), dtype=arr.dtype, buffers=arr.buffers
    )


def broadcast_to(emit: EmitFn, line: int, arr: Value, shape: Value) -> Value:
    target = _shape_from_value(shape)
    if not isinstance(arr, ArrayV) or target is None:
        return UnknownV()
    if arr.shape is not None:
        _, conflict = broadcast_shapes([arr.shape, target])
        if conflict is not None:
            da, db = conflict
            emit(
                line,
                "REPRO-S001",
                f"cannot broadcast {format_shape(arr.shape)} to "
                f"{format_shape(target)} (dim {da} vs {db})",
            )
    return ArrayV(shape=target, dtype=arr.dtype, buffers=arr.buffers)


def concatenate(
    emit: EmitFn, line: int, seq: Value, axis: Optional[Value]
) -> Value:
    if not isinstance(seq, TupleV):
        return UnknownV()
    arrays = [e for e in seq.elems if isinstance(e, ArrayV)]
    if len(arrays) != len(seq.elems) or not arrays:
        return UnknownV()
    k = 0
    if isinstance(axis, IntV) and axis.dim.is_const:
        k = axis.dim.const_value or 0
    shapes = [a.shape for a in arrays]
    dtype = _result_dtype(arrays)
    if any(s is None for s in shapes):
        return ArrayV(shape=None, dtype=dtype, buffers=frozenset({fresh_buffer()}))
    rank = len(shapes[0])
    if any(len(s) != rank for s in shapes) or not -rank <= k < rank:
        return ArrayV(shape=None, dtype=dtype, buffers=frozenset({fresh_buffer()}))
    k %= rank
    dims: list[Dim] = []
    for i in range(rank):
        if i == k:
            total = Dim.const(0)
            for s in shapes:
                total = total + s[i]
            dims.append(total)
            continue
        ref = shapes[0][i]
        for s in shapes[1:]:
            if not ref.is_opaque and not s[i].is_opaque and ref != s[i]:
                emit(
                    line,
                    "REPRO-S001",
                    f"concatenate mismatch on non-axis dimension: "
                    f"{ref} vs {s[i]}",
                )
            if ref.is_opaque:
                ref = s[i]
        dims.append(ref)
    return _new_array(tuple(dims), dtype)


def stack(seq: Value) -> Value:
    if not isinstance(seq, TupleV) or not seq.elems:
        return UnknownV()
    first = seq.elems[0]
    if isinstance(first, ArrayV) and first.shape is not None:
        return _new_array(
            (Dim.const(len(seq.elems)), *first.shape), first.dtype
        )
    return UnknownV()
