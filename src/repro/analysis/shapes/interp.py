"""Abstract interpreter over symbolic shapes (rules S001/S002/S003/S005).

The interpreter walks every *contracted* function — a function with a
``# repro: shape[...]`` signature contract, or any method of a class
that declares attribute contracts — and simulates it over the value
lattice of :mod:`repro.analysis.shapes.lattice` with the numpy models
of :mod:`repro.analysis.shapes.ops`.  Uncontracted code is never
interpreted: all precision flows from the annotations, so a module
without contracts produces no S-findings (and costs nothing).

Interpretation strategy — precision-first, intra-procedural:

* branches are both executed and the environments joined (disagreement
  decays to opaque, never to a guess);
* loop bodies run twice — once from the entry state, once from the
  joined state — which is a two-iteration widening: any fact that
  changes across iterations has decayed by the second pass, and the
  finding set is deduplicated so the double pass cannot double-report;
* calls are *checked, not inlined*: arguments are verified against the
  callee's parameter contracts, the return contract seeds the result,
  and a method call on a contract object conservatively invalidates its
  memoized attributes (the callee may have rotated its buffers);
* attribute reads on contract objects are memoized per object, so two
  reads of ``self._noise_used`` yield the *same* opaque symbol and the
  slice width ``(u+1)*W - u*W`` cancels exactly to ``W`` (REPRO-S005's
  central trick).
"""

from __future__ import annotations

import ast
from dataclasses import replace as _spec_replace
from typing import Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.shapes import ops
from repro.analysis.shapes.contracts import (
    FunctionContract,
    ModuleContracts,
    Spec,
)
from repro.analysis.shapes.lattice import (
    DTYPE_BOOL,
    DTYPE_F64,
    DTYPE_I64,
    ArrayV,
    BoolV,
    Dim,
    FloatV,
    IntV,
    NoneV,
    ObjV,
    StrV,
    TupleV,
    UnknownV,
    Value,
    format_shape,
    fresh_buffer,
    fresh_dim,
    join_values,
)

__all__ = ["interpret_module"]

_BINOP_UFUNC = {
    ast.Add: "add",
    ast.Sub: "subtract",
    ast.Mult: "multiply",
    ast.Div: "divide",
    ast.FloorDiv: "floor_divide",
    ast.Mod: "mod",
    ast.Pow: "power",
}

_DTYPE_NODE_MAP = {
    "float": DTYPE_F64,
    "np.float64": DTYPE_F64,
    "np.double": DTYPE_F64,
    "numpy.float64": DTYPE_F64,
    "np.float32": "float32",
    "numpy.float32": "float32",
    "int": DTYPE_I64,
    "np.int64": DTYPE_I64,
    "np.intp": DTYPE_I64,
    "numpy.int64": DTYPE_I64,
    "np.int8": "int8",
    "numpy.int8": "int8",
    "bool": DTYPE_BOOL,
    "np.bool_": DTYPE_BOOL,
    "numpy.bool_": DTYPE_BOOL,
}

_RNG_METHODS = frozenset({"standard_normal", "normal", "uniform", "random"})


def _dtype_from_node(node: Optional[ast.expr]) -> Optional[str]:
    if node is None:
        return None
    try:
        return _DTYPE_NODE_MAP.get(ast.unparse(node))
    except Exception:
        return None


def instantiate(spec: Spec, site: str) -> Value:
    """A fresh abstract value satisfying ``spec``."""
    if spec.kind == "array":
        return ArrayV(
            shape=spec.shape,
            dtype=spec.dtype,
            buffers=frozenset({fresh_buffer()}),
            view=site,
            rng_budget=spec.rng_budget,
        )
    if spec.kind == "int":
        return IntV(spec.dim if spec.dim is not None else fresh_dim())
    if spec.kind == "float":
        return FloatV()
    if spec.kind == "bool":
        return BoolV()
    if spec.kind == "str":
        return StrV()
    if spec.kind == "none":
        return NoneV()
    if spec.kind == "obj":
        return ObjV(spec.class_name)
    return UnknownV()


def _bind_spec(
    spec: Spec, value: Value, binding: dict[str, Dim]
) -> Spec:
    """Unify one callee parameter contract against a caller argument.

    Callee contracts are *polymorphic*: a dimension that is exactly one
    named symbol binds, on first occurrence, to whatever dimension the
    caller passes (``matrix: (r, k)`` accepts any 2-D matrix); bound
    symbols substitute into later parameters and the return spec, so
    intra-signature consistency (``X: (N, k)`` must share ``k``) is
    still enforced.  ``binding`` accumulates across one call site.
    """
    # Binding keys off the RAW spec symbol: once a symbol is bound, its
    # substitution is a caller-side dimension and must be *compared*
    # (by check_spec), never re-bound — else `x: (N, k)` after `k := m`
    # would happily re-bind the caller's `m` to anything.
    if spec.kind == "int":
        if spec.dim is not None:
            sym = spec.dim.as_symbol
            if (
                sym is not None
                and not sym.startswith("?")
                and sym not in binding
                and isinstance(value, IntV)
            ):
                binding[sym] = value.dim
            spec = _spec_replace(spec, dim=spec.dim.substitute(binding))
        return spec
    if spec.kind != "array" or spec.shape is None:
        return spec
    vshape = value.shape if isinstance(value, ArrayV) else None
    resolved: list[Dim] = []
    for i, spec_dim in enumerate(spec.shape):
        sym = spec_dim.as_symbol
        if (
            sym is not None
            and not sym.startswith("?")
            and sym not in binding
            and vshape is not None
            and len(vshape) == len(spec.shape)
        ):
            binding[sym] = vshape[i]
        resolved.append(spec_dim.substitute(binding))
    budget = (
        spec.rng_budget.substitute(binding)
        if spec.rng_budget is not None
        else None
    )
    return _spec_replace(
        spec, shape=tuple(resolved), rng_budget=budget
    )


def _spec_symbols(spec: Spec) -> set[str]:
    """The named (non-opaque) symbols of ``spec``'s dimensions."""
    dims = [*(spec.shape or ()), spec.dim, spec.rng_budget]
    return {
        sym
        for dim in dims
        if dim is not None
        for mono, _ in dim.terms
        for sym in mono
        if not sym.startswith("?")
    }


def _substitute_spec(spec: Spec, binding: dict[str, Dim]) -> Spec:
    """A return spec with call-site symbol bindings applied."""
    if not binding:
        return spec
    if spec.shape is not None:
        spec = _spec_replace(
            spec, shape=tuple(d.substitute(binding) for d in spec.shape)
        )
    if spec.dim is not None:
        spec = _spec_replace(spec, dim=spec.dim.substitute(binding))
    if spec.rng_budget is not None:
        spec = _spec_replace(
            spec, rng_budget=spec.rng_budget.substitute(binding)
        )
    return spec


def refine_with_spec(value: Value, spec: Spec, site: str) -> Value:
    """Checked contract site: trust the contract, keep tracked identity."""
    if spec.kind == "array" and isinstance(value, ArrayV):
        shape = spec.shape
        if (
            value.shape is not None
            and spec.shape is not None
            and len(value.shape) == len(spec.shape)
        ):
            shape = tuple(
                c if s.is_opaque and not c.is_opaque else s
                for c, s in zip(value.shape, spec.shape)
            )
        return ArrayV(
            shape=shape,
            dtype=spec.dtype,
            buffers=value.buffers,
            view=value.view if value.view is not None else site,
            rng_budget=spec.rng_budget,
        )
    if spec.kind == "int" and isinstance(value, IntV):
        return IntV(spec.dim) if spec.dim is not None else value
    if spec.optional and isinstance(value, NoneV):
        return value
    return instantiate(spec, site)


class _Interp:
    """One module's interpretation run."""

    def __init__(
        self, tree: ast.Module, contracts: ModuleContracts, path: str
    ) -> None:
        self.contracts = contracts
        self.path = path
        self.findings: set[Finding] = set()
        self.funcdefs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self._collect_defs(tree, [])

    def _collect_defs(self, node: ast.AST, stack: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.funcdefs[".".join([*stack, child.name])] = child
                # Nested defs are not interpreted; no recursion into them.
            elif isinstance(child, ast.ClassDef):
                self._collect_defs(child, [*stack, child.name])
            elif isinstance(child, (ast.If, ast.Try)):
                self._collect_defs(child, stack)

    # -- driver --------------------------------------------------------
    def run(self) -> list[Finding]:
        lines_with_specs = set(self.contracts.assign_specs)
        for qualname, fdef in self.funcdefs.items():
            class_name = qualname.rsplit(".", 1)[0] if "." in qualname else ""
            has_class_contract = class_name in self.contracts.class_attrs
            has_fn_contract = qualname in self.contracts.functions
            has_local_specs = any(
                fdef.lineno < line <= (fdef.end_lineno or fdef.lineno)
                for line in lines_with_specs
            )
            if not (has_class_contract or has_fn_contract or has_local_specs):
                continue
            frame = _Frame(self, fdef, qualname, class_name)
            frame.run()
        return sorted(self.findings)

    def emit(self, line: int, rule: str, message: str) -> None:
        self.findings.add(
            Finding(
                path=self.path,
                line=line,
                rule=rule,
                severity=Severity.ERROR,
                message=message,
            )
        )


class _Frame:
    """Interpretation of one function body."""

    def __init__(
        self,
        interp: _Interp,
        fdef: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: str,
    ) -> None:
        self.interp = interp
        self.fdef = fdef
        self.qualname = qualname
        self.class_name = class_name
        self.contracts = interp.contracts
        self.contract = interp.contracts.functions.get(
            qualname, FunctionContract()
        )
        self.env: dict[str, Value] = {}
        # REPRO-S005 bookkeeping: tick blocks and their recorded extents.
        self.tick_blocks: dict[ArrayV, Dim] = {}
        self.extents: dict[ArrayV, list[Optional[tuple[Dim, Dim, int]]]] = {}

    def emit(self, line: int, rule: str, message: str) -> None:
        self.interp.emit(line, rule, message)

    # -- entry ---------------------------------------------------------
    def run(self) -> None:
        args = self.fdef.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for i, a in enumerate(params):
            spec = self.contract.params.get(a.arg)
            if spec is not None:
                self.env[a.arg] = instantiate(spec, f"<param:{a.arg}>")
            elif i == 0 and a.arg in ("self", "cls") and self.class_name:
                self.env[a.arg] = ObjV(self.class_name)
            else:
                self.env[a.arg] = UnknownV()
        if args.vararg is not None:
            self.env[args.vararg.arg] = UnknownV()
        if args.kwarg is not None:
            self.env[args.kwarg.arg] = UnknownV()
        self.exec_block(self.fdef.body)
        self._finalize_rng()

    def _finalize_rng(self) -> None:
        for block, records in self.extents.items():
            budget = self.tick_blocks.get(block)
            if budget is None or not records or None in records:
                continue
            lower, upper, line = records[-1]
            if not upper.is_opaque and not budget.is_opaque and upper != budget:
                self.emit(
                    line,
                    "REPRO-S005",
                    f"RNG tick block consumption ends at draw {upper} of "
                    f"the {budget} budgeted draws per tick",
                )

    # -- statements ----------------------------------------------------
    def exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            if len(stmt.targets) == 1:
                self.assign(stmt.targets[0], value, stmt.lineno)
            else:
                for target in stmt.targets:
                    self.assign(target, value, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value), stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self.exec_augassign(stmt)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_block(stmt.body)
            after_true = self.env
            self.env = dict(before)
            self.exec_block(stmt.orelse)
            self.env = _join_env(after_true, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._loop_body(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.Return):
            value = (
                self.eval(stmt.value) if stmt.value is not None else NoneV()
            )
            if self.contract.returns is not None:
                self.check_spec(
                    value,
                    self.contract.returns,
                    stmt.lineno,
                    f"return value of {self.fdef.name}()",
                )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.exec_block(stmt.body)
            merged = _join_env(before, self.env)
            for handler in stmt.handlers:
                self.env = dict(merged)
                self.exec_block(handler.body)
                merged = _join_env(merged, self.env)
            self.env = merged
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Assert):
                self.eval(stmt.test)
        # FunctionDef/ClassDef/Import/Pass/Break/Continue/...: no effect.

    def exec_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        iter_value = self.eval(stmt.iter)
        self.bind_loop_target(stmt.target, stmt.iter, iter_value)
        self._loop_body(stmt.body)
        self.exec_block(stmt.orelse)

    def bind_loop_target(
        self, target: ast.expr, iter_node: ast.expr, iter_value: Value
    ) -> None:
        bound: Value = UnknownV()
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("range", "enumerate")
        ):
            bound = IntV(fresh_dim())
            if iter_node.func.id == "enumerate":
                bound = TupleV((IntV(fresh_dim()), UnknownV()))
        elif isinstance(iter_value, ArrayV) and iter_value.shape:
            bound = ArrayV(
                shape=iter_value.shape[1:],
                dtype=iter_value.dtype,
                buffers=iter_value.buffers,
            )
        elif isinstance(iter_value, TupleV) and iter_value.elems:
            joined = iter_value.elems[0]
            for elem in iter_value.elems[1:]:
                joined = join_values(joined, elem)
            bound = joined
        if isinstance(target, ast.Name):
            self.env[target.id] = bound
        elif isinstance(target, ast.Tuple):
            elems = (
                bound.elems
                if isinstance(bound, TupleV)
                and len(bound.elems) == len(target.elts)
                else [UnknownV()] * len(target.elts)
            )
            for t, v in zip(target.elts, elems):
                if isinstance(t, ast.Name):
                    self.env[t.id] = v

    def _loop_body(self, body: list[ast.stmt]) -> None:
        entry = dict(self.env)
        self.exec_block(body)
        joined = _join_env(entry, self.env)
        self.env = dict(joined)
        self.exec_block(body)
        self.env = _join_env(joined, self.env)

    def exec_augassign(self, stmt: ast.AugAssign) -> None:
        rhs = self.eval(stmt.value)
        current = self.eval_load_target(stmt.target)
        result = self.binop(
            type(stmt.op), current, rhs, stmt.lineno, inplace=True
        )
        self.assign(stmt.target, result, stmt.lineno, check_contract=False)

    def eval_load_target(self, target: ast.expr) -> Value:
        try:
            return self.eval(target)
        except Exception:  # pragma: no cover - defensive
            return UnknownV()

    # -- assignment ----------------------------------------------------
    def assign(
        self,
        target: ast.expr,
        value: Value,
        line: int,
        *,
        check_contract: bool = True,
    ) -> None:
        if isinstance(target, ast.Name):
            spec = self.contracts.assign_specs.get(line) if check_contract else None
            if spec is not None:
                self.check_spec(value, spec, line, f"variable {target.id!r}")
                value = refine_with_spec(value, spec, f"<var:{target.id}>")
            self.env[target.id] = value
        elif isinstance(target, ast.Attribute):
            obj = self.eval(target.value)
            if not isinstance(obj, ObjV):
                return
            spec = None
            if check_contract:
                spec = self.contracts.assign_specs.get(line)
                if spec is None:
                    spec = self.contracts.class_attrs.get(
                        obj.class_name, {}
                    ).get(target.attr)
            if spec is not None:
                self.check_spec(
                    value,
                    spec,
                    line,
                    f"attribute {obj.class_name}.{target.attr}",
                )
                value = refine_with_spec(
                    value, spec, f"<{obj.class_name}.{target.attr}>"
                )
            obj.attrs[target.attr] = value
        elif isinstance(target, ast.Subscript):
            self.store_subscript(target, value, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elems = (
                list(value.elems)
                if isinstance(value, TupleV)
                and len(value.elems) == len(target.elts)
                else [UnknownV()] * len(target.elts)
            )
            for t, v in zip(target.elts, elems):
                self.assign(t, v, line, check_contract=False)

    def check_spec(
        self, value: Value, spec: Spec, line: int, desc: str
    ) -> None:
        if spec.kind == "int":
            if (
                isinstance(value, IntV)
                and spec.dim is not None
                and not value.dim.is_opaque
                and not spec.dim.is_opaque
                and value.dim != spec.dim
            ):
                self.emit(
                    line,
                    "REPRO-S001",
                    f"integer contract mismatch: {desc} declared "
                    f"{spec.dim} but receives {value.dim}",
                )
            return
        if spec.kind != "array":
            return
        if isinstance(value, NoneV):
            if not spec.optional:
                self.emit(
                    line,
                    "REPRO-S001",
                    f"None assigned to {desc} with array contract "
                    f"{format_shape(spec.shape)}",
                )
            return
        if isinstance(value, (IntV, FloatV, BoolV)):
            self.emit(
                line,
                "REPRO-S001",
                f"scalar value assigned to {desc} with array contract "
                f"{format_shape(spec.shape)}",
            )
            return
        ops.check_store(
            self.emit, line, desc, spec.shape, spec.dtype, value
        )

    # -- subscripts ----------------------------------------------------
    def _index_elems(self, node: ast.Subscript) -> list[ast.expr]:
        if isinstance(node.slice, ast.Tuple):
            return list(node.slice.elts)
        return [node.slice]

    def _slice_extent(
        self, base_dim: Dim, elem: ast.Slice
    ) -> tuple[Dim, Optional[tuple[Dim, Dim]]]:
        """(result width, (lower, upper)) for one sliced axis."""
        if elem.step is not None:
            step = self.eval(elem.step)
            if not (
                isinstance(step, IntV) and step.dim.const_value == 1
            ):
                return fresh_dim(), None
        lower: Optional[Dim] = Dim.const(0)
        upper: Optional[Dim] = base_dim
        if elem.lower is not None:
            lv = self.eval(elem.lower)
            lower = lv.dim if isinstance(lv, IntV) else None
        if elem.upper is not None:
            uv = self.eval(elem.upper)
            upper = uv.dim if isinstance(uv, IntV) else None
        if lower is None or upper is None:
            return fresh_dim(), None
        if (lower.const_value or 0) < 0 and lower.is_const:
            lower = base_dim + lower
        if (upper.const_value or 0) < 0 and upper.is_const:
            upper = base_dim + upper
        width = upper - lower
        if lower.is_opaque or upper.is_opaque:
            return width, None
        return width, (lower, upper)

    def subscript_view(
        self, node: ast.Subscript, base: ArrayV
    ) -> Value:
        """Shape of ``base[index]`` plus S005 bookkeeping."""
        try:
            view_key = ast.unparse(node)
        except Exception:  # pragma: no cover - defensive
            view_key = None
        if base.shape is None:
            self._record_rng(base, None, None, node.lineno)
            return ArrayV(
                shape=None,
                dtype=base.dtype,
                buffers=base.buffers,
                view=view_key,
            )
        elems = self._index_elems(node)
        rank = len(base.shape)
        # Single fancy index (mask or integer array): a copy.
        if len(elems) == 1 and not isinstance(elems[0], ast.Slice):
            single = elems[0]
            if not (
                isinstance(single, ast.Constant)
                or isinstance(single, ast.Tuple)
            ):
                v = self.eval(single)
                if isinstance(v, ArrayV):
                    if v.dtype == DTYPE_BOOL:
                        shape = (fresh_dim(), *base.shape[1:])
                    elif v.shape is not None:
                        shape = (*v.shape, *base.shape[1:])
                    else:
                        shape = None
                    return ArrayV(
                        shape=shape,
                        dtype=base.dtype,
                        buffers=frozenset({fresh_buffer()}),
                    )
                if isinstance(v, IntV):
                    return ArrayV(
                        shape=base.shape[1:],
                        dtype=base.dtype,
                        buffers=base.buffers,
                        view=view_key,
                    )
                self._record_rng(base, None, None, node.lineno)
                return ArrayV(
                    shape=None, dtype=base.dtype, buffers=base.buffers
                )
        # Expand a leading/embedded Ellipsis into full slices.
        explicit = sum(
            1
            for e in elems
            if not (isinstance(e, ast.Constant) and e.value in (Ellipsis, None))
        )
        out_dims: list[Dim] = []
        axis = 0
        for elem in elems:
            if isinstance(elem, ast.Constant) and elem.value is Ellipsis:
                for _ in range(rank - explicit):
                    if axis < rank:
                        out_dims.append(base.shape[axis])
                        axis += 1
                continue
            if (
                isinstance(elem, ast.Constant) and elem.value is None
            ) or (
                isinstance(elem, (ast.Name, ast.Attribute))
                and ast.unparse(elem).endswith("newaxis")
            ):
                out_dims.append(Dim.const(1))
                continue
            if axis >= rank:
                return ArrayV(
                    shape=None, dtype=base.dtype, buffers=base.buffers
                )
            if isinstance(elem, ast.Slice):
                width, bounds = self._slice_extent(base.shape[axis], elem)
                if axis == rank - 1:
                    budget_tag = self._rng_slice(
                        base, width, bounds, node.lineno
                    )
                    if budget_tag is not None:
                        out_dims.append(width)
                        axis += 1
                        out_dims.extend(base.shape[axis:])
                        return ArrayV(
                            shape=tuple(out_dims),
                            dtype=base.dtype,
                            buffers=base.buffers,
                            view=view_key,
                            rng_budget=budget_tag,
                        )
                out_dims.append(width)
                axis += 1
                continue
            value = self.eval(elem)
            if isinstance(value, IntV):
                axis += 1  # integer index: axis dropped
                continue
            return ArrayV(
                shape=None, dtype=base.dtype, buffers=base.buffers
            )
        out_dims.extend(base.shape[axis:])
        return ArrayV(
            shape=tuple(out_dims),
            dtype=base.dtype,
            buffers=base.buffers,
            view=view_key,
        )

    def _rng_slice(
        self,
        base: ArrayV,
        width: Dim,
        bounds: Optional[tuple[Dim, Dim]],
        line: int,
    ) -> Optional[Dim]:
        """S005 accounting for a last-axis slice of a tagged array.

        Returns the budget when the slice result becomes a tick block
        (the caller then tags the result array).  A slice of the backing
        buffer is judged by *width* alone — the tick offset ``u*W`` is
        opaque by design, only the cancellation ``(u+1)*W - u*W = W``
        matters.  Slices of an already-registered block record their
        (lower, upper) extents for the end-of-function budget audit.
        """
        if base in self.tick_blocks:
            self.extents.setdefault(base, []).append(
                (bounds[0], bounds[1], line) if bounds is not None else None
            )
            return None
        if base.rng_budget is None:
            return None
        budget = base.rng_budget
        if width.is_opaque or budget.is_opaque:
            return None
        if width == budget:
            return budget  # caller registers the block via the tag
        self.emit(
            line,
            "REPRO-S005",
            f"RNG tick slice width {width} does not match the per-tick "
            f"draw budget {budget}",
        )
        return None

    def _record_rng(
        self, base: ArrayV, lo: Optional[Dim], hi: Optional[Dim], line: int
    ) -> None:
        """Unknown-extent access on a tracked block poisons its record."""
        if base in self.tick_blocks:
            self.extents.setdefault(base, []).append(None)

    def store_subscript(
        self, node: ast.Subscript, value: Value, line: int
    ) -> None:
        base = self.eval(node.value)
        if not isinstance(base, ArrayV):
            return
        target = self.subscript_view(node, base)
        if isinstance(target, ArrayV):
            ops.check_store(
                self.emit,
                line,
                "slice target",
                target.shape,
                base.dtype,
                value,
            )

    # -- expressions ---------------------------------------------------
    def eval(self, node: ast.expr) -> Value:
        method = getattr(
            self, f"eval_{type(node).__name__}", None
        )
        if method is None:
            return UnknownV()
        return method(node)

    def eval_Constant(self, node: ast.Constant) -> Value:
        v = node.value
        if isinstance(v, bool):
            return BoolV()
        if isinstance(v, int):
            return IntV(Dim.const(v))
        if isinstance(v, float):
            return FloatV()
        if isinstance(v, str):
            return StrV(v)
        if v is None:
            return NoneV()
        return UnknownV()

    def eval_Name(self, node: ast.Name) -> Value:
        return self.env.get(node.id, UnknownV())

    def eval_Tuple(self, node: ast.Tuple) -> Value:
        return TupleV(tuple(self.eval(e) for e in node.elts))

    eval_List = eval_Tuple

    def eval_JoinedStr(self, node: ast.JoinedStr) -> Value:
        for part in node.values:
            if isinstance(part, ast.FormattedValue):
                self.eval(part.value)
        return StrV()

    def eval_Attribute(self, node: ast.Attribute) -> Value:
        # numpy namespace constants
        root = _attr_root(node)
        if root in ("np", "numpy"):
            if node.attr == "newaxis":
                return NoneV()
            if node.attr in ("pi", "e", "inf", "nan", "euler_gamma"):
                return FloatV()
            return UnknownV()
        base = self.eval(node.value)
        if isinstance(base, ObjV):
            return self.read_attr(base, node.attr)
        if isinstance(base, ArrayV):
            return self._array_attr(base, node.attr)
        return UnknownV()

    def read_attr(self, obj: ObjV, attr: str) -> Value:
        if attr in obj.attrs:
            return obj.attrs[attr]
        spec = self.contracts.class_attrs.get(obj.class_name, {}).get(attr)
        value = (
            instantiate(spec, f"<{obj.class_name}.{attr}>")
            if spec is not None
            else UnknownV()
        )
        obj.attrs[attr] = value
        return value

    def _array_attr(self, arr: ArrayV, attr: str) -> Value:
        if attr == "T":
            if arr.shape is None:
                return ArrayV(shape=None, dtype=arr.dtype, buffers=arr.buffers)
            return ArrayV(
                shape=tuple(reversed(arr.shape)),
                dtype=arr.dtype,
                buffers=arr.buffers,
            )
        if attr == "shape":
            if arr.shape is None:
                return UnknownV()
            return TupleV(tuple(IntV(d) for d in arr.shape))
        if attr == "dtype":
            return StrV(arr.dtype)
        if attr == "ndim":
            return (
                IntV(Dim.const(len(arr.shape)))
                if arr.shape is not None
                else IntV(fresh_dim())
            )
        if attr == "size":
            if arr.shape is not None:
                total = Dim.const(1)
                for d in arr.shape:
                    total = total * d
                return IntV(total)
            return IntV(fresh_dim())
        return UnknownV()

    def eval_Subscript(self, node: ast.Subscript) -> Value:
        base = self.eval(node.value)
        if isinstance(base, ArrayV):
            result = self.subscript_view(node, base)
            if (
                isinstance(result, ArrayV)
                and result.rng_budget is not None
                and result not in self.tick_blocks
            ):
                # A width==budget slice of the backing buffer: this IS
                # one tick's block; track its consumption from here on.
                self.tick_blocks[result] = result.rng_budget
            return result
        if isinstance(base, TupleV):
            idx = self.eval(node.slice)
            if isinstance(idx, IntV) and idx.dim.is_const:
                k = idx.dim.const_value or 0
                if -len(base.elems) <= k < len(base.elems):
                    return base.elems[k]
            return UnknownV()
        return UnknownV()

    def eval_BinOp(self, node: ast.BinOp) -> Value:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if isinstance(node.op, ast.MatMult):
            return ops.matmul_like(
                self.emit, node.lineno, "matmul", left, right
            )
        return self.binop(type(node.op), left, right, node.lineno)

    def binop(
        self,
        op_type: type,
        left: Value,
        right: Value,
        line: int,
        *,
        inplace: bool = False,
    ) -> Value:
        if isinstance(left, ArrayV) or isinstance(right, ArrayV):
            name = _BINOP_UFUNC.get(op_type)
            if name is None:
                return UnknownV()
            out = left if inplace and isinstance(left, ArrayV) else None
            return ops.elementwise(
                self.emit, line, name, [left, right], out
            )
        if isinstance(left, IntV) and isinstance(right, IntV):
            if op_type is ast.Add:
                return IntV(left.dim + right.dim)
            if op_type is ast.Sub:
                return IntV(left.dim - right.dim)
            if op_type is ast.Mult:
                return IntV(left.dim * right.dim)
            if op_type is ast.Div:
                return FloatV()
            return IntV(fresh_dim())
        if isinstance(left, (IntV, FloatV)) and isinstance(
            right, (IntV, FloatV)
        ):
            return FloatV()
        if isinstance(left, StrV) and isinstance(right, StrV):
            return StrV()
        if isinstance(left, TupleV) and isinstance(right, TupleV) and (
            op_type is ast.Add
        ):
            return TupleV(left.elems + right.elems)
        return UnknownV()

    def eval_UnaryOp(self, node: ast.UnaryOp) -> Value:
        operand = self.eval(node.operand)
        if isinstance(node.op, ast.USub):
            if isinstance(operand, IntV):
                return IntV(-operand.dim)
            if isinstance(operand, ArrayV):
                return ops.elementwise(
                    self.emit, node.lineno, "negative", [operand], None
                )
            if isinstance(operand, FloatV):
                return FloatV()
        if isinstance(node.op, ast.Not):
            return BoolV()
        return operand if isinstance(operand, (IntV, FloatV)) else UnknownV()

    def eval_Compare(self, node: ast.Compare) -> Value:
        operands = [self.eval(node.left)] + [
            self.eval(c) for c in node.comparators
        ]
        if any(isinstance(v, ArrayV) for v in operands):
            return ops.elementwise(
                self.emit,
                node.lineno,
                "compare",
                operands,
                None,
                bool_result=True,
            )
        return BoolV()

    def eval_BoolOp(self, node: ast.BoolOp) -> Value:
        values = [self.eval(v) for v in node.values]
        joined = values[0]
        for v in values[1:]:
            joined = join_values(joined, v)
        return joined

    def eval_IfExp(self, node: ast.IfExp) -> Value:
        self.eval(node.test)
        return join_values(self.eval(node.body), self.eval(node.orelse))

    def eval_Starred(self, node: ast.Starred) -> Value:
        self.eval(node.value)
        return UnknownV()

    # -- calls ---------------------------------------------------------
    def eval_Call(self, node: ast.Call) -> Value:
        args = [self.eval(a) for a in node.args if not isinstance(a, ast.Starred)]
        for a in node.args:
            if isinstance(a, ast.Starred):
                self.eval(a.value)
        kwargs: dict[str, Value] = {}
        dtype_kw: Optional[str] = None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype_kw = _dtype_from_node(kw.value)
                continue
            if kw.arg is not None:
                kwargs[kw.arg] = self.eval(kw.value)
            else:
                self.eval(kw.value)

        func = node.func
        # np.<name>(...) — possibly nested (np.linalg.solve)
        if isinstance(func, ast.Attribute) and _attr_root(func) in (
            "np",
            "numpy",
        ):
            return ops.numpy_call(
                self.emit, node.lineno, func.attr, args, kwargs, dtype_kw
            )
        if isinstance(func, ast.Attribute):
            recv = self.eval(func.value)
            if isinstance(recv, ArrayV):
                return self._array_method(
                    node, recv, func.attr, args, kwargs, dtype_kw
                )
            if func.attr in _RNG_METHODS:
                return ops.numpy_call(
                    self.emit, node.lineno, func.attr, args, kwargs, dtype_kw
                )
            if isinstance(recv, ObjV):
                return self._contract_call(
                    f"{recv.class_name}.{func.attr}",
                    node,
                    args,
                    receiver=recv,
                )
            return UnknownV()
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.contracts.class_attrs:
                return ObjV(name)
            if name in self.interp.funcdefs:
                return self._contract_call(name, node, args, receiver=None)
            return self._builtin_call(name, node, args)
        self.eval(func) if isinstance(func, ast.expr) else None
        return UnknownV()

    def _array_method(
        self,
        node: ast.Call,
        arr: ArrayV,
        name: str,
        args: list[Value],
        kwargs: dict[str, Value],
        dtype_kw: Optional[str],
    ) -> Value:
        if name in ops.REDUCTIONS:
            axis = kwargs.get("axis") or (args[0] if args else None)
            keep = bool(kwargs.get("keepdims"))
            return ops.reduction(self.emit, node.lineno, name, arr, axis, keep)
        if name == "astype":
            target = dtype_kw or _dtype_from_node(
                node.args[0] if node.args else None
            )
            return ArrayV(
                shape=arr.shape,
                dtype=target or "?",
                buffers=frozenset({fresh_buffer()}),
            )
        if name == "reshape":
            return ops.reshape(self.emit, node.lineno, arr, args)
        if name in ("ravel", "flatten"):
            if arr.shape is not None:
                total = Dim.const(1)
                for d in arr.shape:
                    total = total * d
                shape: Optional[tuple[Dim, ...]] = (total,)
            else:
                shape = None
            buffers = (
                frozenset({fresh_buffer()})
                if name == "flatten"
                else arr.buffers
            )
            return ArrayV(shape=shape, dtype=arr.dtype, buffers=buffers)
        if name == "copy":
            return ArrayV(
                shape=arr.shape,
                dtype=arr.dtype,
                buffers=frozenset({fresh_buffer()}),
            )
        if name == "view":
            return ArrayV(
                shape=arr.shape, dtype=arr.dtype, buffers=arr.buffers
            )
        if name == "fill":
            return NoneV()
        if name == "item":
            return (
                IntV(fresh_dim()) if arr.dtype == DTYPE_I64 else FloatV()
            )
        return UnknownV()

    def _contract_call(
        self,
        qualname: str,
        node: ast.Call,
        args: list[Value],
        *,
        receiver: Optional[ObjV],
    ) -> Value:
        contract = self.contracts.functions.get(qualname)
        fdef = self.interp.funcdefs.get(qualname)
        binding: dict[str, Dim] = {}
        if contract is not None and fdef is not None:
            params = [
                a.arg
                for a in [*fdef.args.posonlyargs, *fdef.args.args]
            ]
            if receiver is not None and params and params[0] in (
                "self",
                "cls",
            ):
                params = params[1:]
            short = qualname.rsplit(".", 1)[-1]
            for pname, value in zip(params, args):
                spec = contract.params.get(pname)
                if spec is not None:
                    spec = _bind_spec(spec, value, binding)
                    self.check_spec(
                        value,
                        spec,
                        node.lineno,
                        f"parameter {pname!r} of {short}()",
                    )
        if receiver is not None:
            # The callee may rebind or rotate any attribute: memoized
            # facts are stale after the call.  Contracted attributes
            # re-instantiate (fresh buffers) on next read.
            receiver.attrs.clear()
        if contract is not None and contract.returns is not None:
            # A return symbol that no argument bound names a size of the
            # callee's, unknown here: it must not match the caller's
            # dimension of the same name.
            for sym in _spec_symbols(contract.returns):
                binding.setdefault(sym, fresh_dim())
            returns = _substitute_spec(contract.returns, binding)
            return instantiate(returns, f"<return:{qualname}>")
        return UnknownV()

    def _builtin_call(
        self, name: str, node: ast.Call, args: list[Value]
    ) -> Value:
        if name == "len" and args:
            v = args[0]
            if isinstance(v, ArrayV) and v.shape:
                return IntV(v.shape[0])
            if isinstance(v, TupleV):
                return IntV(Dim.const(len(v.elems)))
            return IntV(fresh_dim())
        if name == "float":
            return FloatV()
        if name == "int":
            if args and isinstance(args[0], IntV):
                return args[0]
            return IntV(fresh_dim())
        if name == "bool":
            return BoolV()
        if name == "str":
            return StrV()
        if name == "abs" and args:
            if isinstance(args[0], IntV):
                return IntV(fresh_dim())
            if isinstance(args[0], FloatV):
                return FloatV()
            return UnknownV()
        if name in ("min", "max", "sum") and args:
            if all(isinstance(a, IntV) for a in args):
                return IntV(fresh_dim())
            if all(isinstance(a, (IntV, FloatV)) for a in args):
                return FloatV()
            return UnknownV()
        if name == "tuple" and args and isinstance(args[0], TupleV):
            return args[0]
        return UnknownV()


def _attr_root(node: ast.Attribute) -> Optional[str]:
    value = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    return value.id if isinstance(value, ast.Name) else None


def _join_env(a: dict[str, Value], b: dict[str, Value]) -> dict[str, Value]:
    out: dict[str, Value] = {}
    for key in set(a) | set(b):
        if key in a and key in b:
            out[key] = join_values(a[key], b[key])
        else:
            out[key] = a.get(key, b.get(key, UnknownV()))
    return out


def interpret_module(
    tree: ast.Module, contracts: ModuleContracts, path: str
) -> list[Finding]:
    """Run the shape interpreter over one parsed module."""
    if contracts.empty:
        return []
    return _Interp(tree, contracts, path).run()
