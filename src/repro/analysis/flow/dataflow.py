"""Small forward dataflow engine over function bodies (stdlib ``ast``).

The engine executes one abstract forward pass over a function's
statements in program order, maintaining an environment (a plain dict)
of per-variable abstract values.  Control flow is handled
conservatively:

* ``if``/``try`` branches are analyzed on copies of the environment and
  merged afterwards — a variable survives the merge only if every
  branch agrees on its value (everything else becomes unknown);
* loop bodies get a single pass (no fixpoint iteration) merged against
  the pre-loop environment, so loop-carried refinements are dropped
  rather than guessed;
* nested ``def``/``class`` statements are opaque (they are analyzed as
  their own functions by the symbol indexer).

This is deliberately a *may*-analysis with an unknown-means-silent
policy: rules built on it (unit inference, constructor type tracking)
only act on facts the single pass can prove, which keeps false
positives low at the cost of completeness — the soundness/completeness
caveats are documented in DESIGN.md ("Whole-program contracts").

The module also hosts the unit-suffix lattice used by REPRO-F004: a
value's abstract unit is the naming-convention suffix (``_ms``, ``_w``,
...) propagated through assignments and arithmetic, with
multiplication/division by a numeric literal treated as an explicit
unit conversion (``epoch_s = epoch_ms * 1e-3`` is idiomatic, not a
mix-up).
"""

from __future__ import annotations

import ast
import functools
from typing import Any, Callable, Iterator

__all__ = [
    "ForwardAnalysis",
    "UNIT_FAMILIES",
    "expr_statements",
    "suffix_family",
    "suffix_of",
    "unit_of",
]


class ForwardAnalysis:
    """Base class: one abstract forward pass over a function body.

    Subclasses override :meth:`on_statement` (called once per statement,
    including statements nested in branches/loops, *before* any
    assignment transfer) and :meth:`evaluate` (abstract value of an
    expression under the current environment).  Assignments bind the
    evaluated value; un-evaluable values clear the variable.
    """

    def run(self, node: ast.AST, env: dict[str, Any] | None = None) -> dict[str, Any]:
        env = {} if env is None else env
        body = getattr(node, "body", [])
        self._exec_block(body, env)
        return env

    # -- subclass hooks ------------------------------------------------
    def on_statement(self, stmt: ast.stmt, env: dict[str, Any]) -> None:
        """Inspect one statement under the environment reaching it."""

    def evaluate(self, expr: ast.expr, env: dict[str, Any]) -> Any:
        """Abstract value of ``expr`` (None = unknown)."""
        return None

    # -- driver --------------------------------------------------------
    def _exec_block(self, stmts: list[ast.stmt], env: dict[str, Any]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: dict[str, Any]) -> None:
        self.on_statement(stmt, env)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # opaque: indexed as its own scope
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._bind_target(target, stmt.value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                value = (
                    self.evaluate(stmt.value, env)
                    if stmt.value is not None
                    else None
                )
                annotated = self.evaluate_annotation(stmt.annotation, env)
                self._set(env, stmt.target.id, value if value is not None else annotated)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                # x += e keeps x's abstract value only if e agrees.
                current = env.get(stmt.target.id)
                update = self.evaluate(stmt.value, env)
                if current is not None and update is not None and current != update:
                    self._set(env, stmt.target.id, None)
        elif isinstance(stmt, ast.If):
            self._merge_branches(env, [stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt.target, ast.Name):
                self._set(env, stmt.target.id, None)
            self._merge_branches(env, [stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.While):
            self._merge_branches(env, [stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.Try):
            branches = [stmt.body + stmt.orelse]
            branches.extend(handler.body for handler in stmt.handlers)
            self._merge_branches(env, branches)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    value = self.evaluate(item.context_expr, env)
                    self._set(env, item.optional_vars.id, value)
            self._exec_block(stmt.body, env)

    def evaluate_annotation(self, annotation: ast.expr, env: dict[str, Any]) -> Any:
        """Abstract value contributed by a variable annotation."""
        return None

    def _bind_target(
        self, target: ast.expr, value: ast.expr, env: dict[str, Any]
    ) -> None:
        if isinstance(target, ast.Name):
            self._set(env, target.id, self.evaluate(value, env))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self._set(env, element.id, None)

    @staticmethod
    def _set(env: dict[str, Any], name: str, value: Any) -> None:
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value

    def _merge_branches(
        self, env: dict[str, Any], branches: list[list[ast.stmt]]
    ) -> None:
        branch_envs = []
        for body in branches:
            branch_env = dict(env)
            self._exec_block(body, branch_env)
            branch_envs.append(branch_env)
        merged: dict[str, Any] = {}
        first = branch_envs[0] if branch_envs else {}
        for name, value in first.items():
            if all(other.get(name) == value for other in branch_envs[1:]):
                merged[name] = value
        env.clear()
        env.update(merged)


def expr_statements(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The expression children of one statement (not nested statements).

    Walking these with ``ast.walk`` visits every expression evaluated
    *by this statement itself* — branch/loop bodies are separate
    statements the dataflow driver visits on its own, so call sites are
    never double counted.
    """
    for field, value in ast.iter_fields(stmt):
        if field in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item
                elif isinstance(item, ast.withitem):
                    yield item.context_expr
                elif isinstance(item, ast.keyword):
                    yield item.value


# ----------------------------------------------------------------------
# Unit-suffix lattice (REPRO-F004)
# ----------------------------------------------------------------------
# Physical-unit suffixes grouped by dimension.  Count-like suffixes
# (_epochs, _ticks, ...) are deliberately excluded: they are
# dimensionless labels, and mixing them with each other or with ratios
# is routine, not a bug.
UNIT_FAMILIES: dict[str, str] = {
    "_s": "time",
    "_ms": "time",
    "_us": "time",
    "_ns": "time",
    "_w": "power",
    "_mw": "power",
    "_kw": "power",
    "_j": "energy",
    "_mj": "energy",
    "_hz": "frequency",
    "_khz": "frequency",
    "_mhz": "frequency",
    "_ghz": "frequency",
}


@functools.lru_cache(maxsize=8192)
def suffix_of(name: str) -> str | None:
    """The physical-unit suffix a name carries, if any.

    Cached per name: it depends on the name alone, and a cold scan of
    this source tree asks about 3.2k distinct names 27k times.
    """
    lowered = name.lower()
    for suffix in UNIT_FAMILIES:
        if lowered.endswith(suffix):
            return suffix
    return None


def suffix_family(suffix: str | None) -> str | None:
    return UNIT_FAMILIES.get(suffix) if suffix else None


def _is_numeric_literal(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, (int, float))
    if isinstance(expr, ast.UnaryOp) and isinstance(
        expr.op, (ast.USub, ast.UAdd)
    ):
        return _is_numeric_literal(expr.operand)
    return False


def unit_of(
    expr: ast.expr,
    lookup: Callable[[str], str | None],
    on_mismatch: Callable[[ast.expr, str, str], None] | None = None,
) -> str | None:
    """Abstract unit suffix of an expression.

    ``lookup`` maps a variable name to its tracked suffix (the dataflow
    environment); names fall back to their own naming-convention
    suffix.  ``on_mismatch`` is invoked for additive mixing of two
    different suffixes (``epoch_ms + dwell_s``) — the in-expression
    half of REPRO-F004.
    """
    if isinstance(expr, ast.Name):
        tracked = lookup(expr.id)
        return tracked if tracked is not None else suffix_of(expr.id)
    if isinstance(expr, ast.Attribute):
        return suffix_of(expr.attr)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            return suffix_of(func.id)
        if isinstance(func, ast.Attribute):
            return suffix_of(func.attr)
        return None
    if isinstance(expr, ast.UnaryOp):
        return unit_of(expr.operand, lookup, on_mismatch)
    if isinstance(expr, ast.IfExp):
        body = unit_of(expr.body, lookup, on_mismatch)
        orelse = unit_of(expr.orelse, lookup, on_mismatch)
        return body if body == orelse else None
    if isinstance(expr, ast.Compare):
        # `epoch_ms > dwell_s` is the comparison form of additive mixing.
        operands = [expr.left, *expr.comparators]
        units = [unit_of(operand, lookup, on_mismatch) for operand in operands]
        known = [u for u in units if u is not None]
        if on_mismatch is not None and len(set(known)) > 1:
            on_mismatch(expr, known[0], known[1])
        return None
    if isinstance(expr, ast.BinOp):
        op = expr.op
        left = unit_of(expr.left, lookup, on_mismatch)
        right = unit_of(expr.right, lookup, on_mismatch)
        if isinstance(op, (ast.Add, ast.Sub)):
            if left and right and left != right and on_mismatch is not None:
                on_mismatch(expr, left, right)
            return left or right
        if isinstance(op, ast.Mult):
            # A literal factor is a unit conversion (1e-3, 1000, ...).
            if _is_numeric_literal(expr.left) or _is_numeric_literal(expr.right):
                return None
            if left and right:
                return None  # product changes dimension (W = V*A style)
            return left or right
        if isinstance(op, ast.Div):
            if _is_numeric_literal(expr.right):
                return None  # conversion divisor
            if left and right:
                return None  # ratio: units cancel or change dimension
            return left  # unit / dimensionless keeps the unit
        return None
    return None
