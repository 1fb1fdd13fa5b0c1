"""REPRO-S004: ctypes bindings must match the embedded C signatures.

The fused kernels embed their C source as a module-level string
constant and bind the compiled symbols by hand::

    step = lib.fused_servo_step
    step.restype = None
    step.argtypes = [ctypes.c_longlong] * 4 + [ctypes.c_void_p] * 23 + ...

Nothing checks that the hand-written ``argtypes`` list tracks the C
parameter list — a drift (one pointer dropped, an ``i64`` bound as
``c_int``, a ``double*`` bound as ``c_longlong``) produces silently
corrupted kernel arguments that only the runtime differential probes
can catch.  This module closes the loop statically:

1. every module-level string constant is scanned for **exported**
   (non-``static``) C function definitions, with ``typedef`` aliases
   resolved (``typedef long long i64;``);
2. every ``<alias> = lib.<symbol>`` binding whose symbol matches a
   parsed C function is collected, along with the ``.argtypes`` /
   ``.restype`` assignments on the alias (list literals, ``[x] * k``
   repetition, and ``+`` concatenation are evaluated statically);
3. arity, parameter kinds (pointer / 64-bit int / int / double /
   signed char) and the return type are cross-checked.

The parser is deliberately narrow: it understands the C subset the
kernels are written in (scalar and pointer parameters of fundamental
types), and anything it cannot resolve is skipped rather than guessed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # the project module imports this one
    from repro.analysis.project import TreeIndex

__all__ = ["check_ctypes_bindings", "parse_c_functions"]

# ----------------------------------------------------------------------
# C-source signature parsing
# ----------------------------------------------------------------------
_TYPEDEF_RE = re.compile(
    r"typedef\s+(?P<base>[A-Za-z_][\w\s]*?)\s+(?P<alias>[A-Za-z_]\w*)\s*;"
)

# A function definition/prototype at brace depth 0:
#   [static] ret-type name(params) { | ;
_FUNC_RE = re.compile(
    r"(?P<static>\bstatic\b\s+)?"
    r"(?P<ret>[A-Za-z_][\w\s\*]*?)\s*"
    r"\b(?P<name>[A-Za-z_]\w*)\s*"
    r"\((?P<params>[^()]*)\)\s*(?:\{|;)",
    re.DOTALL,
)

_KEYWORDS = frozenset(
    {"if", "for", "while", "switch", "return", "sizeof", "else", "do"}
)


@dataclass(frozen=True)
class CParam:
    name: str
    decl: str  # normalized declaration text, e.g. "const double *"
    kind: str  # pointer | i64 | int | double | schar | other


@dataclass(frozen=True)
class CFunction:
    name: str
    returns: str  # void | double | i64 | int | other
    params: tuple[CParam, ...]


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _strip_comments(source: str) -> str:
    source = re.sub(r"/\*.*?\*/", " ", source, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", " ", source)


def _classify_type(decl: str, typedefs: dict[str, str]) -> str:
    """Map a normalized C declaration (sans param name) to a kind."""
    if "*" in decl:
        return "pointer"
    words = [w for w in decl.replace("*", " ").split() if w != "const"]
    expanded: list[str] = []
    for w in words:
        expanded.extend(typedefs.get(w, w).split())
    base = " ".join(expanded)
    if base in ("long long", "long long int", "int64_t", "unsigned long long"):
        return "i64"
    if base in ("double",):
        return "double"
    if base in ("float",):
        return "float"
    if base in ("int", "unsigned", "unsigned int", "int32_t"):
        return "int"
    if base in ("signed char", "char", "int8_t", "unsigned char"):
        return "schar"
    if base in ("void",):
        return "void"
    return "other"


def _parse_param(raw: str, typedefs: dict[str, str]) -> Optional[CParam]:
    raw = _normalize_ws(raw)
    if not raw or raw == "void":
        return None
    # Split the trailing identifier off the declaration.
    match = re.match(r"^(?P<decl>.*?)(?P<name>[A-Za-z_]\w*)$", raw)
    if match is None:
        return CParam(name="", decl=raw, kind="other")
    decl = _normalize_ws(match.group("decl"))
    name = match.group("name")
    if not decl:  # bare name: parameter without a type we understand
        return CParam(name=name, decl=raw, kind="other")
    return CParam(name=name, decl=decl, kind=_classify_type(decl, typedefs))


def parse_c_functions(source: str) -> dict[str, CFunction]:
    """Exported (non-static) function signatures in a C source string."""
    source = _strip_comments(source)
    typedefs: dict[str, str] = {}
    for match in _TYPEDEF_RE.finditer(source):
        typedefs[match.group("alias")] = _normalize_ws(match.group("base"))
    functions: dict[str, CFunction] = {}
    for match in _FUNC_RE.finditer(source):
        if match.group("static"):
            continue
        name = match.group("name")
        if name in _KEYWORDS:
            continue
        ret = _normalize_ws(match.group("ret"))
        # Reject matches that are actually calls/conditions: a real
        # definition's return type is a plain type word sequence.
        if not re.fullmatch(r"[A-Za-z_][\w\s\*]*", ret):
            continue
        ret_kind = _classify_type(ret, typedefs)
        if ret_kind == "other" and "*" not in ret:
            continue  # not a type we recognise: likely a false match
        params_src = match.group("params").strip()
        params: list[CParam] = []
        if params_src:
            ok = True
            for piece in params_src.split(","):
                param = _parse_param(piece, typedefs)
                if param is None:
                    continue
                if param.kind == "other" and not param.decl:
                    ok = False
                    break
                params.append(param)
            if not ok:
                continue
        functions[name] = CFunction(
            name=name, returns=ret_kind, params=tuple(params)
        )
    return functions


# ----------------------------------------------------------------------
# ctypes-token evaluation (argtypes / restype expressions)
# ----------------------------------------------------------------------
def _ctypes_token(node: ast.expr) -> Optional[str]:
    """``ctypes.c_void_p`` -> ``c_void_p``; ``None`` -> ``None``."""
    if isinstance(node, ast.Constant) and node.value is None:
        return "None"
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        # ctypes.POINTER(ctypes.c_double) and friends
        func = node.func
        fname = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if fname == "POINTER":
            return "POINTER"
    return None


def _eval_argtypes(node: ast.expr) -> Optional[list[str]]:
    """Statically evaluate an argtypes expression to ctypes tokens."""
    if isinstance(node, (ast.List, ast.Tuple)):
        tokens: list[str] = []
        for elt in node.elts:
            token = _ctypes_token(elt)
            if token is None:
                return None
            tokens.append(token)
        return tokens
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            left = _eval_argtypes(node.left)
            right = _eval_argtypes(node.right)
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node.op, ast.Mult):
            seq, count = node.left, node.right
            if not isinstance(count, ast.Constant):
                seq, count = node.right, node.left
            if not (
                isinstance(count, ast.Constant)
                and isinstance(count.value, int)
            ):
                return None
            base = _eval_argtypes(seq)
            if base is None:
                return None
            return base * count.value
    return None


_KIND_COMPAT = {
    "pointer": frozenset({"c_void_p", "c_char_p", "POINTER"}),
    "i64": frozenset({"c_longlong", "c_int64", "c_ssize_t", "c_size_t"}),
    "int": frozenset({"c_int", "c_int32", "c_uint"}),
    "double": frozenset({"c_double"}),
    "float": frozenset({"c_float"}),
    "schar": frozenset({"c_byte", "c_char", "c_int8", "c_ubyte"}),
}

_RESTYPE_COMPAT = {
    "void": frozenset({"None"}),
    "double": frozenset({"c_double"}),
    "float": frozenset({"c_float"}),
    "i64": frozenset({"c_longlong", "c_int64"}),
    "int": frozenset({"c_int"}),
    "pointer": frozenset({"c_void_p", "c_char_p", "POINTER"}),
    "schar": frozenset({"c_byte", "c_char"}),
}


@dataclass
class _Binding:
    cname: str
    line: int
    argtypes: Optional[list[str]] = None
    argtypes_line: int = 0
    restype: Optional[str] = None
    restype_line: int = 0
    restype_set: bool = False


def _alias_key(node: ast.expr) -> Optional[str]:
    """A stable key for the bound alias: bare name or self-attribute."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _alias_key(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def check_ctypes_bindings(index: TreeIndex, path: str) -> list[Finding]:
    """Cross-check every ``lib.<symbol>`` binding against the embedded
    C source found in the same module (REPRO-S004).

    All three passes read the module's ``Assign`` nodes in walk order,
    so a rebound alias keeps its last binding.
    """
    assigns = [
        node for node in index.assignments if isinstance(node, ast.Assign)
    ]
    functions: dict[str, CFunction] = {}
    for node in assigns:
        if (
            isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and ("(" in node.value.value)
        ):
            functions.update(parse_c_functions(node.value.value))
    if not functions:
        return []

    bindings: dict[str, _Binding] = {}
    for node in assigns:
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        value = node.value
        # <alias> = <lib expr>.<cfunc>
        if isinstance(value, ast.Attribute) and value.attr in functions:
            key = _alias_key(target)
            if key is not None:
                bindings[key] = _Binding(cname=value.attr, line=node.lineno)
            continue
        # <alias> = <other alias>   (e.g. self._step = step)
        if isinstance(value, (ast.Name, ast.Attribute)):
            src_key = _alias_key(value)
            dst_key = _alias_key(target)
            if src_key in bindings and dst_key is not None:
                bindings[dst_key] = bindings[src_key]
            continue

    for node in assigns:
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Attribute):
            continue
        if target.attr not in ("argtypes", "restype"):
            continue
        key = _alias_key(target.value)
        binding = bindings.get(key) if key is not None else None
        if binding is None:
            continue
        if target.attr == "argtypes":
            binding.argtypes = _eval_argtypes(node.value)
            binding.argtypes_line = node.lineno
        else:
            binding.restype = _ctypes_token(node.value)
            binding.restype_line = node.lineno
            binding.restype_set = True

    findings: list[Finding] = []

    def emit(line: int, message: str) -> None:
        findings.append(
            Finding(
                path=path,
                line=line,
                rule="REPRO-S004",
                severity=Severity.ERROR,
                message=message,
            )
        )

    seen: set[int] = set()
    for binding in bindings.values():
        if id(binding) in seen:  # aliased bindings share one record
            continue
        seen.add(id(binding))
        cfunc = functions[binding.cname]
        if binding.argtypes is not None:
            if len(binding.argtypes) != len(cfunc.params):
                emit(
                    binding.argtypes_line,
                    f"ctypes binding of {cfunc.name}() has "
                    f"{len(binding.argtypes)} argtypes but the C signature "
                    f"has {len(cfunc.params)} parameters",
                )
            else:
                for i, (token, param) in enumerate(
                    zip(binding.argtypes, cfunc.params)
                ):
                    allowed = _KIND_COMPAT.get(param.kind)
                    if allowed is not None and token not in allowed:
                        emit(
                            binding.argtypes_line,
                            f"argtype {i + 1} of {cfunc.name}() is {token} "
                            f"but the C parameter {param.name!r} is "
                            f"{param.decl}",
                        )
        if binding.restype_set and binding.restype is not None:
            allowed = _RESTYPE_COMPAT.get(cfunc.returns)
            if allowed is not None and binding.restype not in allowed:
                emit(
                    binding.restype_line,
                    f"restype of {cfunc.name}() is {binding.restype} but "
                    f"the C function returns {cfunc.returns}",
                )
        elif not binding.restype_set and cfunc.returns != "void" and (
            binding.argtypes is not None
        ):
            emit(
                binding.line,
                f"binding of {cfunc.name}() sets argtypes but not restype; "
                f"the C function returns {cfunc.returns}",
            )
    return sorted(findings)
