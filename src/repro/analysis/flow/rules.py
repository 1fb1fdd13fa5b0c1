"""Cross-module flow rules REPRO-F001..F005.

Each rule consumes the :class:`~repro.analysis.flow.callgraph.ProjectIndex`
(and, for F003/F004, the resolved :class:`CallGraph`) and emits
:class:`~repro.analysis.findings.Finding` objects.  All rules run over
cached per-module facts — none of them re-parses source.

* **REPRO-F001 — RNG provenance.**  Library code must draw randomness
  from a seeded ``numpy.random.Generator`` that *flows in* (a parameter
  or a constructor-seeded attribute).  Statically that means: no
  ``default_rng()`` / ``PCG64()`` / ``SeedSequence()`` without a seed
  argument, no legacy global ``np.random.*`` draws, and no
  ``RandomState`` — anywhere outside tests and benchmarks.  This is the
  static side of the golden-trace / cache-digest determinism contract.
* **REPRO-F002 — cross-process picklability.**  Classes reachable
  through the annotated fields of the spawn-crossing roots
  (``ScenarioJob``/``FaultSpec``/``ScenarioTrace``) and exception types
  raised under ``repro.exec`` must not bind statically-unpicklable
  members (lambdas, locks, open handles, generators).
* **REPRO-F003 — interprocedural hot-path purity.**  The transitive
  call-graph closure of the step-kernel entry points must stay free of
  the L009 numpy-temporary constructors, wherever the callee lives —
  not just in the six statically-listed platform modules.
* **REPRO-F004 — unit-suffix dataflow.**  The module-local half
  (assignments, additive/comparison mixes) is computed during
  extraction; this module adds the cross-call half: an argument whose
  inferred suffix disagrees with the callee parameter's suffix.
* **REPRO-F005 — frozen-dataclass mutation.**  Attribute writes to
  instances of ``@dataclass(frozen=True)`` types outside
  ``__post_init__`` (the ``object.__setattr__`` idiom never appears as
  an attribute write, so it is exempt by construction).
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterable

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.callgraph import CallGraph, ProjectIndex
from repro.analysis.flow.dataflow import suffix_family, suffix_of
from repro.analysis.flow.symbols import MODULE_SCOPE, FunctionFacts

__all__ = [
    "DEFAULT_ENTRY_POINTS",
    "DEFAULT_HOT_PATH_ALLOWED",
    "DEFAULT_PICKLE_ROOTS",
    "DEFAULT_WORKER_MODULE_PATTERNS",
    "RNG_EXEMPT_PATH_FRAGMENTS",
    "check_frozen_mutation",
    "check_hot_path_purity",
    "check_picklability",
    "check_rng_provenance",
    "check_unit_flow",
    "run_all_rules",
]

# Step-kernel entry points (REPRO-F003), as fnmatch patterns over
# function qualnames.  `_control` is the per-tick decision hook of
# every resource manager (template method in managers/base.py).
DEFAULT_ENTRY_POINTS: tuple[str, ...] = (
    "repro.platform.soc.ExynosSoC.step",
    "repro.platform.manycore.ManyCoreSoC.step",
    "repro.platform.soc.read_cluster_telemetry",
    "repro.platform.fleet.FleetPlatform.step",
    "repro.managers.*._control",
)

# Functions reachable from an entry point but exempt from REPRO-F003:
# differential probes that machine-verify a compiled fast path.  They
# run once (at construction or on first use, behind a sticky flag), so
# their numpy temporaries never recur per tick.
DEFAULT_HOT_PATH_ALLOWED: frozenset[str] = frozenset(
    {
        "_resolve_snap_kernel",
        "_probe_noise_fill",
    }
)

# Spawn-boundary roots (REPRO-F002): everything reachable through their
# fields crosses a ProcessPoolExecutor pickle.
DEFAULT_PICKLE_ROOTS: tuple[str, ...] = (
    "repro.exec.job.ScenarioJob",
    "repro.exec.job.FaultSpec",
    "repro.experiments.runner.ScenarioTrace",
)

# Modules whose raised exceptions travel back through the pool's result
# pickle (REPRO-F002's exception half).
DEFAULT_WORKER_MODULE_PATTERNS: tuple[str, ...] = (
    "repro.exec",
    "repro.exec.*",
)

# Paths where global/unseeded RNG is tolerated (REPRO-F001): tests and
# benchmarks own their determinism story; library code does not.
RNG_EXEMPT_PATH_FRAGMENTS: tuple[str, ...] = (
    "tests/",
    "benchmarks/",
    "conftest",
)

# numpy.random module-level constructors that accept (and then require)
# an explicit seed as their first argument.
_SEEDED_CONSTRUCTORS = frozenset(
    {"default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
     "SeedSequence"}
)

# numpy.random attributes that are legitimate non-drawing references.
_RNG_NEUTRAL = frozenset({"Generator", "BitGenerator"})


def _is_exempt_path(path: str, fragments: Iterable[str]) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in fragments)


# ----------------------------------------------------------------------
# REPRO-F001 — RNG provenance
# ----------------------------------------------------------------------
def check_rng_provenance(
    index: ProjectIndex,
    *,
    exempt_fragments: Iterable[str] = RNG_EXEMPT_PATH_FRAGMENTS,
) -> list[Finding]:
    findings: list[Finding] = []
    for qualname, facts in index.functions.items():
        analysis = index.function_modules[qualname]
        if _is_exempt_path(analysis.path, exempt_fragments):
            continue
        for site in facts.calls:
            if site.kind != "global":
                continue
            prefix, _, attr = site.name.rpartition(".")
            if prefix not in ("numpy.random", "numpy.random.mtrand"):
                continue
            if attr in _RNG_NEUTRAL:
                continue
            if attr in _SEEDED_CONSTRUCTORS:
                if site.n_args == 0 and "seed" not in site.kw_names and \
                        "entropy" not in site.kw_names:
                    findings.append(
                        Finding(
                            path=analysis.path,
                            line=site.lineno,
                            rule="REPRO-F001",
                            severity=Severity.ERROR,
                            message=f"{attr}() without a seed in "
                            f"{qualname}: library randomness must flow "
                            "from a seeded Generator (golden-trace / "
                            "cache-digest determinism contract)",
                        )
                    )
            elif attr == "RandomState":
                findings.append(
                    Finding(
                        path=analysis.path,
                        line=site.lineno,
                        rule="REPRO-F001",
                        severity=Severity.ERROR,
                        message=f"legacy numpy.random.RandomState in "
                        f"{qualname}; use a seeded "
                        "numpy.random.Generator parameter",
                    )
                )
            else:
                findings.append(
                    Finding(
                        path=analysis.path,
                        line=site.lineno,
                        rule="REPRO-F001",
                        severity=Severity.ERROR,
                        message=f"global numpy.random.{attr} draw in "
                        f"{qualname}; draw from a seeded Generator "
                        "parameter instead (global RNG state breaks "
                        "run-to-run and spawn determinism)",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# REPRO-F002 — cross-process picklability
# ----------------------------------------------------------------------
def _reachable_classes(
    index: ProjectIndex, roots: Iterable[str]
) -> dict[str, str]:
    """Project classes reachable from root fields: class -> provenance."""
    reachable: dict[str, str] = {}
    frontier: list[str] = []
    for root in roots:
        if root in index.classes and root not in reachable:
            reachable[root] = "root"
            frontier.append(root)
    while frontier:
        current = frontier.pop()
        facts = index.classes[current]
        # Fields (annotated members) and base classes both ship.
        referenced: list[tuple[str, str]] = [
            (base, f"base of {current}") for base in facts.bases
        ]
        for field_name, refs in facts.fields.items():
            referenced.extend(
                (ref, f"field {current}.{field_name}") for ref in refs
            )
        for ref, provenance in referenced:
            if ref in index.classes and ref not in reachable:
                reachable[ref] = provenance
                frontier.append(ref)
    return reachable


def _worker_exception_classes(
    index: ProjectIndex, patterns: Iterable[str]
) -> dict[str, str]:
    raised: dict[str, str] = {}
    for qualname, facts in index.functions.items():
        module = index.function_modules[qualname].module
        if not any(fnmatchcase(module, pattern) for pattern in patterns):
            continue
        for _lineno, exc in facts.raises:
            if exc in index.classes and exc not in raised:
                raised[exc] = f"raised in {qualname}"
    return raised


def check_picklability(
    index: ProjectIndex,
    *,
    roots: Iterable[str] = DEFAULT_PICKLE_ROOTS,
    worker_patterns: Iterable[str] = DEFAULT_WORKER_MODULE_PATTERNS,
) -> list[Finding]:
    reachable = _reachable_classes(index, roots)
    reachable.update(
        (cls, why)
        for cls, why in _worker_exception_classes(index, worker_patterns).items()
        if cls not in reachable
    )
    findings: list[Finding] = []
    for qualname, provenance in sorted(reachable.items()):
        facts = index.classes[qualname]
        analysis = index.class_modules[qualname]
        origin = (
            "a spawn-boundary root"
            if provenance == "root"
            else f"reachable via {provenance}"
        )
        for lineno, description in facts.unpicklable:
            findings.append(
                Finding(
                    path=analysis.path,
                    line=lineno,
                    rule="REPRO-F002",
                    severity=Severity.ERROR,
                    message=f"{qualname} is {origin} but binds a "
                    f"statically-unpicklable member ({description}); it "
                    "cannot cross the exec engine's spawn boundary",
                )
            )
    return findings


# ----------------------------------------------------------------------
# REPRO-F003 — interprocedural hot-path purity
# ----------------------------------------------------------------------
def check_hot_path_purity(
    graph: CallGraph,
    *,
    entry_points: Iterable[str] = DEFAULT_ENTRY_POINTS,
    allowed_functions: frozenset[str] = frozenset(),
) -> list[Finding]:
    index = graph.index
    closure, provenance = graph.closure(entry_points)
    findings: list[Finding] = []
    for qualname in sorted(closure):
        facts = index.functions[qualname]
        if not facts.numpy_temps:
            continue
        if facts.name in ("__init__", "__post_init__", MODULE_SCOPE):
            continue  # construction-time, not per-tick
        if facts.name in allowed_functions:
            continue  # pairwise-reduction order IS the bit contract
        analysis = index.function_modules[qualname]
        chain = graph.call_chain(provenance, qualname)
        via = " -> ".join(chain) if len(chain) > 1 else chain[0]
        for lineno, np_func in facts.numpy_temps:
            findings.append(
                Finding(
                    path=analysis.path,
                    line=lineno,
                    rule="REPRO-F003",
                    severity=Severity.ERROR,
                    message=f"np.{np_func} in {qualname} allocates a numpy "
                    "temporary on the per-tick hot path (reachable: "
                    f"{via}); use scalar math or allowlist with a "
                    "bit-identity justification",
                )
            )
    return findings


# ----------------------------------------------------------------------
# REPRO-F004 — unit-suffix dataflow (cross-call half)
# ----------------------------------------------------------------------
def _callee_param(
    facts: FunctionFacts, slot: str
) -> tuple[str, str | None] | None:
    """The callee parameter a call-argument slot binds to."""
    params = list(facts.params)
    if params and facts.cls is not None and params[0][0] in ("self", "cls"):
        params = params[1:]
    if slot.startswith("kw:"):
        name = slot[3:]
        for param in params:
            if param[0] == name:
                return param
        return None
    try:
        return params[int(slot)]
    except (ValueError, IndexError):
        return None


def check_unit_flow(graph: CallGraph) -> list[Finding]:
    """Cross-call REPRO-F004: argument suffix vs. parameter suffix."""
    index = graph.index
    findings: list[Finding] = []
    for resolved in graph.resolved_calls:
        if not resolved.site.arg_units or resolved.via_fallback:
            continue
        for target in resolved.targets:
            callee = index.functions.get(target)
            if callee is None:
                continue
            caller_module = index.function_modules[resolved.caller]
            for slot, arg_unit in resolved.site.arg_units:
                param = _callee_param(callee, slot)
                if param is None:
                    continue
                param_unit = suffix_of(param[0])
                if param_unit is None or param_unit == arg_unit:
                    continue
                family_p = suffix_family(param_unit)
                family_a = suffix_family(arg_unit)
                detail = (
                    "different dimensions"
                    if family_p != family_a
                    else "same dimension, different scale"
                )
                findings.append(
                    Finding(
                        path=caller_module.path,
                        line=resolved.site.lineno,
                        rule="REPRO-F004",
                        severity=Severity.WARNING,
                        message=f"argument with unit {arg_unit!r} passed to "
                        f"parameter {param[0]!r} ({param_unit!r}) of "
                        f"{target}: {detail}",
                    )
                )
    return findings


def collect_local_findings(index: ProjectIndex) -> list[Finding]:
    """Module-local findings computed at extraction (F004 assignments)."""
    findings: list[Finding] = []
    for analysis in index.modules.values():
        findings.extend(analysis.local_findings)
    return findings


# ----------------------------------------------------------------------
# REPRO-F005 — frozen-dataclass mutation
# ----------------------------------------------------------------------
def check_frozen_mutation(index: ProjectIndex) -> list[Finding]:
    findings: list[Finding] = []
    frozen = {
        qualname
        for qualname, facts in index.classes.items()
        if facts.frozen_dataclass
    }
    if not frozen:
        return findings
    for qualname, facts in index.functions.items():
        if facts.name == "__post_init__":
            continue  # the sanctioned construction-time escape hatch
        analysis = index.function_modules[qualname]
        for write in facts.attr_writes:
            base = write.base
            resolved: str | None = None
            if base == "self":
                if facts.cls is not None:
                    resolved = f"{analysis.module}.{facts.cls}"
            elif base.startswith("self."):
                resolved = index.resolve_type_marker(base, facts)
            elif base.startswith("var:"):
                resolved = index.resolve_type_marker(
                    facts.var_types.get(base[4:]), facts
                )
            elif base.startswith("type:"):
                resolved = index.resolve_type_marker(base[5:], facts)
            if resolved in frozen:
                findings.append(
                    Finding(
                        path=analysis.path,
                        line=write.lineno,
                        rule="REPRO-F005",
                        severity=Severity.ERROR,
                        message=f"attribute write to frozen dataclass "
                        f"{resolved} ({write.attr!r}) in {qualname}; frozen "
                        "instances are hashable/digest-stable contracts — "
                        "use dataclasses.replace (or object.__setattr__ "
                        "inside __post_init__)",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_all_rules(
    index: ProjectIndex,
    graph: CallGraph | None = None,
    *,
    entry_points: Iterable[str] = DEFAULT_ENTRY_POINTS,
    pickle_roots: Iterable[str] = DEFAULT_PICKLE_ROOTS,
    worker_patterns: Iterable[str] = DEFAULT_WORKER_MODULE_PATTERNS,
    rng_exempt_fragments: Iterable[str] = RNG_EXEMPT_PATH_FRAGMENTS,
    hot_path_allowed: frozenset[str] = DEFAULT_HOT_PATH_ALLOWED,
) -> list[Finding]:
    """All five flow rules plus the extraction-time local findings."""
    if graph is None:
        graph = CallGraph.build(index)
    findings: list[Finding] = []
    findings.extend(collect_local_findings(index))
    findings.extend(
        check_rng_provenance(index, exempt_fragments=rng_exempt_fragments)
    )
    findings.extend(
        check_picklability(
            index, roots=pickle_roots, worker_patterns=worker_patterns
        )
    )
    findings.extend(
        check_hot_path_purity(
            graph,
            entry_points=entry_points,
            allowed_functions=hot_path_allowed,
        )
    )
    findings.extend(check_unit_flow(graph))
    findings.extend(check_frozen_mutation(index))
    return findings
