"""Import-resolved project call graph with bounded attribute resolution.

Builds on the per-module facts of :mod:`repro.analysis.flow.symbols`:
the :class:`ProjectIndex` merges every module's classes/functions into
global tables, and :class:`CallGraph` resolves each recorded call site
to the project functions it may invoke.

Resolution strategies, in decreasing precision:

1. **global** — the callee's dotted path (already resolved through the
   caller module's imports) names a project function or class
   (constructor calls edge to ``__init__``/``__post_init__``);
2. **self method** — looked up on the caller's class via the
   project-local MRO, plus overriding definitions in the subclass tree
   (virtual dispatch is over-approximated);
3. **typed attribute / variable** — ``self.attr.m()`` and ``x.m()``
   resolve the receiver's class from ``__init__`` assignments,
   annotations, or constructor-call dataflow, then do method lookup;
4. **name-match fallback** — a method call whose receiver stayed
   unknown matches every project class defining that method name,
   *bounded* by :data:`MAX_FALLBACK_CANDIDATES` — beyond the bound the
   call is recorded as unresolved rather than edge-exploded.

Strategies 1-3 under-approximate (monkey-patching, factories and
duck-typed attachment points are invisible); strategy 4
over-approximates.  The mix is tuned for REPRO-F003, where a missed
edge hides a real allocation and a spurious edge costs one baseline
entry; the caveats are documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable, Iterator

from repro.analysis.flow.symbols import (
    CallSite,
    ClassFacts,
    FunctionFacts,
    ModuleAnalysis,
)

__all__ = [
    "CallGraph",
    "MAX_FALLBACK_CANDIDATES",
    "ProjectIndex",
    "ResolvedCall",
]

# Name-match fallback bound: a method name defined by more project
# classes than this is too generic to guess a receiver for.
MAX_FALLBACK_CANDIDATES = 6

_MRO_DEPTH_LIMIT = 12


class ProjectIndex:
    """Global symbol tables over a set of analyzed modules."""

    def __init__(self, modules: dict[str, ModuleAnalysis]) -> None:
        self.modules = modules
        self.functions: dict[str, FunctionFacts] = {}
        self.function_modules: dict[str, ModuleAnalysis] = {}
        self.classes: dict[str, ClassFacts] = {}
        self.class_modules: dict[str, ModuleAnalysis] = {}
        self.method_index: dict[str, set[str]] = {}
        self.subclasses: dict[str, set[str]] = {}
        for analysis in modules.values():
            for facts in analysis.functions.values():
                self.functions[facts.qualname] = facts
                self.function_modules[facts.qualname] = analysis
            for class_facts in analysis.classes.values():
                self.classes[class_facts.qualname] = class_facts
                self.class_modules[class_facts.qualname] = analysis
        for class_facts in self.classes.values():
            for method in class_facts.methods:
                self.method_index.setdefault(method, set()).add(
                    class_facts.qualname
                )
            for base in class_facts.bases:
                if base in self.classes:
                    self.subclasses.setdefault(base, set()).add(
                        class_facts.qualname
                    )

    # -- class hierarchy ----------------------------------------------
    def iter_mro(self, class_qualname: str) -> Iterator[str]:
        """The class and its project-resolvable ancestors (BFS, bounded)."""
        seen: set[str] = set()
        frontier = [class_qualname]
        depth = 0
        while frontier and depth < _MRO_DEPTH_LIMIT:
            next_frontier: list[str] = []
            for qualname in frontier:
                if qualname in seen or qualname not in self.classes:
                    continue
                seen.add(qualname)
                yield qualname
                next_frontier.extend(self.classes[qualname].bases)
            frontier = next_frontier
            depth += 1

    def all_subclasses(self, class_qualname: str) -> set[str]:
        result: set[str] = set()
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop()
            for sub in self.subclasses.get(current, ()):
                if sub not in result:
                    result.add(sub)
                    frontier.append(sub)
        return result

    def resolve_attr_type(self, class_qualname: str, attr: str) -> str | None:
        """Type of ``self.<attr>`` on a class, searching the MRO."""
        for qualname in self.iter_mro(class_qualname):
            attr_type = self.classes[qualname].attr_types.get(attr)
            if attr_type is not None:
                return attr_type
        return None

    def resolve_type_marker(
        self, marker: str | None, caller: FunctionFacts
    ) -> str | None:
        """Resolve a symbols-layer type marker to a project class."""
        if marker is None:
            return None
        if marker.startswith("self."):
            if caller.cls is None:
                return None
            module = self.function_modules[caller.qualname].module
            own_class = f"{module}.{caller.cls}"
            resolved = self.resolve_attr_type(own_class, marker[len("self."):])
            return self.resolve_type_marker(resolved, caller)
        return marker if marker in self.classes else None

    def resolve_method(self, class_qualname: str, method: str) -> set[str]:
        """Function qualnames ``class.method`` may dispatch to."""
        targets: set[str] = set()
        for qualname in self.iter_mro(class_qualname):
            candidate = f"{qualname}.{method}"
            if candidate in self.functions:
                targets.add(candidate)
                break
        for sub in self.all_subclasses(class_qualname):
            candidate = f"{sub}.{method}"
            if candidate in self.functions:
                targets.add(candidate)
        return targets

    def match_functions(self, patterns: Iterable[str]) -> set[str]:
        """Function qualnames matching any fnmatch pattern."""
        matched: set[str] = set()
        for pattern in patterns:
            if pattern in self.functions:
                matched.add(pattern)
                continue
            matched.update(
                qualname
                for qualname in self.functions
                if fnmatchcase(qualname, pattern)
            )
        return matched


@dataclass(frozen=True)
class ResolvedCall:
    """One call site with its resolved project targets."""

    caller: str
    site: CallSite
    targets: tuple[str, ...]
    via_fallback: bool = False


@dataclass
class CallGraph:
    """Resolved call edges over a :class:`ProjectIndex`."""

    index: ProjectIndex
    edges: dict[str, set[str]] = field(default_factory=dict)
    resolved_calls: list[ResolvedCall] = field(default_factory=list)
    unresolved: list[tuple[str, CallSite]] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        index: ProjectIndex,
        *,
        max_fallback_candidates: int = MAX_FALLBACK_CANDIDATES,
    ) -> "CallGraph":
        graph = cls(index=index)
        for qualname, facts in index.functions.items():
            for site in facts.calls:
                targets, via_fallback = graph._resolve_site(
                    facts, site, max_fallback_candidates
                )
                if targets:
                    graph.edges.setdefault(qualname, set()).update(targets)
                    graph.resolved_calls.append(
                        ResolvedCall(
                            caller=qualname,
                            site=site,
                            targets=tuple(sorted(targets)),
                            via_fallback=via_fallback,
                        )
                    )
                elif site.kind != "global":
                    graph.unresolved.append((qualname, site))
        return graph

    # -- resolution ----------------------------------------------------
    def _own_class(self, facts: FunctionFacts) -> str | None:
        if facts.cls is None:
            return None
        module = self.index.function_modules[facts.qualname].module
        return f"{module}.{facts.cls}"

    def _resolve_site(
        self,
        caller: FunctionFacts,
        site: CallSite,
        max_fallback: int,
    ) -> tuple[set[str], bool]:
        index = self.index
        if site.kind == "global":
            if site.name in index.functions:
                return {site.name}, False
            if site.name in index.classes:
                constructors = {
                    candidate
                    for suffix in ("__init__", "__post_init__")
                    if (candidate := f"{site.name}.{suffix}") in index.functions
                }
                return constructors, False
            return set(), False

        receiver: str | None = None
        if site.kind == "self_method":
            receiver = self._own_class(caller)
        elif site.kind == "self_attr_method":
            own = self._own_class(caller)
            if own is not None:
                receiver = index.resolve_type_marker(
                    index.resolve_attr_type(own, site.extra), caller
                )
        elif site.kind == "var_method":
            receiver = index.resolve_type_marker(
                caller.var_types.get(site.extra), caller
            )

        if receiver is not None:
            targets = index.resolve_method(receiver, site.name)
            if targets:
                return targets, False

        # Bounded name-match fallback (also for failed typed resolution).
        candidates = index.method_index.get(site.name, set())
        if 0 < len(candidates) <= max_fallback:
            targets = {
                qualname
                for candidate in candidates
                if (qualname := f"{candidate}.{site.name}") in index.functions
            }
            return targets, True
        return set(), False

    # -- reachability --------------------------------------------------
    def closure(
        self, entry_patterns: Iterable[str]
    ) -> tuple[set[str], dict[str, str]]:
        """Transitive call-graph closure of the matching entry points.

        Returns ``(reachable, provenance)`` where ``provenance`` maps
        each reachable function to its BFS predecessor (entry points map
        to themselves), for building explanatory call chains.
        """
        entries = self.index.match_functions(entry_patterns)
        reachable: set[str] = set()
        provenance: dict[str, str] = {}
        frontier = sorted(entries)
        for entry in frontier:
            provenance[entry] = entry
        while frontier:
            current = frontier.pop(0)
            if current in reachable:
                continue
            reachable.add(current)
            for target in sorted(self.edges.get(current, ())):
                if target not in provenance:
                    provenance[target] = current
                    frontier.append(target)
        return reachable, provenance

    def call_chain(self, provenance: dict[str, str], qualname: str) -> list[str]:
        """Entry-to-function chain recovered from BFS provenance."""
        chain = [qualname]
        seen = {qualname}
        while provenance.get(chain[0], chain[0]) != chain[0]:
            predecessor = provenance[chain[0]]
            if predecessor in seen:
                break
            chain.insert(0, predecessor)
            seen.add(predecessor)
        return chain
