"""One pass per module for every analyzer tier.

Every tier that reads Python source goes through this module:

* :func:`walk` is the one file walker: it partitions the inputs into
  Python modules, artifact JSON files and policy-bundle directories,
  and every tier skips the same directories (:func:`skipped`);
* :func:`scan_source` reads one module's comments once, and makes one
  parse and one traversal per module: ``ast.parse`` once, then one
  breadth-first pass that builds a :class:`TreeIndex` (every node in
  ``ast.walk`` order with its parent link, and the imports,
  assignments and calls, in that order).  The tree and its index go
  to every intra-module pass — the lint visitor (L-rules), the
  ``repro.*`` import edges the architecture checker needs (R-rules),
  the flow analyzer's symbol facts (inputs of the F-rules) and the
  shapes analyzer's contracts, abstract interpreter and C-signature
  check (S-rules) — and none walks the whole tree again.  The result
  is one plain-data :class:`ModuleRecord`; the tree and its index are
  dropped before the next module is read, so memory does not grow
  with module count;
* :class:`ModuleCache` stores one record per module under a content
  hash (and, with another schema, the model analyzer's per-unit
  records), so a warm run parses nothing;
* :class:`ProjectScan` builds each module's record at most once per
  run, however many tiers ask for it.

Cross-module rules (flow's F-rules, the architecture R-rules) are not
cached: they always re-run from the records.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import __version__
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.symbols import (
    ModuleAnalysis,
    extract_module,
    module_name_for_path,
)
from repro.analysis.lint import lint_tree
from repro.analysis.shapes.contracts import collect_contracts
from repro.analysis.shapes.csig import check_ctypes_bindings
from repro.analysis.shapes.interp import interpret_module
from repro.analysis.suppress import (
    collect_suppressions,
    comment_tokens,
    filter_findings,
)
from repro.core.persistence import BUNDLE_MANIFEST

__all__ = [
    "DEFAULT_CACHE_DIR",
    "Inputs",
    "ModuleCache",
    "ModuleRecord",
    "ProjectScan",
    "SKIP_DIRS",
    "TreeIndex",
    "looks_like_bundle_dir",
    "missing_input_findings",
    "scan_source",
    "skipped",
    "source_digest",
    "walk",
]

DEFAULT_CACHE_DIR = Path(".analysis-cache")

# Directories no tier walks into, besides every dot-directory (VCS
# metadata and tool caches: .git, .analysis-cache, .pytest_cache, ...).
SKIP_DIRS = frozenset({"__pycache__", "results", "output"})


# ----------------------------------------------------------------------
# The walker
# ----------------------------------------------------------------------
def skipped(name: str) -> bool:
    """Whether a walk skips the directory entry called ``name``."""
    return name in SKIP_DIRS or name.startswith(".")


def looks_like_bundle_dir(path: Path) -> bool:
    """Whether ``path`` is a policy-bundle directory (has a manifest)."""
    return path.is_dir() and (path / BUNDLE_MANIFEST).is_file()


@dataclass
class Inputs:
    """What one walk over the inputs found, partitioned by kind."""

    python: list[Path] = field(default_factory=list)
    json: list[Path] = field(default_factory=list)  # bundle manifests excluded
    bundles: list[Path] = field(default_factory=list)
    explicit: set[Path] = field(default_factory=set)  # files named as inputs
    missing: list[Path] = field(default_factory=list)


def walk(paths: Iterable[str | Path]) -> Inputs:
    """Walk files and directories in sorted order, each entry once.

    A policy-bundle directory is one input: the walk records it and
    does not descend into it.
    """
    inputs = Inputs()
    seen: set[Path] = set()

    def visit(path: Path) -> None:
        if path in seen:
            return
        seen.add(path)
        if looks_like_bundle_dir(path):
            inputs.bundles.append(path)
        elif path.is_dir():
            for child in sorted(path.iterdir()):
                if not skipped(child.name):
                    visit(child)
        elif path.suffix == ".py":
            inputs.python.append(path)
        elif path.suffix == ".json" and path.name != BUNDLE_MANIFEST:
            inputs.json.append(path)

    for path in map(Path, paths):
        if not path.exists():
            inputs.missing.append(path)
        elif path.is_file() and path.name == BUNDLE_MANIFEST:
            visit(path.parent)
        else:
            if path.is_file():
                inputs.explicit.add(path)
            visit(path)
    return inputs


def missing_input_findings(inputs: Inputs) -> list[Finding]:
    """A gate that silently passes on a typo'd path is no gate."""
    return [
        Finding(
            path=str(path),
            line=0,
            rule="REPRO-C001",
            severity=Severity.ERROR,
            message="input path does not exist",
        )
        for path in inputs.missing
    ]


# ----------------------------------------------------------------------
# One traversal
# ----------------------------------------------------------------------
# Walk order is part of the index's contract: flow's import aliases and
# the ctypes checker's alias bindings are last-binding-wins, and the
# architecture checker's import edges are reported in order.  Because
# ``ast.walk`` is breadth-first, the nodes of any subtree appear in the
# index in the order ``ast.walk`` gives for that subtree alone, so a pass
# that walked one function or one expression reads the index instead.
class TreeIndex:
    """Every node of one tree in ``ast.walk`` order, with its parent.

    ``imports`` (``Import``/``ImportFrom``), ``assignments``
    (``Assign``/``AnnAssign``) and ``calls`` (``Call``) hold those nodes
    in walk order.  A node that appears under several parents
    (``ast.parse`` shares its ``Load``/``Store``/``Del`` context and
    operator instances) keeps the last parent the walk meets, as a pass
    over ``ast.walk`` and ``ast.iter_child_nodes`` would record it.
    Nodes are keyed by identity, so the index is valid only while its
    tree is alive.
    """

    __slots__ = ("nodes", "imports", "assignments", "calls", "_parent_of")

    def __init__(self, tree: ast.AST) -> None:
        AST = ast.AST
        self.imports: list[ast.Import | ast.ImportFrom] = []
        self.assignments: list[ast.Assign | ast.AnnAssign] = []
        self.calls: list[ast.Call] = []
        # Keyed by exact class, which is what ``ast.parse`` builds.
        buckets: dict[type, list] = {
            ast.Import: self.imports,
            ast.ImportFrom: self.imports,
            ast.Assign: self.assignments,
            ast.AnnAssign: self.assignments,
            ast.Call: self.calls,
        }
        # ``parents[i]`` is the parent of ``nodes[i]``.  Iterating a
        # list that grows behind the cursor is a FIFO queue: the same
        # order as ``ast.walk``'s deque.
        nodes: list[ast.AST] = [tree]
        parents: list[ast.AST | None] = [None]
        push, link = nodes.append, parents.append
        for node in nodes:
            bucket = buckets.get(node.__class__)
            if bucket is not None:
                bucket.append(node)
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, AST):
                    push(value)
                    link(node)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, AST):
                            push(item)
                            link(node)
        self.nodes = nodes
        # Later entries win, as they would in the walk.
        self._parent_of = dict(zip(map(id, nodes), parents))

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The node ``node`` hangs under; ``None`` for the root."""
        return self._parent_of.get(id(node))


# ----------------------------------------------------------------------
# One module, one parse, one traversal
# ----------------------------------------------------------------------
@dataclass
class ModuleRecord:
    """Everything every tier needs from one module, as plain data.

    Findings are stored raw; each tier applies :meth:`kept` (the
    module's ``# repro: noqa[...]`` map) to the findings it reports.
    """

    module: str
    path: str
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    suppression_findings: tuple[Finding, ...] = ()  # REPRO-N001
    parse_error: Finding | None = None  # REPRO-L000
    lint: tuple[Finding, ...] = ()
    imports: tuple[tuple[int, str], ...] = ()  # (line, "repro.x.y")
    flow: ModuleAnalysis | None = None
    shapes: tuple[Finding, ...] = ()
    contracted: bool = False  # declares at least one shape contract

    def kept(self, findings: Iterable[Finding]) -> list[Finding]:
        """``findings`` minus those this module suppresses inline."""
        return filter_findings(list(findings), self.suppressions)

    @property
    def parse_errors(self) -> list[Finding]:
        return [self.parse_error] if self.parse_error is not None else []

    @property
    def lint_findings(self) -> list[Finding]:
        """The lint tier's findings: a module that does not parse
        reports only its syntax error."""
        return self.parse_errors or [
            *self.kept(self.lint),
            *self.suppression_findings,
        ]


def _repro_imports(index: TreeIndex) -> tuple[tuple[int, str], ...]:
    """(line, module) for every absolute ``repro.*`` import."""
    edges: list[tuple[int, str]] = []
    for node in index.imports:
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("repro."):
                edges.append((node.lineno, node.module))
        else:
            edges.extend(
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name.startswith("repro.")
            )
    return tuple(edges)


def scan_source(source: str, path: str, module: str) -> ModuleRecord:
    """Run every intra-module pass over one parse and one traversal of
    ``source``."""
    comments = comment_tokens(source)
    suppressions, suppression_findings = collect_suppressions(comments, path)
    record = ModuleRecord(
        module=module,
        path=path,
        suppressions=suppressions,
        suppression_findings=tuple(suppression_findings),
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        record.parse_error = Finding(
            path=path,
            line=exc.lineno or 0,
            rule="REPRO-L000",
            severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
        )
        record.flow = ModuleAnalysis(module=module, path=path)
        return record
    index = TreeIndex(tree)
    contracts = collect_contracts(tree, comments, path)
    record.lint = tuple(lint_tree(tree, index, path))
    record.imports = _repro_imports(index)
    record.flow = extract_module(tree, index, path, module)
    record.shapes = tuple(
        sorted(
            [
                *contracts.findings,
                *interpret_module(tree, contracts, path),
                *check_ctypes_bindings(index, path),
            ]
        )
    )
    record.contracted = not contracts.empty
    return record


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
def source_digest(content: str | bytes, *, salt: str = "") -> str:
    data = content.encode("utf-8") if isinstance(content, str) else content
    return hashlib.sha256(salt.encode("utf-8") + b"\x00" + data).hexdigest()


@functools.cache
def _analyzer_digest() -> str:
    """Digest of this package's own sources: editing any pass or rule
    invalidates every cached record, with no schema to bump by hand."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ModuleCache:
    """Pickle-per-entry cache with sha256 sidecar integrity checks.

    Mirrors the sidecar pattern of ``repro.exec.ResultCache`` (the exec
    layer sits above analysis, so the pattern is re-implemented rather
    than imported).  An entry is keyed by ``sha256(salt + name +
    content)``: editing a module misses, an unchanged one hits
    regardless of mtime.  The salt holds ``schema``, the package and
    Python versions and :func:`_analyzer_digest`, so tiers caching
    different record types under one directory never collide.  A
    sidecar mismatch (torn write, tampering), an unpicklable payload
    or a payload of the wrong type evicts the entry.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        *,
        schema: str = "module",
        expected_type: type = ModuleRecord,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self.expected_type = expected_type
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def salt(self) -> str:
        version = "{}.{}".format(*sys.version_info[:2])
        return f"{self.schema}/{__version__}/{version}/{_analyzer_digest()}"

    def key_for(self, name: str, content: str | bytes) -> str:
        data = content.encode("utf-8") if isinstance(content, str) else content
        return source_digest(
            name.encode("utf-8") + b"\x00" + data, salt=self.salt
        )

    def _entry_path(self, key: str) -> Path:
        # Two-level fanout keeps directory listings small.
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, name: str, content: str | bytes):
        """The record stored for ``(name, content)``, or ``None``."""
        entry = self._entry_path(self.key_for(name, content))
        sidecar = entry.with_suffix(".pkl.sha256")
        try:
            payload = entry.read_bytes()
            expected = sidecar.read_text(encoding="utf-8").strip()
        except OSError:
            self.misses += 1
            return None
        record = None
        if hashlib.sha256(payload).hexdigest() == expected:
            try:
                record = pickle.loads(payload)
            except Exception:
                record = None
        if not isinstance(record, self.expected_type):
            self._evict(entry, sidecar)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, name: str, content: str | bytes, record) -> None:
        entry = self._entry_path(self.key_for(name, content))
        entry.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        # Write-then-rename so a crashed run cannot leave a torn entry
        # that passes the sidecar check.
        self._atomic_write(entry, payload)
        self._atomic_write(
            entry.with_suffix(".pkl.sha256"), (digest + "\n").encode("ascii")
        )

    @staticmethod
    def _atomic_write(target: Path, data: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, target)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _evict(self, entry: Path, sidecar: Path) -> None:
        self.evictions += 1
        for stale in (entry, sidecar):
            try:
                stale.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class ProjectScan:
    """The module records of one run, each built at most once.

    Tiers sharing a scan share its records: the first tier to ask for a
    module reads (and, on a cache miss, parses) it; later tiers get the
    same record.  ``parsed`` holds the paths parsed in this run.
    """

    def __init__(self, cache: ModuleCache | None = None) -> None:
        self.cache = cache
        self.records: dict[str, ModuleRecord] = {}
        self.parsed: set[str] = set()

    def modules(self, files: Iterable[Path]) -> list[ModuleRecord]:
        """Records for ``files``; unreadable files are skipped."""
        records: list[ModuleRecord] = []
        for file in files:
            path = str(file).replace("\\", "/")
            record = self.records.get(path)
            if record is None:
                record = self._build(file, path)
                if record is None:
                    continue
                self.records[path] = record
            records.append(record)
        return records

    def _build(self, file: Path, path: str) -> ModuleRecord | None:
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None
        module = module_name_for_path(file)
        name = f"{module}\x00{path}"
        if self.cache is not None:
            record = self.cache.load(name, source)
            if record is not None:
                return record
        record = scan_source(source, path, module)
        self.parsed.add(path)
        if self.cache is not None:
            self.cache.store(name, source, record)
        return record
