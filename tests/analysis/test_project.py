"""One walker, one parse and one traversal per module, one cache for
every analyzer tier.

Every tier reads Python through :class:`repro.analysis.project.ProjectScan`,
so a cold ``all`` parses each module exactly once, a warm one parses
none, and a one-module edit parses that module once for every tier.
Every intra-module pass reads the module's :class:`TreeIndex` instead
of walking the tree again.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.cli import analyze_paths, main
from repro.analysis.project import SKIP_DIRS, TreeIndex, walk
from repro.analysis.flow import analyze_project as flow_analyze
from repro.analysis.models.scan import scan_paths
from repro.analysis.shapes import analyze_project as shapes_analyze

from tests.analysis.shapes.conftest import write_project

MODULES = {
    "src/pkg/__init__.py": "",
    "src/pkg/a.py": "def fa(x):\n    return x\n",
    "src/pkg/b.py": (
        "def fb(a):\n"
        "    # repro: shape[a: (N, p) f8; -> (N, p) f8]\n"
        "    return a * 2.0\n"
    ),
    "src/pkg/c.py": "import numpy as np\n\n\ndef fc():\n    return np.zeros(3)\n",
}


@pytest.fixture
def parses(monkeypatch):
    """Filenames of every whole-module ``ast.parse`` call."""
    calls: list[str] = []
    real = ast.parse

    def counting(source, filename="<unknown>", mode="exec", **kwargs):
        if mode == "exec":
            calls.append(str(filename))
        return real(source, filename, mode, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    return calls


@pytest.fixture
def walks(monkeypatch):
    """One entry per ``ast.walk`` call over a whole module."""
    calls: list[ast.Module] = []
    real = ast.walk

    def counting(node):
        if isinstance(node, ast.Module):
            calls.append(node)
        return real(node)

    monkeypatch.setattr(ast, "walk", counting)
    return calls


def _gate(capsys) -> dict:
    """One ``all`` run; returns the flow/shapes stats and the output."""
    code = main(["all", "--report-dir", "reports"])
    out = capsys.readouterr().out
    stats = {
        tier: json.loads(open(f"reports/{tier}-report.json").read())["stats"]
        for tier in ("flow", "shapes")
    }
    return {"code": code, "out": out, **stats}


class TestOneParsePerModule:
    def test_cold_warm_and_one_edit(
        self, tmp_path, monkeypatch, capsys, parses, walks
    ):
        write_project(tmp_path, MODULES)
        monkeypatch.chdir(tmp_path)
        paths = sorted(MODULES)

        cold = _gate(capsys)
        assert cold["code"] == 0
        assert Counter(parses) == Counter(paths)
        # One traversal per module, and it is the index's own: no pass
        # walks a whole module again.
        assert walks == []
        assert cold["flow"]["reanalyzed"] == cold["shapes"]["rescanned"] == 4

        parses.clear()
        warm = _gate(capsys)
        assert parses == []
        assert (warm["flow"]["reanalyzed"], warm["shapes"]["rescanned"]) == (0, 0)
        assert warm["out"] == cold["out"]

        # A lint error, seen by the classic tier from the same one parse
        # that feeds flow and shapes.
        (tmp_path / "src/pkg/a.py").write_text("def fa(x=[]):\n    return x\n")
        parses.clear()
        edited = _gate(capsys)
        assert parses == ["src/pkg/a.py"]
        assert (edited["flow"]["reanalyzed"], edited["shapes"]["rescanned"]) == (1, 1)
        assert "[repro-analysis] src/pkg/a.py:1: error: REPRO-L001" in edited["out"]
        assert edited["code"] == 1

    def test_corrupted_entry_is_evicted_and_reparsed(
        self, tmp_path, monkeypatch, capsys, parses
    ):
        write_project(tmp_path, MODULES)
        monkeypatch.chdir(tmp_path)
        cold = _gate(capsys)
        sidecars = sorted((tmp_path / ".analysis-cache").rglob("*.sha256"))
        assert len(sidecars) == len(MODULES)
        sidecars[0].write_text("0" * 64 + "\n")

        parses.clear()
        warm = _gate(capsys)
        assert len(parses) == 1
        assert (warm["flow"]["reanalyzed"], warm["shapes"]["rescanned"]) == (1, 1)
        assert warm["out"] == cold["out"]
        assert len(list((tmp_path / ".analysis-cache").rglob("*.sha256"))) == len(
            MODULES
        )


_REPO = Path(__file__).resolve().parents[2]
_INDEXED = sorted(
    {
        *(_REPO / "src" / "repro").rglob("*.py"),
        *(_REPO / "tests" / "analysis").glob("**/fixtures/**/*.py"),
    }
)


class TestTreeIndexOrder:
    """The index is ``ast.walk`` in one pass: same nodes, same order,
    same parent links (last parent wins for the shared context and
    operator nodes)."""

    @pytest.mark.parametrize(
        "path", _INDEXED, ids=lambda path: path.relative_to(_REPO).as_posix()
    )
    def test_index_matches_ast_walk(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        index = TreeIndex(tree)
        walked = list(ast.walk(tree))
        assert index.nodes == walked
        for attribute, kind in (
            ("imports", (ast.Import, ast.ImportFrom)),
            ("assignments", (ast.Assign, ast.AnnAssign)),
            ("calls", ast.Call),
        ):
            assert getattr(index, attribute) == [
                node for node in walked if isinstance(node, kind)
            ], attribute
        parents: dict[int, ast.AST] = {}
        for parent in walked:
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        for node in walked:
            assert index.parent(node) is parents.get(id(node))


class TestOneWalker:
    @pytest.mark.parametrize("skipped", [*sorted(SKIP_DIRS), ".hidden"])
    def test_skipped_directory_is_seen_by_no_tier(self, tmp_path, skipped):
        bad = (
            "import numpy as np\n\n\n"
            "def f(x=[]):  # repro: shape[(N,) f8]\n"
            "    return np.random.default_rng()\n"
        )
        root = write_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/ok.py": "def ok(x):\n    return x\n",
                f"pkg/{skipped}/x.py": bad,
                f"pkg/{skipped}/plant.json": '{"name": "broken"}',
            },
        )
        pkg = root / "pkg"
        assert [p.name for p in walk([pkg]).python] == ["__init__.py", "ok.py"]

        classic = analyze_paths([pkg])
        flow = flow_analyze([pkg])
        shapes = shapes_analyze([pkg])
        models = scan_paths([pkg])
        assert classic.files_checked == flow.stats.modules_total == 2
        assert shapes.stats.modules_total == 2
        assert models.stats.units_scanned == 0
        for report in (classic, flow.report, shapes.report, models.report):
            assert list(report) == []
