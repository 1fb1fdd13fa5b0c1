"""Call-graph resolution tests: imports, methods, fallback, closure."""

from pathlib import Path

from repro.analysis.project import scan_source
from repro.analysis.flow.analyze import analyze_project
from repro.analysis.flow.callgraph import CallGraph, ProjectIndex


def build(sources: dict[str, str]) -> CallGraph:
    """sources: module name -> source; paths synthesized from names."""
    modules = {}
    for module, source in sources.items():
        path = "src/" + module.replace(".", "/") + ".py"
        modules[module] = scan_source(source, path, module).flow
    return CallGraph.build(ProjectIndex(modules))


class TestGlobalResolution:
    def test_aliased_module_import(self):
        graph = build(
            {
                "proj.helper": "def accumulate(x):\n    return x\n",
                "proj.main": (
                    "import proj.helper as h\n"
                    "def f(x):\n"
                    "    return h.accumulate(x)\n"
                ),
            }
        )
        assert graph.edges["proj.main.f"] == {"proj.helper.accumulate"}

    def test_from_import_as(self):
        graph = build(
            {
                "proj.helper": "def accumulate(x):\n    return x\n",
                "proj.main": (
                    "from proj.helper import accumulate as acc\n"
                    "def f(x):\n"
                    "    return acc(x)\n"
                ),
            }
        )
        assert graph.edges["proj.main.f"] == {"proj.helper.accumulate"}

    def test_constructor_edges_to_init(self):
        graph = build(
            {
                "proj.engine": (
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self.n = 0\n"
                ),
                "proj.main": (
                    "from proj.engine import Engine\n"
                    "def f():\n"
                    "    return Engine()\n"
                ),
            }
        )
        assert graph.edges["proj.main.f"] == {"proj.engine.Engine.__init__"}


class TestMethodResolution:
    def test_self_method_resolves_through_mro(self):
        graph = build(
            {
                "proj.base": (
                    "class Base:\n"
                    "    def helper(self):\n"
                    "        return 1\n"
                ),
                "proj.sub": (
                    "from proj.base import Base\n"
                    "class Sub(Base):\n"
                    "    def run(self):\n"
                    "        return self.helper()\n"
                ),
            }
        )
        assert graph.edges["proj.sub.Sub.run"] == {"proj.base.Base.helper"}

    def test_virtual_dispatch_includes_subclass_overrides(self):
        graph = build(
            {
                "proj.base": (
                    "class Base:\n"
                    "    def run(self):\n"
                    "        return self.helper()\n"
                    "    def helper(self):\n"
                    "        return 1\n"
                ),
                "proj.sub": (
                    "from proj.base import Base\n"
                    "class Sub(Base):\n"
                    "    def helper(self):\n"
                    "        return 2\n"
                ),
            }
        )
        assert graph.edges["proj.base.Base.run"] == {
            "proj.base.Base.helper",
            "proj.sub.Sub.helper",
        }

    def test_typed_attribute_receiver(self):
        graph = build(
            {
                "proj.engine": (
                    "class Engine:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
                "proj.main": (
                    "from proj.engine import Engine\n"
                    "class Wrapper:\n"
                    "    def __init__(self, engine: Engine):\n"
                    "        self.engine = engine\n"
                    "    def run(self):\n"
                    "        return self.engine.step()\n"
                ),
            }
        )
        assert graph.edges["proj.main.Wrapper.run"] == {
            "proj.engine.Engine.step"
        }

    def test_constructor_dataflow_types_local_receiver(self):
        graph = build(
            {
                "proj.engine": (
                    "class Engine:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
                "proj.main": (
                    "from proj.engine import Engine\n"
                    "def f():\n"
                    "    engine = Engine()\n"
                    "    return engine.step()\n"
                ),
            }
        )
        assert "proj.engine.Engine.step" in graph.edges["proj.main.f"]

    def test_fallback_is_bounded(self):
        many = {
            f"proj.c{i}": (
                f"class C{i}:\n"
                "    def step(self):\n"
                "        return 1\n"
            )
            for i in range(8)
        }
        many["proj.main"] = "def f(x):\n    return x.step()\n"
        graph = build(many)
        # 8 candidates > MAX_FALLBACK_CANDIDATES: recorded unresolved.
        assert "proj.main.f" not in graph.edges
        assert any(
            caller == "proj.main.f" for caller, _site in graph.unresolved
        )

    def test_fallback_within_bound_marks_via_fallback(self):
        graph = build(
            {
                "proj.engine": (
                    "class Engine:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
                "proj.main": "def f(x):\n    return x.step()\n",
            }
        )
        assert graph.edges["proj.main.f"] == {"proj.engine.Engine.step"}
        (resolved,) = [
            r for r in graph.resolved_calls if r.caller == "proj.main.f"
        ]
        assert resolved.via_fallback


class TestClosure:
    def test_closure_and_call_chain(self):
        graph = build(
            {
                "proj.a": (
                    "from proj.b import middle\n"
                    "def entry():\n"
                    "    return middle()\n"
                ),
                "proj.b": (
                    "from proj.c import leaf\n"
                    "def middle():\n"
                    "    return leaf()\n"
                ),
                "proj.c": "def leaf():\n    return 1\n",
                "proj.d": "def unrelated():\n    return 2\n",
            }
        )
        reachable, provenance = graph.closure(["proj.a.entry"])
        assert reachable == {"proj.a.entry", "proj.b.middle", "proj.c.leaf"}
        assert graph.call_chain(provenance, "proj.c.leaf") == [
            "proj.a.entry",
            "proj.b.middle",
            "proj.c.leaf",
        ]

    def test_entry_patterns_glob(self):
        graph = build(
            {
                "proj.m1": (
                    "class A:\n"
                    "    def _control(self):\n"
                    "        return 1\n"
                ),
                "proj.m2": (
                    "class B:\n"
                    "    def _control(self):\n"
                    "        return 2\n"
                ),
            }
        )
        reachable, _ = graph.closure(["proj.*._control"])
        assert reachable == {"proj.m1.A._control", "proj.m2.B._control"}


class TestRepoSelfGraph:
    def test_repo_entry_points_exist_and_reach_step_kernels(self):
        repo = Path(__file__).resolve().parents[3]
        result = analyze_project([repo / "src" / "repro"])
        reachable, _ = result.graph.closure(
            [
                "repro.platform.soc.ExynosSoC.step",
                "repro.platform.manycore.ManyCoreSoC.step",
            ]
        )
        # The interprocedural point: allocation helpers in soc.py are in
        # the closure even when called through manycore's cluster loop.
        assert "repro.platform.soc._idle_adjusted_capacity" in reachable
