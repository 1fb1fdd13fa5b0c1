"""Unit tests for per-module fact extraction."""

import textwrap

from repro.analysis.project import scan_source, source_digest
from repro.analysis.flow.symbols import MODULE_SCOPE, module_name_for_path


def extract(source: str, path: str = "src/proj/mod.py", module: str = "proj.mod"):
    return scan_source(textwrap.dedent(source), path, module).flow


class TestImportResolution:
    def test_plain_and_aliased_imports(self):
        analysis = extract(
            """
            import numpy as np
            import json

            def f():
                np.random.default_rng(3)
                json.dumps({})
            """
        )
        names = {c.name for c in analysis.functions["f"].calls}
        assert "numpy.random.default_rng" in names
        assert "json.dumps" in names

    def test_from_import_as(self):
        analysis = extract(
            """
            from proj.helper import accumulate as acc

            def f(x):
                return acc(x)
            """
        )
        names = {c.name for c in analysis.functions["f"].calls}
        assert names == {"proj.helper.accumulate"}

    def test_relative_import_resolves_against_package(self):
        analysis = extract(
            """
            from .helper import accumulate

            def f(x):
                return accumulate(x)
            """
        )
        names = {c.name for c in analysis.functions["f"].calls}
        assert names == {"proj.helper.accumulate"}

    def test_module_scope_names_resolve_locally(self):
        analysis = extract(
            """
            def helper(x):
                return x

            def f(x):
                return helper(x)
            """
        )
        names = {c.name for c in analysis.functions["f"].calls}
        assert names == {"proj.mod.helper"}


class TestCallSiteKinds:
    def test_self_method_and_attr_method(self):
        analysis = extract(
            """
            class C:
                def run(self):
                    self.tick()
                    self.engine.step()

                def tick(self):
                    return 1
            """
        )
        sites = {(c.kind, c.name) for c in analysis.functions["C.run"].calls}
        assert ("self_method", "tick") in sites
        assert ("self_attr_method", "step") in sites

    def test_var_method_records_receiver(self):
        analysis = extract(
            """
            def f(engine):
                return engine.step()
            """
        )
        (site,) = analysis.functions["f"].calls
        assert site.kind == "var_method"
        assert site.extra == "engine"

    def test_module_scope_calls_are_collected(self):
        analysis = extract("CONFIG = dict(a=1)\n")
        assert MODULE_SCOPE in analysis.functions
        names = {c.name for c in analysis.functions[MODULE_SCOPE].calls}
        assert "dict" in names


class TestClassFacts:
    def test_frozen_dataclass_detection(self):
        analysis = extract(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class A:
                x: int

            @dataclass
            class B:
                x: int
            """
        )
        assert analysis.classes["A"].frozen_dataclass
        assert not analysis.classes["B"].frozen_dataclass

    def test_field_annotations_collect_refs(self):
        analysis = extract(
            """
            from proj.other import Payload

            class Job:
                payload: Payload
                items: list[Payload]
            """
        )
        fields = analysis.classes["Job"].fields
        assert fields["payload"] == ("proj.other.Payload",)
        assert fields["items"] == ("proj.other.Payload",)

    def test_unpicklable_members_detected(self):
        analysis = extract(
            """
            import threading

            class Holder:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.fn = lambda x: x
            """
        )
        kinds = {desc for _line, desc in analysis.classes["Holder"].unpicklable}
        assert any("lock" in k for k in kinds)
        assert any("lambda" in k for k in kinds)

    def test_attr_types_from_annotated_param_passthrough(self):
        analysis = extract(
            """
            from proj.engine import Engine

            class Wrapper:
                def __init__(self, engine: Engine):
                    self.engine = engine
            """
        )
        assert (
            analysis.classes["Wrapper"].attr_types["engine"]
            == "proj.engine.Engine"
        )


class TestLocalUnitFindings:
    def test_mismatched_assignment_flagged(self):
        analysis = extract(
            """
            def f(epoch_ms, k):
                budget_w = epoch_ms * k
                return budget_w
            """
        )
        assert [f.rule for f in analysis.local_findings] == ["REPRO-F004"]

    def test_literal_conversion_not_flagged(self):
        analysis = extract(
            """
            def f(epoch_ms):
                epoch_s = epoch_ms / 1000.0
                return epoch_s
            """
        )
        assert analysis.local_findings == ()

    def test_additive_mix_flagged_once(self):
        analysis = extract(
            """
            def f(epoch_ms, dwell_s):
                return epoch_ms + dwell_s
            """
        )
        assert [f.rule for f in analysis.local_findings] == ["REPRO-F004"]


class TestDigestsAndNames:
    def test_source_digest_changes_with_salt_and_content(self):
        assert source_digest("a") != source_digest("b")
        assert source_digest("a") != source_digest("a", salt="s")

    def test_module_name_walks_packages(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub").mkdir()
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        mod = tmp_path / "pkg" / "sub" / "mod.py"
        mod.write_text("")
        assert module_name_for_path(mod) == "pkg.sub.mod"
        assert module_name_for_path(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_syntax_error_becomes_parse_error_finding(self):
        record = scan_source("def broken(:\n", "src/proj/mod.py", "proj.mod")
        assert record.parse_error is not None
        assert record.parse_error.rule == "REPRO-L000"
