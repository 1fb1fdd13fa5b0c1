"""Unit tests for the ``# repro: shape[...]`` contract grammar/collector."""

import ast
import textwrap

import pytest

from repro.analysis.shapes.contracts import (
    ContractError,
    collect_contracts,
    parse_spec,
)
from repro.analysis.shapes.lattice import DTYPE_F64, DTYPE_I8, Dim
from repro.analysis.suppress import comment_tokens


def collect(source: str, path: str = "mod.py"):
    source = textwrap.dedent(source)
    return collect_contracts(ast.parse(source), comment_tokens(source), path)


class TestParseSpec:
    def test_array_with_dtype(self):
        spec = parse_spec("(N, C+1) i1")
        assert spec.kind == "array"
        assert spec.dtype == DTYPE_I8
        assert spec.shape == (Dim.sym("N"), Dim.sym("C") + Dim.const(1))

    def test_default_dtype_is_float64(self):
        assert parse_spec("(N,)").dtype == DTYPE_F64

    def test_rng_budget_tag(self):
        spec = parse_spec("(N, _) f8 !rng[q + 2*(C+1)]")
        q, C = Dim.sym("q"), Dim.sym("C")
        assert spec.rng_budget == q + Dim.const(2) * (C + Dim.const(1))
        # `_` is a fresh opaque placeholder, distinct per parse.
        assert spec.shape[1].is_opaque

    def test_optional_none(self):
        spec = parse_spec("(n_opp,) f8 | none")
        assert spec.optional

    def test_int_with_dim(self):
        spec = parse_spec("int[q + 2]")
        assert spec.kind == "int"
        assert spec.dim == Dim.sym("q") + Dim.const(2)

    def test_plain_scalars(self):
        assert parse_spec("int").kind == "int"
        assert parse_spec("float").kind == "float"
        assert parse_spec("bool").kind == "bool"
        assert parse_spec("none").kind == "none"

    def test_obj(self):
        spec = parse_spec("obj[FleetCluster]")
        assert spec.kind == "obj"
        assert spec.class_name == "FleetCluster"

    def test_unknown(self):
        assert parse_spec("?").kind == "unknown"

    def test_malformed_raises(self):
        with pytest.raises(ContractError):
            parse_spec("(N,,) f8")
        with pytest.raises(ContractError):
            parse_spec("(N,) f16")


class TestCollector:
    def test_function_params_and_return(self):
        contracts = collect(
            """\
            def step(requests, mask):
                # repro: shape[requests: (N,) f8; mask: (N,) b1; -> (N,) f8]
                return requests
            """
        )
        fc = contracts.functions["step"]
        assert set(fc.params) == {"requests", "mask"}
        assert fc.returns is not None and fc.returns.kind == "array"
        assert not contracts.findings

    def test_multiple_comment_lines_merge(self):
        contracts = collect(
            """\
            def f(a, b):
                # repro: shape[a: (N, p) f8]
                # repro: shape[b: (N, m) f8; -> (N,) f8]
                return a[:, 0]
            """
        )
        fc = contracts.functions["f"]
        assert set(fc.params) == {"a", "b"}
        assert fc.returns is not None

    def test_contract_on_def_line_window(self):
        contracts = collect(
            """\
            def g(
                n_devices,
            ) -> None:  # repro: shape[n_devices: int[N]]
                pass
            """
        )
        assert "n_devices" in contracts.functions["g"].params

    def test_assignment_spec(self):
        contracts = collect(
            """\
            import numpy as np
            table = np.zeros(7)  # repro: shape[(n_opp,) f8]
            """
        )
        assert 2 in contracts.assign_specs
        assert contracts.assign_specs[2].kind == "array"

    def test_class_attribute_specs(self):
        contracts = collect(
            """\
            import numpy as np

            class Servo:
                def __init__(self, n):
                    # repro: shape[n: int[N]]
                    self.X = np.zeros((n, 4))  # repro: shape[(N, n2) f8]
            """
        )
        assert "X" in contracts.class_attrs["Servo"]

    def test_dataclass_field_spec(self):
        contracts = collect(
            """\
            from dataclasses import dataclass
            import numpy as np

            @dataclass
            class Telemetry:
                power_w: np.ndarray  # repro: shape[(N,) f8]
            """
        )
        assert "power_w" in contracts.class_attrs["Telemetry"]

    def test_type_ignore_tail_still_matches(self):
        # `# type: ignore[...]  # repro: shape[...]` is ONE comment
        # token; the contract pattern must match mid-token.
        contracts = collect(
            """\
            from dataclasses import dataclass, field
            import numpy as np

            @dataclass
            class Point:
                u_scale: np.ndarray = field(default=None)  # type: ignore[assignment]  # repro: shape[(m,) f8 | none]
            """
        )
        spec = contracts.class_attrs["Point"]["u_scale"]
        assert spec.optional

    def test_unknown_param_is_s000(self):
        contracts = collect(
            """\
            def f(x):
                # repro: shape[y: (N,) f8]
                return x
            """
        )
        assert [(f.line, f.rule) for f in contracts.findings] == [
            (2, "REPRO-S000")
        ]
        assert "unknown parameter 'y'" in contracts.findings[0].message

    def test_bare_spec_on_function_is_s000(self):
        contracts = collect(
            """\
            def f(x):
                # repro: shape[(N,) f8]
                return x
            """
        )
        assert contracts.findings[0].rule == "REPRO-S000"
        assert "`name:` or `->`" in contracts.findings[0].message

    def test_dangling_contract_is_s000(self):
        contracts = collect(
            """\
            import numpy as np
            # repro: shape[(N,) f8]
            x = 1
            """
        )
        assert contracts.findings[0].rule == "REPRO-S000"
        assert "attaches to no def/assignment" in contracts.findings[0].message

    def test_malformed_grammar_is_s000(self):
        contracts = collect(
            """\
            def f(x):
                # repro: shape[x: (N,,) f8]
                return x
            """
        )
        assert contracts.findings[0].rule == "REPRO-S000"
