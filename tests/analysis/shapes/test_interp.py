"""Abstract-interpreter behavior tests beyond the golden fixtures:
polymorphic call-site unification, integer contracts, and the value
kinds (None / scalar / concatenate / broadcast_to) the fleet and batch
kernels lean on."""

from tests.analysis.shapes.conftest import scan_source, triples


class TestPolymorphicCalls:
    def test_pure_symbols_bind_per_call_site(self):
        # `matrix: (r, k)` accepts any 2-D operand; `r`/`k` bind on
        # first use and must stay consistent within the signature.
        findings = scan_source(
            """\
            import numpy as np


            def matvec(matrix, x):
                # repro: shape[matrix: (r, k) f8; x: (N, k) f8; -> (N, r) f8]
                return x @ matrix.T


            def caller(big, z, out):
                # repro: shape[big: (p+n, m) f8; z: (N, m) f8; out: (N, p+n) f8]
                out[:, :] = matvec(big, z)
            """
        )
        assert findings == []

    def test_bound_symbol_mismatch_in_later_param(self):
        findings = scan_source(
            """\
            import numpy as np


            def matvec(matrix, x):
                # repro: shape[matrix: (r, k) f8; x: (N, k) f8; -> (N, r) f8]
                return x @ matrix.T


            def caller(big, z):
                # repro: shape[big: (p, m) f8; z: (N, n) f8; -> (N, p) f8]
                return matvec(big, z)
            """
        )
        assert triples(findings) == [
            (
                11,
                "REPRO-S001",
                "assigned value shape (N, n) does not match parameter 'x' "
                "of matvec() shape (N, m)",
            )
        ]

    def test_return_shape_uses_caller_binding(self):
        # The *return* contract is instantiated with the caller's
        # binding, so a wrong store target downstream is still caught.
        findings = scan_source(
            """\
            import numpy as np


            def matvec(matrix, x):
                # repro: shape[matrix: (r, k) f8; x: (N, k) f8; -> (N, r) f8]
                return x @ matrix.T


            def caller(big, z, out):
                # repro: shape[big: (p+n, m) f8; z: (N, m) f8; out: (N, m) f8]
                out[:, :] = matvec(big, z)
            """
        )
        assert triples(findings) == [
            (
                11,
                "REPRO-S001",
                "assigned value shape (N, n+p) does not match slice target "
                "shape (N, m)",
            )
        ]

    def test_unbound_return_symbol_is_unknown_at_the_call_site(self):
        # `gains.C` has no tracked shape, so `r` binds to nothing: the
        # return's `r` is an unknown size, not the caller's `r` or `p`.
        findings = scan_source(
            """\
            import numpy as np


            def matvec_rows(matrix, X):
                # repro: shape[matrix: (r, k) f8; X: (R, k) f8; -> (R, r) f8]
                return X @ matrix.T


            def caller(gains, X, DU, out):
                # repro: shape[X: (R, n) f8; DU: (R, m) f8; out: (R, p) f8]
                y = matvec_rows(gains.C, X) + matvec_rows(gains.D, DU)
                out[:, :] = y
            """
        )
        assert findings == []


class TestIntegerContracts:
    def test_lone_int_symbol_binds_polymorphically(self):
        # A pure-symbol `int[N]` contract binds per call site, so the
        # callee's arrays come back in the *caller's* dimension — and a
        # wrong downstream declaration is caught at the return contract.
        findings = scan_source(
            """\
            import numpy as np


            def alloc(n_devices):
                # repro: shape[n_devices: int[N]; -> (N, 4) f8]
                return np.zeros((n_devices, 4))


            def caller(n_cores):
                # repro: shape[n_cores: int[C]; -> (N, 4) f8]
                return alloc(n_cores)
            """
        )
        assert triples(findings) == [
            (
                11,
                "REPRO-S001",
                "assigned value shape (C, 4) does not match return value "
                "of caller() shape (N, 4)",
            )
        ]

    def test_int_dim_mismatch_against_bound_symbol(self):
        # Once `k` is bound by the first argument, `int[k + 1]` is a
        # concrete expectation the second argument must meet.
        findings = scan_source(
            """\
            import numpy as np


            def windowed(n_lanes, n_edge):
                # repro: shape[n_lanes: int[k]; n_edge: int[k + 1]; -> (k,) f8]
                return np.zeros(n_lanes)


            def caller(n):
                # repro: shape[n: int[C]; -> (C,) f8]
                return windowed(n, n)
            """
        )
        assert triples(findings) == [
            (
                11,
                "REPRO-S001",
                "integer contract mismatch: parameter 'n_edge' of "
                "windowed() declared 1+C but receives C",
            )
        ]

    def test_int_arithmetic_flows_into_shapes(self):
        findings = scan_source(
            """\
            import numpy as np


            def alloc(n_cores):
                # repro: shape[n_cores: int[C]; -> (1+C,) f8]
                return np.zeros(n_cores + 1)
            """
        )
        assert findings == []


class TestValueKinds:
    def test_none_assigned_to_required_array(self):
        findings = scan_source(
            """\
            import numpy as np


            class Box:
                def __init__(self, n):
                    # repro: shape[n: int[N]]
                    self.buf = np.zeros(n)  # repro: shape[(N,) f8]

                def clear(self):
                    self.buf = None
            """
        )
        assert triples(findings) == [
            (
                10,
                "REPRO-S001",
                "None assigned to attribute Box.buf with array contract "
                "(N,)",
            )
        ]

    def test_optional_contract_accepts_none(self):
        findings = scan_source(
            """\
            import numpy as np


            class Box:
                def __init__(self, n):
                    # repro: shape[n: int[N]]
                    self.buf = np.zeros(n)  # repro: shape[(N,) f8 | none]

                def clear(self):
                    self.buf = None
            """
        )
        assert findings == []

    def test_scalar_assigned_to_array_contract(self):
        findings = scan_source(
            """\
            import numpy as np


            class Box:
                def __init__(self, n):
                    # repro: shape[n: int[N]]
                    self.buf = np.zeros(n)  # repro: shape[(N,) f8]

                def reset(self):
                    self.buf = 0.0
            """
        )
        assert triples(findings) == [
            (
                10,
                "REPRO-S001",
                "scalar value assigned to attribute Box.buf with array "
                "contract (N,)",
            )
        ]

    def test_concatenate_non_axis_mismatch(self):
        findings = scan_source(
            """\
            import numpy as np


            def f(a, b):
                # repro: shape[a: (N, p) f8; b: (C, m) f8; -> ?]
                return np.concatenate([a, b], axis=1)
            """
        )
        assert triples(findings) == [
            (
                6,
                "REPRO-S001",
                "concatenate mismatch on non-axis dimension: N vs C",
            )
        ]

    def test_broadcast_to_incompatible(self):
        findings = scan_source(
            """\
            import numpy as np


            def f(row):
                # repro: shape[row: (C,) f8; -> ?]
                return np.broadcast_to(row, (4, 5))
            """
        )
        assert triples(findings) == [
            (
                6,
                "REPRO-S001",
                "cannot broadcast (C,) to (4, 5) (dim C vs 5)",
            )
        ]

    def test_where_joins_branches(self):
        findings = scan_source(
            """\
            import numpy as np


            def f(mask, a, b):
                # repro: shape[mask: (N,) b1; a: (N,) f8; b: (N,) f8; -> (N,) f8]
                return np.where(mask, a, b)
            """
        )
        assert findings == []


class TestBufferDiscipline:
    def test_double_buffer_rotation_keeps_contracts(self):
        # The batch.py idiom: rotate spare/live buffers through attrs;
        # refine_with_spec must keep the computed view identity so the
        # rotation neither errors nor loses aliasing.
        findings = scan_source(
            """\
            import numpy as np


            class Servo:
                def __init__(self, n_rows, n_inputs):
                    # repro: shape[n_rows: int[N]]
                    self.DU = np.zeros((n_rows, n_inputs))  # repro: shape[(N, m) f8]
                    self._du_spare = np.zeros_like(self.DU)  # repro: shape[(N, m) f8]

                def rotate(self):
                    out = self._du_spare
                    self._du_spare = self.DU
                    self.DU = out
            """
        )
        assert findings == []

    def test_clamp_chain_through_same_view_is_allowed(self):
        findings = scan_source(
            """\
            import numpy as np


            def clamp(u, lo, hi):
                # repro: shape[u: (N, m) f8; lo: (N, m) f8; hi: (N, m) f8; -> (N, m) f8]
                return np.minimum(np.maximum(u, lo, out=u), hi, out=u)
            """
        )
        assert findings == []
