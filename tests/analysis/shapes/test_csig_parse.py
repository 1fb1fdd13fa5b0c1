"""``parse_c_functions`` on positional scalar parameters.

The embedded kernels' entry points each take one argument-block
pointer, so the self-scan no longer sees an exported function with
scalar parameters; this snippet keeps that part of the parser covered.
"""

from repro.analysis.shapes.csig import parse_c_functions

SOURCE = """
typedef long long i64;

/* Static helpers are not exported. */
static double mul(double a, double b) { return a * b; }

double f(i64 variant, const double *a, const double *x, i64 k) {
    double s = 0.0;
    i64 t;
    for (t = 0; t < k; ++t) s = s + mul(a[t], x[t]);
    return variant ? s : -s;
}
"""


def test_positional_scalars_and_pointers():
    functions = parse_c_functions(SOURCE)
    assert set(functions) == {"f"}
    params = functions["f"].params
    assert [p.kind for p in params] == ["i64", "pointer", "pointer", "i64"]
    assert [p.name for p in params] == ["variant", "a", "x", "k"]
    assert params[1].decl == "const double *"
    assert functions["f"].returns == "double"
