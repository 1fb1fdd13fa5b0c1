"""REPRO-S004 alias bindings are last-binding-wins.

The ctypes checker reads a module's assignments in three passes (C
sources, ``<alias> = lib.<symbol>`` bindings, ``argtypes``/``restype``
writes).  An alias copied before it is rebound keeps the old symbol;
the rebound alias checks against the new one.
"""

from tests.analysis.shapes.conftest import scan_source, triples

SOURCE = '''\
import ctypes

KERNEL_SOURCE = """
typedef long long i64;

void scale(i64 n, double *x) {
    for (i64 i = 0; i < n; i++) x[i] *= 2.0;
}

double first(const double *x) {
    return x[0];
}
"""


def bind(lib):
    f = lib.scale
    g = f
    f = lib.first
    f.argtypes = [ctypes.c_longlong, ctypes.c_void_p]
    g.argtypes = [ctypes.c_void_p]
    return f, g
'''


def test_rebound_alias_checks_its_last_binding():
    assert triples(scan_source(SOURCE)) == [
        (
            19,
            "REPRO-S004",
            "binding of first() sets argtypes but not restype; "
            "the C function returns double",
        ),
        (
            20,
            "REPRO-S004",
            "ctypes binding of first() has 2 argtypes but the C signature "
            "has 1 parameters",
        ),
        (
            21,
            "REPRO-S004",
            "ctypes binding of scale() has 1 argtypes but the C signature "
            "has 2 parameters",
        ),
    ]
