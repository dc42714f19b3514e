"""The per-layer tracer of the benchmark wraps library names; they must resolve.

`perfbench/tracing.py` imports only the standard library, so it is loaded by
path.  Each `TARGETS` entry names a module-level function or a `Class.method`
found in the class `__dict__`, and the tracer reads the bracket cache with
`len` and `in`.
"""

import importlib
import importlib.util
from pathlib import Path

from courantalg import Backend, Cochain, MetricModule, ModuleElement, Poly, cbracket, cmaps

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_library():
    targets = _tracing().TARGETS
    assert targets
    for prefix, _, modname, attrs in targets:
        home = importlib.import_module("courantalg." + modname)
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(home, cls_name)), (prefix, attr)
            else:
                assert callable(getattr(home, attr, None)), (prefix, attr)


def test_bracket_cache_supports_len_and_membership():
    B0 = Backend.free(0)
    M = MetricModule(B0, [[Poly.const(B0, int(i == j)) for j in range(3)] for i in range(3)])
    table = {(0, 1): M.basis(2), (1, 0): M.basis(2).scale(Poly.const(B0, -1))}
    a = Cochain.from_tables(M, 3, table)
    b = Cochain.from_module_element(ModuleElement(M, [Poly.const(B0, k) for k in (1, 2, 3)]))
    cbracket(b, a)
    assert len(cmaps._BRACKET_CACHE) >= 1
    assert (b, a) in cmaps._BRACKET_CACHE
