"""Reference oracle for the complex-membership check: the full swap-identity loop.

`cmap_verify` evaluates both sides of every swap identity through the
general-argument path (`Cochain.omega` twice and `Cochain.eval_level` once per
probe tuple and position), in the order of `itertools.product(probes, repeat=r)`,
and reports the first violation.  `courantalg.cmaps.cmap_verify` reads the same
values from a table of level 0 on probe tuples and must return exactly this
(ok, report).
"""

from __future__ import annotations

import itertools

from courantalg.cmaps import Cochain, default_verify_depth, probe_elements
from courantalg.modules import inner
from courantalg.poly import Poly


def cmap_verify(c: Cochain, depth: int | None = None) -> tuple[bool, dict]:
    """Check the two defining identities on all bounded-degree probe tuples.

    For every probe tuple (y_1..y_r) and adjacent position i, the swap
    identity must hold; the i = r-1 instance is the derivation identity of
    the symbol against the inner product.  Returns (ok, report).
    """
    if depth is None:
        depth = default_verify_depth(c)
    report = {"bound": depth, "violation": None}
    r = c.degree
    if r < 2:
        return True, report
    module = c.module
    probes = probe_elements(module, depth)
    for args in itertools.product(probes, repeat=r):
        for i in range(r - 1):
            lhs = c.omega(args) + c.omega(args[:i] + (args[i + 1], args[i]) + args[i + 2:])
            rest = args[:i] + args[i + 2:]
            ip = inner(args[i], args[i + 1])
            rhs = c.eval_level(1, (ip,), rest) if 2 <= r else Poly.zero(module.backend)
            if lhs != rhs:
                report["violation"] = (
                    "swap identity fails at position %d on %s" % (i + 1, [repr(x) for x in args])
                )
                return False, report
    return True, report
