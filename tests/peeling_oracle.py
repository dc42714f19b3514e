"""Reference oracle for the Rothstein bracket: graded Leibniz peeling.

The bracket is fixed on single factors (a scalar coefficient, one Der
generator, one module basis element) and extended by the graded Leibniz
rule, peeling one factor at a time from the left or from the right
argument.  Both orders must agree with each other and with the closed form
`courantalg.roth_bracket`.
"""

from __future__ import annotations

from courantalg import Derivation, Poly, RothElement
from courantalg.modules import ModuleError, curvature


def _factor_split(key, coeff: Poly, module):
    """Leading factor and remainder of a monomial term, or None if single."""
    sym, ext = key
    if not sym and not ext:
        return None  # pure scalar: a single degree-0 factor
    one = Poly.one(module.backend)
    if not coeff.is_one():
        return ("coef", coeff), RothElement(module, {key: one})
    if sym and (len(sym) + len(ext)) > 1:
        return ("der", sym[0]), RothElement(module, {(sym[1:], ext): one})
    if len(ext) > 1:
        return ("ext", ext[0]), RothElement(module, {((), ext[1:]): one})
    return None


def _single_factor(key, coeff: Poly):
    sym, ext = key
    if sym:
        return ("der", sym[0])
    if ext:
        return ("ext", ext[0])
    return ("coef", coeff)


def _factor_degree(f) -> int:
    return {"coef": 0, "der": 2, "ext": 1}[f[0]]


def _factor_element(module, f) -> RothElement:
    kind, val = f
    if kind == "coef":
        return RothElement.from_scalar(module, val)
    if kind == "der":
        return RothElement.monomial(module, (val,), ())
    return RothElement.monomial(module, (), (val,))


def _base_bracket(module, conn, f1, f2) -> RothElement:
    """Bracket of two single factors from the generator table."""
    k1, v1 = f1
    k2, v2 = f2
    backend = module.backend
    if k1 == "coef" and k2 == "der":
        return RothElement.from_scalar(module, Derivation.basis(backend, v2)(v1))
    if k1 == "der" and k2 == "coef":
        return RothElement.from_scalar(module, -Derivation.basis(backend, v1)(v2))
    if k1 == "coef" or k2 == "coef":
        return RothElement.zero(module)
    if k1 == "ext" and k2 == "ext":
        return RothElement.from_scalar(module, module.gram[v1][v2])
    if k1 == "der" and k2 == "ext":
        return -RothElement.from_module_element(conn.gamma[v1][v2])
    if k1 == "ext" and k2 == "der":
        return RothElement.from_module_element(conn.gamma[v2][v1])
    # der, der: generators commute, so only the curvature term remains
    return -RothElement.from_lambda2(module, curvature(conn).pair(v1, v2))


def _bracket_tt(module, conn, key1, c1, key2, c2, side: str) -> RothElement:
    """Bracket of two monomial terms by Leibniz peeling."""
    deg1 = 2 * len(key1[0]) + len(key1[1])
    deg2 = 2 * len(key2[0]) + len(key2[1])
    split1 = _factor_split(key1, c1, module)
    split2 = _factor_split(key2, c2, module)
    if side == "right" and split2 is not None:
        split1 = None
    if split1 is not None:
        # {u ^ rest, t2} = u ^ {rest, t2} + (-1)^{|rest| |t2|} {u, t2} ^ rest
        u, rest = split1
        du = _factor_degree(u)
        ue = _factor_element(module, u)
        t2 = RothElement(module, {key2: c2})
        out = ue.wedge(peel_bracket(rest, t2, conn, side))
        tail = peel_bracket(ue, t2, conn, side).wedge(rest)
        if ((deg1 - du) * deg2) % 2:
            tail = -tail
        return out + tail
    if split2 is not None:
        # {t1, v ^ rest} = {t1, v} ^ rest + (-1)^{|t1| |v|} v ^ {t1, rest}
        v, rest = split2
        dv = _factor_degree(v)
        ve = _factor_element(module, v)
        t1 = RothElement(module, {key1: c1})
        out = peel_bracket(t1, ve, conn, side).wedge(rest)
        tail = ve.wedge(peel_bracket(t1, rest, conn, side))
        if (deg1 * dv) % 2:
            tail = -tail
        return out + tail
    return _base_bracket(module, conn, _single_factor(key1, c1), _single_factor(key2, c2))


def peel_bracket(a: RothElement, b: RothElement, conn, side: str = "left") -> RothElement:
    """The bracket by Leibniz peeling; side picks which argument is peeled first."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    if a.module != b.module or conn.module != a.module:
        raise ModuleError("module mismatch")
    out = RothElement.zero(a.module)
    for key1, c1 in a.terms.items():
        for key2, c2 in b.terms.items():
            out = out + _bracket_tt(a.module, conn, key1, c1, key2, c2, side)
    return out
