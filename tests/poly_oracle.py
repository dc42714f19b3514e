"""Reference oracle for `courantalg.poly.Poly`: the tuple-keyed Fraction form.

`TuplePoly` keeps a polynomial as {exponent tuple: nonzero Fraction} and
does its arithmetic on those dicts, one Fraction operation per term and a
tuple add per monomial product, with eps^2 = 0 applied over the dual
numbers.  `Poly` stores packed int numerators over one denominator instead;
every operation, its `terms` view and its text must agree with this form.
"""

from __future__ import annotations

from fractions import Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def _grlex_key(exp):
    return (sum(exp), tuple(-e for e in exp))


class TuplePoly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions."""

    __slots__ = ("backend", "terms")

    def __init__(self, backend, terms: dict):
        clean = {}
        for exp, c in terms.items():
            if not c:
                continue
            if len(exp) != backend.nvars:
                raise ValueError("exponent arity mismatch")
            if backend.is_dual and exp[0] > 1:
                continue  # eps^2 = 0
            clean[exp] = Fraction(c)
        self.backend = backend
        self.terms = clean

    def _like(self, terms: dict) -> "TuplePoly":
        return TuplePoly(self.backend, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.backend.nvars: QONE}

    def is_constant(self) -> bool:
        unit = (0,) * self.backend.nvars
        return all(e == unit for e in self.terms)

    def constant_part(self) -> Fraction:
        return self.terms.get((0,) * self.backend.nvars, QZERO)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def monomials(self):
        for exp in sorted(self.terms, key=_grlex_key):
            yield exp, self.terms[exp]

    def __add__(self, other: "TuplePoly") -> "TuplePoly":
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, QZERO) + c
        return self._like(terms)

    def __sub__(self, other: "TuplePoly") -> "TuplePoly":
        return self + (-other)

    def __neg__(self) -> "TuplePoly":
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "TuplePoly") -> "TuplePoly":
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, QZERO) + c1 * c2
        return self._like(terms)

    def scale(self, c) -> "TuplePoly":
        c = Fraction(c)
        return self._like({e: c * v for e, v in self.terms.items()})

    def partial(self, i: int) -> "TuplePoly":
        return self._like({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]})

    def __eq__(self, other) -> bool:
        return self.backend == other.backend and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.monomials():
            factors = []
            for name, e in zip(self.backend.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out
