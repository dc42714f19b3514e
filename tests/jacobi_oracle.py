"""Reference oracle for the Jacobi check of a Courant structure: the triple loop.

`jacobi_identity_holds` evaluates m(x, m(y, z)) and m(m(x, y), z) + m(y, m(x, z))
with six full calls of m per probe triple, in the order of
`itertools.product(probes, repeat=3)`, and reports the first failing triple
with the first nonzero term of lhs - rhs: its basis element, monomial and
exact value.  `courantalg.deform.jacobi_identity_holds` assembles the same
values from a table of m on monomial pairs and must return exactly this
(ok, message).
"""

from __future__ import annotations

import itertools

from courantalg import Poly


def jacobi_identity_holds(m, probes) -> tuple[bool, str | None]:
    """m(x, m(y, z)) = m(m(x, y), z) + m(y, m(x, z)) on the probe set."""
    for x, y, z in itertools.product(probes, repeat=3):
        lhs = m(x, m(y, z))
        rhs = m(m(x, y), z) + m(y, m(x, z))
        if lhs != rhs:
            # the first nonzero term of lhs - rhs, by basis element and then exponent tuple
            name, coeff = next((n, c) for n, c in zip(m.module.names, (lhs - rhs).coeffs) if not c.is_zero())
            exp = min(coeff.terms)
            return False, ("Jacobi fails on (%r, %r, %r): lhs - rhs is first nonzero on %s, monomial %s, value %s"
                           % (x, y, z, name, Poly.monomial(m.module.backend, exp), coeff.terms[exp]))
    return True, None
