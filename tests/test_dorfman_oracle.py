"""The Dorfman bracket against its `Poly`-object formula.

`dorfman_bracket` sums [X, Y] + L_X eta - i_Y d xi on int numerators;
`dorfman_oracle` sums the same terms as polynomials.  They must agree
exactly on seeded elements of A^{2n}, n = 1..3, with zero components,
fractional coefficients and degree up to 3.
"""

import itertools
import random

import pytest

import dorfman_oracle as oracle
from courantalg import Poly, dorfman_bracket
from courantalg.deform import standard_module

from conftest import fractional_element


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dorfman_matches_the_poly_formula(n):
    module = standard_module(n)
    rng = random.Random(200 + n)
    elements = [fractional_element(rng, module, deg) for deg in (0, 1, 2, 3) for _ in range(3)]
    elements += [module.zero()] + list(module.basis_elements())
    for u, v in itertools.product(elements, repeat=2):
        assert dorfman_bracket(module, n, u, v) == oracle.dorfman_bracket(module, n, u, v), (u, v)


def test_each_term_of_the_formula_shows():
    """On A^4 over Q[x, y] (e1, e2 = d/dx, d/dy; f1, f2 = dx, dy), one pair per
    term of the formula on which that term decides the value, so a dropped or
    sign-flipped term fails here on both routes."""
    module = standard_module(2)
    backend = module.backend
    x, y = Poly.var(backend, 0), Poly.var(backend, 1)
    e1, e2, f1, f2 = module.basis_elements()
    cases = [
        (e1.scale(y), e2.scale(x), e2.scale(y) - e1.scale(x)),  # [y d/dx, x d/dy]
        (e1, f2.scale(x), f2),  # X(eta_i): L_{d/dx} (x dy) = dy
        (e1.scale(x * x), f1, f1.scale(x.scale(2))),  # eta_j d_i X^j: L_{x^2 d/dx} dx = 2x dx
        (f2.scale(x), e1, -f2),  # d_j xi_i: -i_{d/dx} d(x dy) = -dy
        (f1.scale(y), e1, f2),  # d_i xi_j: -i_{d/dx} d(y dx) = dy
    ]
    for u, v, expected in cases:
        assert dorfman_bracket(module, 2, u, v) == expected, (u, v)
        assert oracle.dorfman_bracket(module, 2, u, v) == expected, (u, v)
