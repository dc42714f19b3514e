"""The Leibniz-applied differential against the one-bracket-per-column oracle.

`delta_block` must give the oracle's bases and sparse matrix exactly,
`deformation_differential` must equal {Theta, .} by Leibniz peeling on random
elements for generators that need not be Courant (curved and dual-number
connections), and `delta_squared_is_zero` must give the oracle's verdicts,
False included.
"""

import itertools
import random

import pytest

import differential_oracle as oracle
from courantalg import (
    Backend,
    MetricModule,
    Poly,
    RothElement,
    deformation_differential,
    make_standard_courant,
)
from courantalg import deform
from courantalg.deform import CourantStructure, delta_block, delta_squared_is_zero

from conftest import curved_connection, hyperbolic_module, random_roth
from peeling_oracle import peel_bracket
from test_deform import so3_structure, so3_sum_structure

WINDOWS = {
    "so3": (so3_structure, range(0, 8), [0]),
    "so3+so3": (so3_sum_structure, range(0, 5), [0]),
    "standard1": (lambda: make_standard_courant(1), range(0, 7), range(-3, 4)),
    "standard2": (lambda: make_standard_courant(2), range(0, 5), range(-2, 2)),
    "standard3": (lambda: make_standard_courant(3), range(0, 3), range(-1, 2)),
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_blocks_equal_the_oracle(name):
    build, rs, ds = WINDOWS[name]
    cs = build()
    for r, d in itertools.product(rs, ds):
        got, expected = delta_block(cs, r, d), oracle.delta_block(cs, r, d)
        assert got.source_basis == expected.source_basis
        assert got.target_basis == expected.target_basis
        assert got.matrix == expected.matrix


def _contexts():
    """A curved metric connection over Q[x, y]^4 and eps-Christoffels over the dual numbers."""
    module = hyperbolic_module(2, 2)
    yield module, curved_connection(module, seed=11)
    D = Backend.dual()
    one, zero = Poly.one(D), Poly.zero(D)
    module = MetricModule(D, [[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    yield module, curved_connection(module, seed=3)


def _terms(phi):
    return {(exp, sym, ext): v for (sym, ext), poly in phi.terms.items() for exp, v in poly.terms.items()}


@pytest.mark.parametrize("context", range(2))
def test_differential_equals_the_bracket_on_random_elements(context):
    module, conn = list(_contexts())[context]
    rng = random.Random(31 + context)
    nonzero = 0
    for _ in range(6):
        theta = random_roth(rng, module, 3, coeff_deg=2)
        cs = CourantStructure(module, conn, None, theta, ())  # Theta need not be Courant
        for _ in range(12):
            phi = random_roth(rng, module, rng.randint(0, 4), coeff_deg=2)
            expected = peel_bracket(theta, phi, conn)
            image = deformation_differential(cs, phi)
            assert image == expected
            # the kernel itself, before RothElement reduces its output again
            assert deform._apply_q(cs, _terms(phi)) == _terms(expected)
            nonzero += not image.is_zero()
    assert nonzero >= 25  # of 72


def _broken_standard():
    # Theta + x^2 D_1 (x) e_1: internal degree 0, but {Theta, Theta} != 0
    cs = make_standard_courant(1)
    x = Poly.var(cs.module.backend, 0)
    theta = cs.theta + RothElement(cs.module, {((0,), (0,)): x * x})
    return CourantStructure.from_theta(theta, cs.connection, check=False)


@pytest.mark.parametrize("build, rs, ds", [
    (so3_structure, range(0, 6), [0]),
    (lambda: make_standard_courant(1), range(0, 5), range(-2, 3)),
    (lambda: make_standard_courant(2), range(0, 3), range(-1, 2)),
    (_broken_standard, range(0, 4), range(-2, 3)),
])
def test_delta_squared_verdicts_equal_the_oracle(build, rs, ds):
    cs = build()
    verdicts = {(r, d): delta_squared_is_zero(cs, r, d) for r, d in itertools.product(rs, ds)}
    assert verdicts == {(r, d): oracle.delta_squared_is_zero(cs, r, d) for r, d in verdicts}
    if build is _broken_standard:
        assert not any(verdicts[rd] for rd in [(0, 1), (1, -1), (1, 1)])
