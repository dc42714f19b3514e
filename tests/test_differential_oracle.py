"""The Leibniz-applied differential against the one-bracket-per-column oracle.

`delta_block` must give the oracle's bases and sparse matrix exactly,
`deformation_differential` must equal {Theta, .} by Leibniz peeling on random
elements for generators that need not be Courant (curved and dual-number
connections), and `delta_squared_is_zero` must give the oracle's verdicts,
False included.  `delta_squared_witness`, which reads Q(Q(x)) from the
generator table of Q^2, must name the monomial and value that applying Q
twice names, on Courant structures (empty table) and on broken generators
over flat, curved and dual-number connections whose Q keeps the blocks.
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
from courantalg.deform import (
    CourantStructure,
    delta_block,
    delta_squared_is_zero,
    delta_squared_witness,
    enumerate_chain_basis,
)
from courantalg.modules import Connection, ModuleElement, curvature
from courantalg.poly import _divided
from courantalg.rothstein import _apply_derivation

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
            # the kernel itself, before RothElement cancels its common factor
            kernel, den = deform._apply_q(cs, phi._num, phi._den)
            assert ({key: _divided(terms, den) for key, terms in kernel.items() if terms}
                    == {key: _divided(terms, expected._den) for key, terms in expected._num.items()})
            nonzero += not image.is_zero()
    assert nonzero >= 25  # of 72


def _broken_standard(n=1):
    # Theta + x^2 D_1 (x) e_1 (+ x y D_2 (x) e_2 for n = 2): internal degree 0, but {Theta, Theta} != 0
    cs = make_standard_courant(n)
    x = [Poly.var(cs.module.backend, i) for i in range(n)]
    extra = {((0,), (0,)): x[0] * x[0]}
    if n == 2:
        extra[((1,), (1,))] = x[0] * x[1]
    theta = cs.theta + RothElement(cs.module, extra)
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


def _graded_curved():
    """Q[x, y]^6 with internal degrees (1, 1, 0, 0, -1, -1), the pairing of
    a_i = e_i with d_i = e_(4+i) and b_j = e_(2+j) orthonormal, and constant
    Christoffels that lower the internal degree by one: D_1 sends a_i to b_i
    and b_i to -d_i, D_2 sends a_2 to b_1 and b_1 to -d_2.  The two do not
    commute, so the connection is curved, and every generator bracket keeps
    the internal degree."""
    backend = Backend.free(2)
    zero, one = Poly.zero(backend), Poly.one(backend)
    gram = [[zero] * 6 for _ in range(6)]
    for i, j in [(0, 4), (1, 5), (4, 0), (5, 1), (2, 2), (3, 3)]:
        gram[i][j] = one
    module = MetricModule(backend, gram, internal_degrees=(1, 1, 0, 0, -1, -1))
    images = [{0: {2: 1}, 1: {3: 1}, 2: {4: -1}, 3: {5: -1}}, {1: {2: 1}, 2: {5: -1}}]
    gamma = [[ModuleElement(module, [Poly.const(backend, image.get(a, {}).get(b, 0)) for b in range(6)])
              for a in range(6)] for image in images]
    conn = Connection(module, gamma)
    assert conn.is_metric() and curvature(conn).pair(0, 1)
    return module, conn


def _graded_dual():
    """The dual numbers with basis degrees (1, 1, -1, -1, 0, 0), a_i = e_i
    paired with d_i = e_(2+i) and g_1, g_2 = e_5, e_6 orthonormal; epsd sends
    a_1 to eps d_2 and a_2 to -eps d_1, a metric connection that keeps the
    internal degree."""
    backend = Backend.dual()
    zero, one, eps = Poly.zero(backend), Poly.one(backend), Poly.var(backend, 0)
    gram = [[zero] * 6 for _ in range(6)]
    for i, j in [(0, 2), (1, 3), (2, 0), (3, 1), (4, 4), (5, 5)]:
        gram[i][j] = one
    module = MetricModule(backend, gram, internal_degrees=(1, 1, -1, -1, 0, 0))
    images = {0: {3: eps}, 1: {2: -eps}}
    gamma = [[ModuleElement(module, [images.get(a, {}).get(b, zero) for b in range(6)]) for a in range(6)]]
    conn = Connection(module, gamma)
    assert conn.is_metric()
    return module, conn


def _random_generators(context, seed, count=3, nterms=5):
    """Structures on random degree-3 generators of internal degree 0, not
    Courant in general.  Over the dual numbers the generator has neither eps
    nor a Der factor: with either, Q(epsd) or Q(eps) leaves its internal
    degree (epsd(eps) = eps), and Q no longer keeps the blocks."""
    module, conn = context()
    rng = random.Random(seed)
    monomials = [(exp, sym, ext) for exp, sym, ext in enumerate_chain_basis(module, 3, 0)
                 if not (module.backend.is_dual and (exp or sym))]
    for _ in range(count):
        num: dict = {}
        for exp, sym, ext in rng.sample(monomials, min(nterms, len(monomials))):
            num.setdefault((sym, ext), {})[exp] = rng.choice((-2, -1, 1, 2, 3))
        theta = RothElement.from_numerators(module, num, rng.choice((1, 2, 3)))
        yield CourantStructure(module, conn, None, theta, ())


SQUARES = {  # name: (structures, r window, d window, Courant)
    "standard1": (lambda: [make_standard_courant(1)], range(0, 6), range(-3, 4), True),
    "standard2": (lambda: [make_standard_courant(2)], range(0, 5), range(-2, 3), True),
    "standard3": (lambda: [make_standard_courant(3)], range(0, 4), range(-2, 3), True),
    "broken1": (lambda: [_broken_standard(1)], range(0, 5), range(-2, 3), False),
    "broken2": (lambda: [_broken_standard(2)], range(0, 5), range(-2, 3), False),
    "curved": (lambda: _random_generators(_graded_curved, 41), range(0, 4), range(-1, 2), False),
    "dual": (lambda: _random_generators(_graded_dual, 43), range(0, 5), range(-2, 3), False),
}


@pytest.mark.parametrize("name", sorted(SQUARES))
def test_delta_squared_witness_equals_the_two_step_oracle(name):
    build, rs, ds, courant = SQUARES[name]
    for cs in build():
        _, _, keeps, squares, _ = deform._q_table(cs)
        assert keeps and (not squares) == courant
        witnesses = {(r, d): delta_squared_witness(cs, r, d) for r, d in itertools.product(rs, ds)}
        assert witnesses == {rd: oracle.delta_squared_witness(cs, *rd) for rd in witnesses}
        assert any(w is not None for w in witnesses.values()) == (not courant)


def test_q_squared_table_equals_q_twice_on_every_monomial():
    cs = _broken_standard(2)
    module = cs.module
    _, d_q, _, squares, _ = deform._q_table(cs)
    count = nonzero = 0
    for r, d in itertools.product(range(0, 5), range(-2, 3)):
        for exp, sym, ext in enumerate_chain_basis(module, r, d):
            x = {(sym, ext): {exp: 1}}
            twice = RothElement.from_numerators(module, *deform._apply_q(cs, *deform._apply_q(cs, x, 1)))
            table = _apply_derivation(squares, x, module.backend)
            assert RothElement.from_numerators(module, table, d_q * d_q) == twice
            count += 1
            nonzero += not twice.is_zero()
    assert count == 379 and nonzero > 100
