import itertools
import random
from fractions import Fraction

import pytest

from courantalg import (
    Backend,
    BackendError,
    Derivation,
    MultiDerivation,
    Poly,
    sym_product_of_derivations,
)
from courantalg.poly import exponents_of_degree
from courantalg.textforms import parse_poly

from conftest import random_poly


FREE2 = Backend.free(2, ("x", "y"))
DUAL = Backend.dual()


def test_difference_of_squares():
    x = Poly.var(FREE2, 0)
    one = Poly.one(FREE2)
    assert (one + x) * (one - x) == one - x * x


def test_dual_number_square_vanishes():
    eps = Poly.var(DUAL, 0)
    assert (eps * eps).is_zero()


def test_additive_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = random_poly(rng, FREE2, 3)
        assert p + Poly.zero(FREE2) == p
        assert (p - p).is_zero()  # normal forms are unique


def test_scale():
    x = Poly.var(FREE2, 0)
    assert x * Fraction(3, 2) == x.scale(Fraction(3, 2))


def test_backend_mismatch_rejected():
    with pytest.raises(BackendError):
        Poly.var(FREE2, 0) + Poly.var(DUAL, 0)


def test_partial_derivative():
    x, y = Poly.var(FREE2, 0), Poly.var(FREE2, 1)
    d = Derivation.basis(FREE2, 0)
    assert d(x * x * y) == (x * y).scale(2)


def test_dual_derivation_direction():
    # the unique derivation direction on the dual numbers: eps maps to eps
    eps = Poly.var(DUAL, 0)
    s = Derivation.basis(DUAL, 0)
    assert s(eps) == eps
    assert s(Poly.one(DUAL)).is_zero()


def test_derivation_kills_unit():
    rng = random.Random(2)
    for backend in (FREE2, DUAL):
        d = _random_derivation(rng, backend)
        assert d(Poly.one(backend)).is_zero()


def _random_derivation(rng, backend):
    if backend.is_dual:
        return Derivation(backend, Fraction(rng.randint(-3, 3)))
    return Derivation(backend, tuple(random_poly(rng, backend, 2) for _ in range(backend.nvars)))


@pytest.mark.parametrize("backend", [FREE2, DUAL], ids=["free", "dual"])
def test_leibniz_randomized(backend):
    rng = random.Random(3)
    for _ in range(200):
        d = _random_derivation(rng, backend)
        a = random_poly(rng, backend, 2)
        b = random_poly(rng, backend, 2)
        assert d(a * b) == d(a) * b + a * d(b)


def test_commutator_examples():
    x = Poly.var(FREE2, 0)
    dx, dy = Derivation.basis(FREE2, 0), Derivation.basis(FREE2, 1)
    assert dx.commutator(dy).is_zero()
    assert dx.scale(x).commutator(dx) == -dx  # expand on x, x^2
    assert dx.commutator(dx).is_zero()


@pytest.mark.parametrize("backend", [FREE2, DUAL], ids=["free", "dual"])
def test_commutator_jacobi_randomized(backend):
    rng = random.Random(4)
    probe = random_poly(rng, backend, 3) + Poly.var(backend, 0)
    for _ in range(60):
        d1, d2, d3 = (_random_derivation(rng, backend) for _ in range(3))
        jac = (
            d1.commutator(d2.commutator(d3))
            + d2.commutator(d3.commutator(d1))
            + d3.commutator(d1.commutator(d2))
        )
        assert jac.is_zero() or jac(probe).is_zero()
        assert jac.is_zero()


def test_multiderivation_table_eval():
    eps = Poly.var(DUAL, 0)
    P = MultiDerivation(DUAL, 2, {(0, 0): eps})
    assert P(eps, eps) == eps
    assert P(Poly.one(DUAL), eps).is_zero()          # derivation slot on the unit
    assert P(eps, eps * eps).is_zero()               # zero argument
    with pytest.raises(ValueError):
        P(eps)


def test_multiderivation_leibniz_per_slot():
    rng = random.Random(5)
    x, y = Poly.var(FREE2, 0), Poly.var(FREE2, 1)
    P = MultiDerivation(FREE2, 2, {(0, 0): x, (0, 1): y * y, (1, 1): Poly.one(FREE2)})
    for _ in range(40):
        a, b, c = (random_poly(rng, FREE2, 2) for _ in range(3))
        assert P(a * b, c) == a * P(b, c) + b * P(a, c)
        assert P(a, b) == P(b, a)


def test_dual_sym2_collapses_but_sder2_does_not():
    # the canonical square of derivations vanishes over the dual numbers,
    # while the table {eps,eps -> eps} is a genuine symmetric biderivation
    s = Derivation.basis(DUAL, 0)
    assert sym_product_of_derivations([s, s]).is_zero()
    eps = Poly.var(DUAL, 0)
    P = MultiDerivation(DUAL, 2, {(0, 0): eps})
    assert not P.is_zero()
    # over the free algebra nothing collapses
    dx = Derivation.basis(FREE2, 0)
    assert not sym_product_of_derivations([dx, dx]).is_zero()


def test_poly_text_round_trip():
    rng = random.Random(6)
    for _ in range(25):
        p = random_poly(rng, FREE2, 3)
        assert parse_poly(str(p), FREE2) == p
    assert parse_poly("3/2*x^2*y - 1", FREE2) == (
        Poly.monomial(FREE2, (2, 1), Fraction(3, 2)) - Poly.one(FREE2)
    )


def _exponents_by_product_filter(backend, total):
    return [exp for exp in itertools.product(range(total + 1), repeat=backend.nvars)
            if sum(exp) == total and not (backend.is_dual and exp[0] > 1)]


@pytest.mark.parametrize("backend", [Backend.free(n) for n in range(5)] + [Backend.dual()],
                         ids=lambda b: repr(b))
def test_exponents_of_degree_equals_the_product_filter(backend):
    # same tuples in the same order as walking all (total + 1)^nvars tuples
    for total in range(-1, 7):
        assert list(exponents_of_degree(backend, total)) == _exponents_by_product_filter(backend, total)
