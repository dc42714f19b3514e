"""Insertion i_x C against the tabulating oracle.

`insert` reads each Q-term of x from the tower; `insert_oracle.insert`
re-keys basis insertions and tabulates every other x through
`Cochain._eval_sder`.  They must return the same cochain on J-images of
degrees 2-5 over free algebras in 0, 1 and 2 variables and over the dual
numbers (curved metrized connections), on so(3) and on the biderivation
quartic, for x zero, a basis element, a constant non-basis element and an
element with polynomial coefficients.  The bracket recursion reads basis
insertions as re-keys, which is the identity [C, e_k] = i_{e_k} C checked
last.
"""

import random
from fractions import Fraction

import pytest

import insert_oracle as oracle
from courantalg import (
    Backend,
    Cochain,
    MetricModule,
    ModuleElement,
    MultiDerivation,
    Poly,
    apply_J,
    cbracket,
    insert,
)
from courantalg.cmaps import _insert_terms, quartic_from_biderivation

from conftest import curved_connection, hyperbolic_module, random_module_element, random_roth, so3_constants


def _dual_module() -> MetricModule:
    D = Backend.dual()
    return MetricModule(D, [[Poly.const(D, int(i + j == 3)) for j in range(4)] for i in range(4)])


# name -> (module, highest J-image degree): Lambda^5 of a rank-4 module over Q vanishes
CONTEXTS = {
    "free0": (lambda: hyperbolic_module(0, 2), 4),
    "free1": (lambda: hyperbolic_module(1, 2), 5),
    "free2": (lambda: hyperbolic_module(2, 1), 5),
    "dual": (_dual_module, 5),
}


def _images(name: str, degrees, seed: int):
    """(module, [J(phi)]) for seeded nonzero phi of each degree, on a curved metrized connection."""
    module = CONTEXTS[name][0]()
    conn = curved_connection(module, seed=seed)
    rng = random.Random(seed)
    images = []
    for d in degrees:
        phi = random_roth(rng, module, d, density=1.0)
        while phi.is_zero():
            phi = random_roth(rng, module, d, density=1.0)
        images.append(apply_J(phi, conn))
    return module, images


def _so3() -> Cochain:
    B0 = Backend.free(0)
    M = MetricModule(B0, [[Poly.const(B0, int(i == j)) for j in range(3)] for i in range(3)])
    csts = so3_constants()
    table = {(i, j): ModuleElement(M, [Poly.const(B0, csts[i][j][k]) for k in range(3)])
             for i in range(3) for j in range(3)}
    return Cochain.from_tables(M, 3, table)


def _quartic() -> Cochain:
    D = Backend.dual()
    M = MetricModule(D, [[Poly.one(D)]])
    return quartic_from_biderivation(M, MultiDerivation(D, 2, {(0, 0): Poly.var(D, 0)}))


def _insertions(module: MetricModule, rng: random.Random):
    """x zero, a basis element, a constant non-basis element, polynomial coefficients."""
    backend = module.backend
    constant = ModuleElement(module, [Poly.const(backend, Fraction(k + 1, 2)) for k in range(module.rank)])
    return [module.zero(), module.basis(module.rank - 1), constant,
            random_module_element(rng, module, deg=2)]


def _assert_matches_oracle(c: Cochain, seed: int):
    rng = random.Random(seed)
    for x in _insertions(c.module, rng):
        assert insert(c, x) == oracle.insert(c, x)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
@pytest.mark.parametrize("seed", range(2))
def test_insert_matches_oracle_on_J_images(name, seed):
    _, images = _images(name, range(2, CONTEXTS[name][1] + 1), seed)
    for c in images:
        assert not c.is_zero()
        _assert_matches_oracle(c, seed)


def test_insert_matches_oracle_on_so3_and_the_quartic():
    for c in (_so3(), _quartic()):
        assert not c.is_zero()
        _assert_matches_oracle(c, 3)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_bracket_with_a_basis_element_is_basis_insertion(name):
    module, images = _images(name, range(5), 4)
    for c in images:
        for k in range(module.rank):
            e_k = module.basis(k)
            assert cbracket(c, Cochain.from_module_element(e_k)) == _insert_terms(c, {(0, k): 1}, 1)
