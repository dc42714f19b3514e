"""Membership in the image of J: the peel against the capped-solve oracle.

`chat_membership` peels the top symbol level by level; `membership_oracle`
solves J(phi) = c over a capped monomial basis.  On seeded J-images of
degrees 2-6 over every `oracle_contexts()` entry the peel must say member,
its preimage must map back to c, and over free polynomials, where J is
injective, it must equal the oracle's.  A J-image with one top-level entry
broken is a non-member for both.  Over the dual numbers the biderivation
quartic is a non-member whose witness sits on level 2, and J(eps e1^e2^e3^e4)
is a member with no cap to choose.
"""

import random
from fractions import Fraction

import pytest

import membership_oracle as oracle
from conftest import oracle_contexts, random_roth
from courantalg import (
    Backend,
    Cochain,
    Connection,
    MetricModule,
    MultiDerivation,
    Poly,
    RothElement,
    apply_J,
    chat_membership,
)
from courantalg.cmaps import quartic_from_biderivation

CONTEXTS = list(oracle_contexts())


@pytest.mark.parametrize("index", range(len(CONTEXTS)))
@pytest.mark.parametrize("degree", range(2, 7))
def test_peel_agrees_with_the_solve_on_images(index, degree):
    module, conn = CONTEXTS[index]
    rng = random.Random(100 * index + degree)
    for _ in range(2):
        phi = random_roth(rng, module, degree)
        c = apply_J(phi, conn)
        res = chat_membership(c, conn)
        assert res["member"] and res["conclusive"]
        assert apply_J(res["preimage"], conn) == c
        expected = oracle.chat_membership(c, conn)
        assert expected["member"]
        if not module.backend.is_dual:
            assert res["preimage"] == expected["preimage"] == phi


@pytest.mark.parametrize("index", range(len(CONTEXTS)))
def test_a_broken_top_level_is_outside_for_both(index):
    # one entry of a J-image moved off the alternating tables J reaches:
    # level 1 over Q[x1..xn], level 0 where there is no variable to pair with
    module, conn = CONTEXTS[index]
    rng = random.Random(200 + index)
    degree = 4
    c = Cochain.zero(module, 0)
    while c.is_zero():  # the zero image carries degree 0
        c = apply_J(random_roth(rng, module, degree), conn)
    p = 0 if module.backend.is_dual or not module.backend.nvars else 1
    gens = (0,) * p
    args = (0,) * (degree - 2 * p)
    bump = Cochain(module, degree, {p: {(gens, args): Poly.one(module.backend)}})
    bad = c + bump
    res = chat_membership(bad, conn)
    assert not res["member"] and res["conclusive"]
    assert res["certificate"]["coordinate"].startswith("level %d, generators %s" % (p, list(gens)))
    assert not oracle.chat_membership(bad, conn)["member"]


def test_dual_quartic_is_outside_with_a_level_2_witness():
    D = Backend.dual()
    eps = Poly.var(D, 0)
    M = MetricModule(D, [[Poly.one(D)]])
    conn = Connection.flat(M)
    bad = quartic_from_biderivation(M, MultiDerivation(D, 2, {(0, 0): eps}))
    res = chat_membership(bad, conn)
    assert not res["member"] and res["conclusive"]
    assert res["certificate"]["coordinate"].startswith("level 2, generators [0, 0]")
    expected = oracle.chat_membership(bad, conn)
    assert not expected["member"] and expected["conclusive"]


def test_dual_eps_quadrivector_is_a_member_without_a_cap():
    D = Backend.dual()
    M = MetricModule(D, [[Poly.one(D) if a == b else Poly.zero(D) for b in range(4)] for a in range(4)])
    conn = Connection.flat(M)
    phi = RothElement.monomial(M, (), (0, 1, 2, 3), Poly.var(D, 0))
    c = apply_J(phi, conn)
    res = chat_membership(c, conn)
    assert res["member"] and res["conclusive"] and res["preimage"] == phi
    for cap, member in ((0, False), (1, True)):  # the oracle needs a cap of 1 to reach it
        assert oracle.chat_membership(c, conn, cap=cap)["member"] is member


def test_a_dual_level_1_entry_without_eps_is_outside():
    # D(eps) = eps: a level-1 symbol must be a multiple of eps
    D = Backend.dual()
    M = MetricModule(D, [[Poly.one(D)]])
    conn = Connection.flat(M)
    c = Cochain(M, 2, {1: {((0,), ()): Poly.const(D, Fraction(3))}})
    res = chat_membership(c, conn)
    assert not res["member"]
    assert res["certificate"]["coordinate"] == "level 1, generators [0], basis args [], monomial 1"
    assert res["certificate"]["residual"] == "3"
    assert not oracle.chat_membership(c, conn)["member"]
