import itertools
import random
from fractions import Fraction

import pytest

from courantalg import (
    Backend,
    Cochain,
    Connection,
    ConnectionChange,
    Derivation,
    MetricModule,
    ModuleElement,
    MultiDerivation,
    Poly,
    RothElement,
    apply_J,
    cbracket,
    chat_membership,
    cwedge,
    inner,
    invert_J,
    invert_J_deg2,
    invert_J_deg3,
    lambda_check,
    metrize,
    roth_bracket,
)
from courantalg.cmaps import quartic_from_biderivation
from courantalg.poly import packed_exponents_of_degree
from courantalg.rothstein import nested_bracket_with_scalars

from conftest import curved_connection, random_module_element, random_roth


B1 = Backend.free(1, ("x",))
X = Poly.var(B1, 0)
ONE, ZERO = Poly.one(B1), Poly.zero(B1)


def hyperbolic2():
    return MetricModule(B1, [[ZERO, ONE], [ONE, ZERO]])


def test_J_on_derivation():
    M = hyperbolic2()
    conn = curved_connection(M, seed=1)
    d = Derivation.basis(B1, 0)
    c = apply_J(RothElement.from_derivation(M, d), conn)
    rng = random.Random(2)
    for _ in range(10):
        y = random_module_element(rng, M)
        assert c(y) == -conn.nabla(d, y)  # the image of D acts as minus nabla_D


def test_J_on_bivector():
    M = hyperbolic2()
    conn = Connection.flat(M)
    c = apply_J(RothElement.monomial(M, (), (0, 1)), conn)
    rng = random.Random(3)
    for _ in range(10):
        z = random_module_element(rng, M)
        e1, e2 = M.basis(0), M.basis(1)
        assert c(z) == -e2.scale(inner(e1, z)) + e1.scale(inner(e2, z))


def test_J_is_poisson_morphism():
    M = hyperbolic2()
    conn = curved_connection(M, seed=4)
    rng = random.Random(5)
    for _ in range(15):
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        phi, psi = random_roth(rng, M, r), random_roth(rng, M, s)
        assert apply_J(phi.wedge(psi), conn) == cwedge(apply_J(phi, conn), apply_J(psi, conn))
        assert apply_J(roth_bracket(phi, psi, conn), conn) == \
            cbracket(apply_J(phi, conn), apply_J(psi, conn))


def test_J_injective_on_free_backend():
    M = hyperbolic2()
    conn = curved_connection(M, seed=6)
    rng = random.Random(7)
    for _ in range(25):
        phi = random_roth(rng, M, rng.randint(1, 4))
        if apply_J(phi, conn).is_zero():
            assert phi.is_zero()


def test_J_kernel_over_dual_numbers():
    # the square of the derivation generator maps to zero but is nonzero
    D = Backend.dual()
    M = MetricModule(D, [[Poly.one(D)]])
    conn = Connection.flat(M)
    s2 = RothElement.monomial(M, (0, 0), ())
    assert not s2.is_zero()
    assert apply_J(s2, conn).is_zero()
    assert not lambda_check(s2, conn)


def test_lambda_check_examples():
    M = hyperbolic2()
    conn = curved_connection(M, seed=8)
    # (d v d) tensor 1 evaluates to 2 on (x, x)
    phi = RothElement.monomial(M, (0, 0), ())
    val = nested_bracket_with_scalars(phi, [X, X], conn)
    assert val.homogeneous_part(0) == RothElement.from_scalar(M, Poly.const(B1, 2))
    assert lambda_check(phi, conn)
    assert lambda_check(RothElement.zero(M), conn)
    rng = random.Random(9)
    for _ in range(10):
        psi = random_roth(rng, M, rng.randint(2, 4))
        if psi.max_sym_degree() >= 1:
            assert lambda_check(psi, conn)


def _lambda_check_by_monomials(phi: RothElement, conn: Connection, cap: int) -> bool:
    """The oracle of `lambda_check`: the same loop with every algebra monomial
    of degree 1..cap as a probe, not only the generators."""
    backend = phi.module.backend
    monos = [Poly.monomial(backend, backend.unpack(e))
             for t in range(1, cap + 1) for e in packed_exponents_of_degree(backend, t)]
    for p in sorted({len(sym) for (sym, ext) in phi._num if sym}):
        for probe in itertools.combinations_with_replacement(monos, p):
            if any(not sym for (sym, ext) in nested_bracket_with_scalars(phi, list(probe), conn)._num):
                break
        else:
            return False
    return True


def test_lambda_check_by_generators_equals_the_monomial_probes():
    # seeded elements over Q[x] and Q[x, y] under flat and curved connections,
    # and the dual-number monomials with coefficients 1, eps and 1 + eps
    cases = []
    rng = random.Random(12)
    for nvars in (1, 2):
        B = Backend.free(nvars)
        M = MetricModule(B, [[Poly.zero(B), Poly.one(B)], [Poly.one(B), Poly.zero(B)]])
        for conn in (Connection.flat(M), curved_connection(M, seed=nvars)):
            cases += [(random_roth(rng, M, degree), conn) for degree in (2, 3, 4) for _ in range(4)]
    D = Backend.dual()
    eps = Poly.var(D, 0)
    M = MetricModule(D, [[Poly.zero(D), Poly.one(D)], [Poly.one(D), Poly.zero(D)]])
    for conn in (Connection.flat(M), curved_connection(M, seed=3)):
        for p, k, coeff in itertools.product((1, 2, 3), (0, 1, 2), (Poly.one(D), eps, Poly.one(D) + eps)):
            cases += [(RothElement.monomial(M, (0,) * p, ext, coeff), conn)
                      for ext in itertools.combinations(range(2), k)]
    verdicts = [lambda_check(phi, conn) for phi, conn in cases]
    for cap in (1, 2, 3):
        assert verdicts == [_lambda_check_by_monomials(phi, conn, cap) for phi, conn in cases]
    assert 0 < verdicts.count(False) < len(verdicts)


def test_degree2_surjectivity():
    M = hyperbolic2()
    conn = curved_connection(M, seed=10)
    rng = random.Random(11)
    for _ in range(15):
        phi = random_roth(rng, M, 2)
        c = apply_J(phi, conn)
        back = invert_J_deg2(c, conn)
        assert back == phi  # C^2 is reached and inversion is exact


def test_degree3_surjectivity_on_general_form():
    # every degree-3 element is a trivector plus a Der-wedge part; sample that
    # general shape directly and round-trip it
    M = hyperbolic2()
    conn = curved_connection(M, seed=12)
    rng = random.Random(13)
    for _ in range(15):
        phi = random_roth(rng, M, 3, coeff_deg=2)
        c = apply_J(phi, conn)
        back = invert_J_deg3(c, conn)
        assert back == phi
        assert apply_J(back, conn) == c


def test_invert_J_is_exact_through_degree_6():
    M = hyperbolic2()
    conn = curved_connection(M, seed=14)
    rng = random.Random(15)
    for degree in range(7):
        for _ in range(4):
            phi = random_roth(rng, M, degree)
            assert invert_J(apply_J(phi, conn), conn) == phi
    assert invert_J(Cochain.zero(M, 4), conn).is_zero()
    # a level-1 table that is not alternating has no preimage
    with pytest.raises(ValueError, match="no preimage under J: level 1"):
        invert_J(Cochain(M, 4, {1: {((0,), (0, 0)): ONE}}), conn)


def test_degree3_tail_of_so3_vanishes():
    B0 = Backend.free(0)
    M = MetricModule(B0, [[Poly.one(B0) if i == j else Poly.zero(B0) for j in range(3)] for i in range(3)])
    from conftest import so3_constants

    csts = so3_constants()
    table = {}
    for i in range(3):
        for j in range(3):
            table[(i, j)] = ModuleElement(M, [Poly.const(B0, csts[i][j][k]) for k in range(3)])
    m = Cochain.from_tables(M, 3, table)
    theta = invert_J_deg3(m, Connection.flat(M))
    # no derivation part: a pure trivector
    assert all(len(sym) == 0 for (sym, ext) in theta.terms)


def test_membership_degree4_badc_is_outside():
    D = Backend.dual()
    eps = Poly.var(D, 0)
    M = MetricModule(D, [[Poly.one(D)]])
    conn = Connection.flat(M)
    P = MultiDerivation(D, 2, {(0, 0): eps})
    bad = quartic_from_biderivation(M, P)
    res = chat_membership(bad, conn)
    assert not res["member"]
    assert res["conclusive"]
    # P(eps, eps) = eps sits on level 2, which no Sym^2 part reaches over the dual numbers
    assert res["certificate"]["coordinate"] == "level 2, generators [0, 0], basis args [], monomial eps"
    assert res["certificate"]["residual"] == "1"
    assert res["certificate"]["reason"].startswith("level 2 ")


def test_membership_on_images_and_degree3():
    M = hyperbolic2()
    conn = curved_connection(M, seed=14)
    rng = random.Random(15)
    for _ in range(6):
        phi = random_roth(rng, M, 4)
        res = chat_membership(apply_J(phi, conn), conn)
        assert res["member"]
        # preimages agree up to the kernel; over the free backend J is injective
        assert apply_J(res["preimage"], conn) == apply_J(phi, conn)
    for _ in range(4):
        phi = random_roth(rng, M, 3)
        res = chat_membership(apply_J(phi, conn), conn)
        assert res["member"] and res["conclusive"]


def test_cross_connection_inversion_is_exp_t():
    # inverting through one connection an image built through another
    # reproduces the canonical bracket-change isomorphism in degree <= 4
    M = hyperbolic2()
    connA = metrize(Connection(M, [[M.basis(0).scale(X), M.zero()]]))
    connB = metrize(Connection(M, [[M.basis(1).scale(X * X), M.basis(0)]]))
    change = ConnectionChange(connA, connB)
    rng = random.Random(16)
    for _ in range(16):
        deg = rng.randint(1, 4)
        phi = random_roth(rng, M, deg)
        c = apply_J(phi, connA)
        if deg == 3:
            back = invert_J_deg3(c, connB)
        elif deg == 2:
            back = invert_J_deg2(c, connB)
        else:
            back = invert_J(c, connB)
        assert back == change.exp_t(phi)


def test_J_morphism_over_dual_numbers_with_connection():
    D = Backend.dual()
    eps = Poly.var(D, 0)
    oneD, zeroD = Poly.one(D), Poly.zero(D)
    M = MetricModule(D, [[zeroD, oneD], [oneD, zeroD]])
    conn = metrize(Connection(M, [[M.basis(0).scale(eps), M.basis(1).scale(eps)]]))
    rng = random.Random(48)
    from courantalg import cwedge

    for _ in range(15):
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        phi, psi = random_roth(rng, M, r), random_roth(rng, M, s)
        Jphi, Jpsi = apply_J(phi, conn), apply_J(psi, conn)
        assert apply_J(phi.wedge(psi), conn) == cwedge(Jphi, Jpsi)
        assert apply_J(roth_bracket(phi, psi, conn), conn) == cbracket(Jphi, Jpsi)
    # degree <= 3 inversion also works over the dual numbers
    for _ in range(10):
        phi = random_roth(rng, M, 3)
        c = apply_J(phi, conn)
        back = invert_J_deg3(c, conn)
        assert apply_J(back, conn) == c


def test_J_morphism_at_degree_four():
    # degree-(4,4) operations exercise tower level 3 of the results
    M = hyperbolic2()
    conn = curved_connection(M, seed=51)
    rng = random.Random(52)
    from courantalg import cwedge

    for _ in range(2):
        phi = random_roth(rng, M, 4, coeff_deg=2)
        psi = random_roth(rng, M, 4, coeff_deg=2)
        assert apply_J(roth_bracket(phi, psi, conn), conn) == \
            cbracket(apply_J(phi, conn), apply_J(psi, conn))
        assert apply_J(phi.wedge(psi), conn) == \
            cwedge(apply_J(phi, conn), apply_J(psi, conn))
