import itertools
import math
import random
from fractions import Fraction

import pytest

from courantalg import (
    AlgebraMap,
    Backend,
    Connection,
    ConnectionChange,
    Derivation,
    MetricModule,
    ModuleElement,
    ModuleError,
    ModuleMap,
    Poly,
    RothElement,
    metrize,
    roth_bracket,
    roth_pushforward,
    roth_wedge,
)
from courantalg.poly import _divided
from courantalg.rothstein import _hamiltonian, generators
from courantalg.textforms import parse_roth, roth_to_text

from conftest import curved_connection, oracle_contexts, random_roth
from peeling_oracle import peel_bracket


B1 = Backend.free(1, ("x",))
X = Poly.var(B1, 0)
ONE, ZERO = Poly.one(B1), Poly.zero(B1)


def hyperbolic2():
    return MetricModule(B1, [[ZERO, ONE], [ONE, ZERO]])


def test_wedge_disjoint_factors():
    M = hyperbolic2()
    d = RothElement.monomial(M, (0,), ())
    e1 = RothElement.monomial(M, (), (0,))
    assert roth_wedge(d, e1) == RothElement.monomial(M, (0,), (0,))


def test_wedge_exterior_square_vanishes():
    M = hyperbolic2()
    e1 = RothElement.monomial(M, (), (0,))
    assert roth_wedge(e1, e1).is_zero()


def test_wedge_symmetric_square():
    M = hyperbolic2()
    de1 = RothElement.monomial(M, (0,), (0,))
    de2 = RothElement.monomial(M, (0,), (1,))
    assert roth_wedge(de1, de2) == RothElement.monomial(M, (0, 0), (0, 1))


def test_wedge_koszul_sign():
    M = hyperbolic2()
    e1 = RothElement.monomial(M, (), (0,))
    e2 = RothElement.monomial(M, (), (1,))
    assert roth_wedge(e2, e1) == -roth_wedge(e1, e2)


def test_bracket_inner_product_value():
    M = hyperbolic2()
    conn = Connection.flat(M)
    e1 = RothElement.from_module_element(M.basis(0))
    e2 = RothElement.from_module_element(M.basis(1))
    assert roth_bracket(e1, e2, conn) == RothElement.from_scalar(M, ONE)


def test_bracket_derivation_on_scalar():
    M = hyperbolic2()
    conn = Connection.flat(M)
    d = RothElement.from_derivation(M, Derivation.basis(B1, 0))
    assert roth_bracket(d, RothElement.from_scalar(M, X * X), conn) == \
        RothElement.from_scalar(M, X.scale(-2))


def test_bracket_flat_derivations_commute():
    B2 = Backend.free(2)
    zero2, one2 = Poly.zero(B2), Poly.one(B2)
    M = MetricModule(B2, [[zero2, one2], [one2, zero2]])
    conn = Connection.flat(M)
    d1 = RothElement.monomial(M, (0,), ())
    d2 = RothElement.monomial(M, (1,), ())
    assert roth_bracket(d1, d2, conn).is_zero()


def _jacobiator(a, b, c, conn, r, s):
    lhs = roth_bracket(a, roth_bracket(b, c, conn), conn)
    rhs = roth_bracket(roth_bracket(a, b, conn), c, conn)
    t2 = roth_bracket(b, roth_bracket(a, c, conn), conn)
    if (r * s) % 2:
        t2 = -t2
    return lhs - (rhs + t2)


def test_graded_jacobi_and_leibniz_randomized():
    B2 = Backend.free(2)
    x2, y2 = Poly.var(B2, 0), Poly.var(B2, 1)
    one2, zero2 = Poly.one(B2), Poly.zero(B2)
    M = MetricModule(B2, [[one2 + x2 * x2, x2], [x2, one2]])
    conn = metrize(Connection(M, [[M.zero(), M.zero()],
                                  [M.basis(0).scale(y2), M.basis(0).scale(x2 * y2)]]))
    rng = random.Random(17)
    trials = 0
    while trials < 60:
        r, s, t = (rng.randint(1, 3) for _ in range(3))
        if r + s + t > 7:
            continue
        trials += 1
        a, b, c = (random_roth(rng, M, d, coeff_deg=1) for d in (r, s, t))
        assert _jacobiator(a, b, c, conn, r, s).is_zero()
        lhs = roth_bracket(a, b.wedge(c), conn)
        rhs = roth_bracket(a, b, conn).wedge(c)
        t3 = b.wedge(roth_bracket(a, c, conn))
        if (r * s) % 2:
            t3 = -t3
        assert lhs == rhs + t3
        # graded antisymmetry and degree bookkeeping
        ab = roth_bracket(a, b, conn)
        ba = roth_bracket(b, a, conn)
        if (r * s) % 2 == 0:
            ba = -ba
        assert ab == ba
        if not ab.is_zero():
            assert ab.degrees() == {r + s - 2}


def test_peel_sides_agree():
    # the closed form against Leibniz peeling from either side, degrees 0..5
    rng = random.Random(19)
    pairs = nonzero = 0
    for M, conn in oracle_contexts():
        for _ in range(70):
            a = random_roth(rng, M, rng.randint(0, 5))
            b = random_roth(rng, M, rng.randint(0, 5))
            closed = roth_bracket(a, b, conn)
            assert closed == peel_bracket(a, b, conn, "left") == peel_bracket(a, b, conn, "right")
            pairs += 1
            nonzero += not closed.is_zero()
    assert pairs >= 400 and nonzero >= 150


def _generator_element(module, v):
    kind, i = v
    if kind == 0:
        return RothElement.from_scalar(module, Poly.var(module.backend, i))
    return RothElement.monomial(module, (i,) if kind == 2 else (), (i,) if kind == 1 else ())


def _values(x: RothElement) -> dict:
    """The groups of x with each numerator divided by the denominator, integral values as ints."""
    return {key: _divided(terms, x._den) for key, terms in x._num.items()}


def test_hamiltonian_equals_peeling_on_generators():
    # Q_a(v) = {a, v} at every generator v, and a call restricted to a subset
    # of generators returns the same entries for that subset
    rng = random.Random(29)
    nonzero = 0
    for M, conn in oracle_contexts():
        gens = generators(M)
        for _ in range(15):
            a = random_roth(rng, M, rng.randint(0, 5), coeff_deg=2)
            numerators, d_a = a._num, a._den
            q, d = _hamiltonian(numerators, d_a, conn, gens)
            assert set(q) <= set(gens)
            for v in gens:
                got = q.get(v, {})
                assert all(type(c) is int for terms in got.values() for c in terms.values())
                assert ({key: _divided(terms, d) for key, terms in got.items()}
                        == _values(peel_bracket(a, _generator_element(M, v), conn)))
                nonzero += bool(got)
            subset = [v for v in gens if rng.random() < 0.5]
            assert _hamiltonian(numerators, d_a, conn, subset) == ({v: q[v] for v in subset if v in q}, d)
    assert nonzero >= 250  # of 510


def test_dual_number_annihilation():
    D = Backend.dual()
    eps = Poly.var(D, 0)
    MD = MetricModule(D, [[Poly.one(D)]])
    phi = RothElement(MD, {((0,), ()): eps})
    assert phi.is_zero()  # eps * (epsd tensor 1) = 0


def test_low_degrees_and_generation():
    # degrees 0,1,2 generate: every monomial is a wedge of generator factors
    M = hyperbolic2()
    rng = random.Random(23)
    for _ in range(40):
        phi = random_roth(rng, M, rng.randint(0, 5), coeff_deg=2)
        rebuilt = RothElement.zero(M)
        for (sym, ext), coeff in phi.terms.items():
            term = RothElement.from_scalar(M, coeff)
            for i in sym:
                term = term.wedge(RothElement.monomial(M, (i,), ()))
            for a in ext:
                term = term.wedge(RothElement.monomial(M, (), (a,)))
            rebuilt = rebuilt + term
        assert rebuilt == phi


def test_connection_change_iso():
    M = hyperbolic2()
    connA = metrize(Connection(M, [[M.basis(0).scale(X), M.zero()]]))
    connB = metrize(Connection(M, [[M.basis(1).scale(X * X), M.basis(0)]]))
    change = ConnectionChange(connA, connB)
    rng = random.Random(29)
    # identity at zero difference
    same = ConnectionChange(connA, connA)
    phi = random_roth(rng, M, 3)
    assert same.exp_t(phi) == phi
    # pure exterior elements are fixed
    ext_only = RothElement.monomial(M, (), (0, 1))
    assert change.exp_t(ext_only) == ext_only
    # one application on a Der generator lands in the bivector part
    d = RothElement.monomial(M, (0,), ())
    image = change.exp_t(d)
    assert d + change.apply_t(d) == image
    # bracket intertwining and wedge automorphism
    for _ in range(40):
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_roth(rng, M, r), random_roth(rng, M, s)
        assert change.exp_t(roth_bracket(a, b, connA)) == \
            roth_bracket(change.exp_t(a), change.exp_t(b), connB)
        assert change.exp_t(a.wedge(b)) == change.exp_t(a).wedge(change.exp_t(b))


def test_pushforward_identity_and_swap():
    M = hyperbolic2()
    conn = curved_connection(M, seed=31)
    rng = random.Random(37)
    ident = ModuleMap(M, M, [[ONE, ZERO], [ZERO, ONE]])
    swap = ModuleMap(M, M, [[ZERO, ONE], [ONE, ZERO]])
    assert swap.is_isometric()
    phi = random_roth(rng, M, 3)
    assert roth_pushforward(phi, ident) == phi
    # swapping the hyperbolic basis permutes coefficients with Koszul signs
    e12 = RothElement.monomial(M, (), (0, 1))
    assert roth_pushforward(e12, swap) == -e12
    # bracket preservation onto the transported connection
    connT = swap.transported_connection(conn)
    assert connT.is_metric()
    for _ in range(25):
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_roth(rng, M, r), random_roth(rng, M, s)
        assert roth_pushforward(roth_bracket(a, b, conn), swap) == \
            roth_bracket(roth_pushforward(a, swap), roth_pushforward(b, swap), connT)


def test_pushforward_rejects_non_isometric():
    M = hyperbolic2()
    double = ModuleMap(M, M, [[Poly.const(B1, 2), ZERO], [ZERO, Poly.const(B1, 2)]])
    assert not double.is_isometric()
    with pytest.raises(ModuleError):
        roth_pushforward(RothElement.monomial(M, (), (0,)), double)


def test_roth_text_round_trip():
    M = hyperbolic2()
    rng = random.Random(41)
    for _ in range(20):
        phi = random_roth(rng, M, rng.randint(0, 4), coeff_deg=2)
        text = roth_to_text(phi)
        if phi.is_zero():
            continue
        terms = [t.strip() for t in text.split("  +  ")]
        assert parse_roth(terms, M) == phi


def test_pushforward_along_variable_permutation():
    B2 = Backend.free(2)
    x2, y2 = Poly.var(B2, 0), Poly.var(B2, 1)
    one2, zero2 = Poly.one(B2), Poly.zero(B2)
    M = MetricModule(B2, [[zero2, one2], [one2, zero2]])
    conn = metrize(Connection(M, [[M.basis(0).scale(x2), M.zero()],
                                  [M.zero(), M.basis(1).scale(y2)]]))
    g = AlgebraMap(B2, B2, perm=(1, 0))  # swap the variables
    gmap = ModuleMap(M, M, [[one2, zero2], [zero2, one2]], algebra_map=g)
    assert gmap.is_isometric()
    connT = gmap.transported_connection(conn)
    assert connT.is_metric()
    rng = random.Random(43)
    for _ in range(15):
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_roth(rng, M, r), random_roth(rng, M, s)
        assert roth_pushforward(roth_bracket(a, b, conn), gmap) == \
            roth_bracket(roth_pushforward(a, gmap), roth_pushforward(b, gmap), connT)
        assert roth_pushforward(a.wedge(b), gmap) == \
            roth_pushforward(a, gmap).wedge(roth_pushforward(b, gmap))


def test_dual_number_curved_connection_bracket():
    D = Backend.dual()
    eps = Poly.var(D, 0)
    oneD, zeroD = Poly.one(D), Poly.zero(D)
    M = MetricModule(D, [[zeroD, oneD], [oneD, zeroD]])
    # eps-valued christoffels (forced); metrize keeps them eps-valued
    raw = Connection(M, [[M.basis(0).scale(eps), M.basis(1).scale(eps.scale(2))]])
    conn = metrize(raw)
    assert conn.is_metric()
    for row in conn.gamma:
        for v in row:
            assert all(c.constant_part() == 0 for c in v.coeffs)
    rng = random.Random(47)
    for _ in range(30):
        r, s, t = (rng.randint(1, 3) for _ in range(3))
        a, b, c = (random_roth(rng, M, d) for d in (r, s, t))
        lhs = roth_bracket(a, roth_bracket(b, c, conn), conn)
        rhs = roth_bracket(roth_bracket(a, b, conn), c, conn)
        t2 = roth_bracket(b, roth_bracket(a, c, conn), conn)
        if (r * s) % 2:
            t2 = -t2
        assert (lhs - rhs - t2).is_zero()
        closed = roth_bracket(a, b, conn)
        assert closed == peel_bracket(a, b, conn, "left") == peel_bracket(a, b, conn, "right")


# -- the stored form against Poly arithmetic on the terms view ------------------

CONTEXTS = list(oracle_contexts())


def _poly_add(x: dict, y: dict, sign: int = 1) -> dict:
    """x + sign y for {key: Poly} term dicts, by Poly addition; zero sums dropped."""
    out = dict(x)
    for key, c in y.items():
        prev = out.get(key)
        total = (c if sign > 0 else -c) if prev is None else (prev + c if sign > 0 else prev - c)
        if total.is_zero():
            out.pop(key, None)
        else:
            out[key] = total
    return out


def _poly_wedge(module, x: dict, y: dict) -> dict:
    """x ^ y for term dicts: exterior signs by counting inversions, eps * D = 0 over the dual numbers."""
    out: dict = {}
    for ((sym1, ext1), c1), ((sym2, ext2), c2) in itertools.product(x.items(), y.items()):
        merged = ext1 + ext2
        if len(set(merged)) < len(merged):
            continue
        inversions = sum(merged[i] > merged[j] for i, j in itertools.combinations(range(len(merged)), 2))
        sym = tuple(sorted(sym1 + sym2))
        c = (c1 * c2).scale((-1) ** inversions)
        if module.backend.is_dual and sym:
            c = Poly.const(module.backend, c.constant_part())
        out = _poly_add(out, {(sym, tuple(sorted(merged))): c})
    return out


def _assert_canonical(x: RothElement):
    numerators = [c for terms in x._num.values() for c in terms.values()]
    assert all(x._num.values()) and all(type(c) is int and c for c in numerators)
    assert x._den > 0 and math.gcd(x._den, *numerators) == 1
    twin = RothElement(x.module, x.terms)  # the same element, packed again from its view
    assert (twin._num, twin._den, hash(twin)) == (x._num, x._den, hash(x))


@pytest.mark.parametrize("context", range(len(CONTEXTS)))
def test_stored_form_equals_poly_arithmetic_on_the_terms_view(context):
    M, conn = CONTEXTS[context]
    rng = random.Random(211 + context)
    scales = [Fraction(1), Fraction(-1, 3), Fraction(2, 5), Fraction(6, 7)]
    nonzero = 0
    for _ in range(8):
        a, b = (random_roth(rng, M, rng.randint(0, 3)).scale(rng.choice(scales)) for _ in range(2))
        q = rng.choice(scales + [Fraction(0)])
        p = random_roth(rng, M, 0, density=1.0).scalar_part()
        ta, tb = a.terms, b.terms
        bracket = {}
        for (k1, c1), (k2, c2) in itertools.product(ta.items(), tb.items()):
            one = roth_bracket(RothElement(M, {k1: c1}), RothElement(M, {k2: c2}), conn)
            bracket = _poly_add(bracket, one.terms)
        results = [
            (a + b, _poly_add(ta, tb)),
            (a - b, _poly_add(ta, tb, -1)),
            (-a, _poly_add({}, ta, -1)),
            (a.scale(q), {key: c.scale(q) for key, c in ta.items()} if q else {}),
            (a.scale(p), _poly_wedge(M, {((), ()): p}, ta)),
            (a.wedge(b), _poly_wedge(M, ta, tb)),
            (roth_bracket(a, b, conn), bracket),
        ]
        for got, expected in results:
            assert got.terms == expected
            _assert_canonical(got)
            nonzero += not got.is_zero()
        # equal elements, reached two ways, are stored equally
        for x, y in (((a + b) - b, a), (a.scale(q).scale(1 / q) if q else a, a), (a - a, RothElement.zero(M))):
            assert (x._num, x._den, hash(x)) == (y._num, y._den, hash(y)) and x == y
    assert nonzero >= 15
