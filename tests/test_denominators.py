"""The fraction-free kernel on connections with denominators.

`rothstein`'s kernel computes on int numerators over one denominator per
flat sum and divides once, when a result leaves it.  On the connections of
`conftest.denominator_contexts()` (Christoffels in 1/3 and 1/5 before
`metrize` halves them, over Q[x, y] and over the dual numbers) and on every
`conftest.oracle_contexts()` context, each route through the kernel must
equal its oracle exactly, on seeded elements scaled by thirds and fifths:
the bracket against Leibniz peeling, Q_Theta on monomials against
`differential_oracle.column`, J against `apply_J_oracle`, and t and exp(t)
of a connection change against their expansion by wedge products.  Results
are stored canonically: int numerators over a positive denominator with no
common factor, so integral values are ints over 1.

The count tests check that a connection builds its generator table once,
however many brackets, J images and Q tables use it, and that a connection
which is not metric still brackets wherever no D-D entry is read.

The complex computes on int numerators over one denominator per cochain
too.  On grams with denominators or polynomial entries
(`conftest.gram_denominator_contexts()`), insertion must equal
`insert_oracle`, the recursive wedge the shuffle wedge, and the bracket
must be graded antisymmetric and satisfy graded Jacobi on seeded J-images;
a cochain built from Poly levels and one built on the int path are equal
and hash equal.  A bracket of two J-images builds no `Poly` at all.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import apply_J_oracle
import differential_oracle
import insert_oracle
from courantalg import (
    Cochain,
    Connection,
    ConnectionChange,
    ModuleError,
    Poly,
    RothElement,
    apply_J,
    cbracket,
    cmaps,
    cwedge,
    deformation_differential,
    insert,
    modules,
    roth_bracket,
    rothstein,
)
from courantalg import deform
from courantalg.deform import CourantStructure
from courantalg.cmaps import cwedge_shuffle
from courantalg.poly import _divided, packed_exponents_of_degree
from courantalg.rothstein import graded_monomials

from conftest import (
    denominator_contexts,
    gram_denominator_contexts,
    hyperbolic_module,
    oracle_contexts,
    random_module_element,
    random_roth,
)
from peeling_oracle import peel_bracket


def _contexts():
    names = ["thirds-fifths-free2", "thirds-fifths-dual"]
    for name, (M, conn) in zip(names, denominator_contexts()):
        yield name, M, conn
    for i, (M, conn) in enumerate(oracle_contexts()):
        yield "oracle%d-%s" % (i, "dual" if M.backend.is_dual else "free%d" % M.backend.nvars), M, conn


CONTEXTS = {name: (M, conn) for name, M, conn in _contexts()}
SCALES = [Fraction(1), Fraction(-1, 3), Fraction(2, 5), Fraction(7, 15)]


def _element(rng, M, degree: int, density: float = 0.6) -> RothElement:
    return random_roth(rng, M, degree, density=density).scale(rng.choice(SCALES))


def _canonical_form(x: RothElement) -> RothElement:
    """x, once its stored form is checked canonical: no empty group, nonzero
    int numerators, and a positive denominator that no factor divides out."""
    numerators = [c for terms in x._num.values() for c in terms.values()]
    assert all(x._num.values()) and all(type(c) is int and c for c in numerators)
    assert x._den > 0 and math.gcd(x._den, *numerators) == 1
    return x


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_bracket_equals_peeling(name):
    M, conn = CONTEXTS[name]
    rng = random.Random(61 + list(CONTEXTS).index(name))
    nonzero = 0
    for _ in range(20):
        a, b = (_element(rng, M, rng.randint(0, 4)) for _ in range(2))
        closed = _canonical_form(roth_bracket(a, b, conn))
        assert closed == peel_bracket(a, b, conn)
        nonzero += not closed.is_zero()
    assert nonzero >= 6


def _monomials(M, degrees=range(4)):
    backend = M.backend

    def exponents(sym, ext):
        return (e for t in range(2) for e in packed_exponents_of_degree(backend, t))

    return [mono for r in degrees for mono in graded_monomials(M, r, exponents)]


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_q_theta_columns_equal_the_oracle(name):
    M, conn = CONTEXTS[name]
    rng = random.Random(67 + list(CONTEXTS).index(name))
    theta = _element(rng, M, 3)
    cs = CourantStructure(M, conn, None, theta)  # Theta need not be Courant
    monos = _monomials(M)
    nonzero = 0
    for exp, sym, ext in rng.sample(monos, min(len(monos), 40)):
        image, den = deform._apply_q(cs, {(sym, ext): {exp: 1}}, 1)
        got = {(e, isym, iext): c for (isym, iext), terms in image.items() for e, c in _divided(terms, den).items()}
        assert got == differential_oracle.column(cs, exp, sym, ext)
        assert all(type(c) is int or c.denominator != 1 for c in got.values())
        nonzero += bool(got)
    phi = _element(rng, M, 2)
    _canonical_form(deformation_differential(cs, phi))
    assert nonzero >= 3 or theta.is_zero()


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_apply_J_equals_the_oracle(name):
    M, conn = CONTEXTS[name]
    rng = random.Random(71 + list(CONTEXTS).index(name))
    nonzero = 0
    for degree in range(5):
        phi = _element(rng, M, degree)
        image = apply_J(phi, conn)
        assert image == apply_J_oracle.apply_J(phi, conn)
        nonzero += not image.is_zero()
    assert nonzero >= 2


def _t_by_wedges(change: ConnectionChange, phi: RothElement) -> RothElement:
    """t(D_{i1} ... D_{ip} (x) e_A) = sum_m D_{i1} ..^m.. D_{ip} t(D_{im}) (x) e_A; t(D_i) is even."""
    M = change.module
    out = RothElement.zero(M)
    for (sym, ext), c in phi.terms.items():
        for m, i in enumerate(sym):
            rest = RothElement.monomial(M, sym[:m] + sym[m + 1:], ext, c)
            out = out + rest.wedge(RothElement.from_lambda2(M, change.t_table[i]))
    return out


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_connection_change_equals_its_wedge_expansion(name):
    M, conn = CONTEXTS[name]
    rng = random.Random(73 + list(CONTEXTS).index(name))
    flat = Connection.flat(M)
    for change in (ConnectionChange(conn, flat), ConnectionChange(flat, conn)):
        for degree in range(1, 6):
            phi = _element(rng, M, degree)
            assert _canonical_form(change.apply_t(phi)) == _t_by_wedges(change, phi)
            expected, term, n = RothElement.zero(M), phi, 0
            while not term.is_zero():
                expected = expected + term.scale(Fraction(1, _factorial(n)))
                term, n = _t_by_wedges(change, term), n + 1
            assert _canonical_form(change.exp_t(phi)) == expected


def _factorial(n: int) -> int:
    return 1 if n < 2 else n * _factorial(n - 1)


def test_wedge_keeps_integral_values_as_ints():
    rng = random.Random(79)
    for name, (M, conn) in CONTEXTS.items():
        for _ in range(4):
            a, b = _element(rng, M, rng.randint(0, 3)), _element(rng, M, rng.randint(0, 3))
            product = _canonical_form(a.wedge(b))
            assert product.wedge(RothElement.from_scalar(M, Poly.one(M.backend))) == product


def test_generator_table_is_built_once_per_connection(monkeypatch):
    builds, curvatures = [], []
    build, curvature = rothstein._generator_table, modules.curvature

    def counted_build(conn):
        builds.append(conn)
        return build(conn)

    def counted_curvature(conn):
        curvatures.append(conn)
        return curvature(conn)

    monkeypatch.setattr(rothstein, "_generator_table", counted_build)
    for module in (modules, rothstein):
        monkeypatch.setattr(module, "curvature", counted_curvature)
    M, conn = next(denominator_contexts())
    rng = random.Random(83)
    for _ in range(12):
        a, b = _element(rng, M, rng.randint(1, 4)), _element(rng, M, rng.randint(1, 4))
        roth_bracket(a, b, conn)
    for degree in range(1, 4):
        apply_J(_element(rng, M, degree), conn)
    for _ in range(3):
        cs = CourantStructure(M, conn, None, _element(rng, M, 3))
        deform._q_table(cs)
        deformation_differential(cs, _element(rng, M, 2))
    assert builds == [conn]
    assert curvatures == [conn]


def test_non_metric_connection_brackets_where_no_d_d_entry_is_read():
    M = hyperbolic_module(1, 1)
    raw = Connection(M, [[M.basis(0).scale(Poly.var(M.backend, 0)), M.zero()]])
    assert not raw.is_metric()
    rng = random.Random(89)
    brackets = raises = 0
    for r, s in itertools.product(range(5), repeat=2):
        a, b = _element(rng, M, r, density=0.9), _element(rng, M, s, density=0.9)
        if any(sym for sym, _ in a.terms) and any(sym for sym, _ in b.terms):
            with pytest.raises(ModuleError):
                roth_bracket(a, b, raw)
            raises += 1
        else:
            assert roth_bracket(a, b, raw) == peel_bracket(a, b, raw)
            brackets += 1
        assert apply_J(a, raw) == apply_J_oracle.apply_J(a, raw)
    assert brackets >= 10 and raises >= 3


# -- the complex on int numerators ---------------------------------------------------

GRAMS = {name: (M, conn) for name, M, conn in gram_denominator_contexts()}


def _image(rng, M, conn, degree: int) -> Cochain:
    """J of a seeded nonzero element of the degree, scaled by thirds and fifths."""
    phi = _element(rng, M, degree, density=1.0)
    while phi.is_zero():
        phi = _element(rng, M, degree, density=1.0)
    return apply_J(phi, conn)


def test_gram_contexts_carry_denominators_and_polynomials():
    G = {name: M.numerators()[1] for name, (M, _) in GRAMS.items()}
    assert G == {"thirds-free1": 3, "unimodular-free1": 1, "thirds-dual": 3}
    assert not GRAMS["unimodular-free1"][0].gram[0][1].is_constant()


@pytest.mark.parametrize("name", list(GRAMS))
def test_insert_equals_the_oracle_over_gram_denominators(name):
    M, conn = GRAMS[name]
    rng = random.Random(101)
    constant = M.basis(0).scale(Fraction(2, 3)) + M.basis(M.rank - 1).scale(Fraction(-1, 5))
    for degree in range(2, 5):
        c = _image(rng, M, conn, degree)
        for x in (M.basis(1), constant, random_module_element(rng, M, deg=2).scale(Fraction(1, 3))):
            assert insert(c, x) == insert_oracle.insert(c, x)


@pytest.mark.parametrize("name", list(GRAMS))
def test_recursive_wedge_equals_the_shuffle_wedge_over_gram_denominators(name):
    M, conn = GRAMS[name]
    rng = random.Random(103)
    for r, s in itertools.product(range(1, 3), repeat=2):
        a, b = _image(rng, M, conn, r), _image(rng, M, conn, s)
        assert cwedge(a, b) == cwedge_shuffle(a, b)


@pytest.mark.parametrize("name", list(GRAMS))
def test_bracket_antisymmetry_and_graded_jacobi_over_gram_denominators(name, monkeypatch):
    monkeypatch.setattr(cmaps, "_BRACKET_CACHE", cmaps.Memo())
    M, conn = GRAMS[name]
    rng = random.Random(107)
    nonzero = 0
    for degs in [(1, 1, 2), (1, 2, 2), (2, 2, 1), (1, 2, 3), (2, 2, 2)]:
        a, b, c = (_image(rng, M, conn, d) for d in degs)
        r, s = degs[0], degs[1]
        for x, y in ((a, a), (b, b), (a, b)):
            if x.degree == y.degree:  # equal degrees: both orders are computed, neither is a swap
                sign = 1 if (x.degree * y.degree) % 2 else -1
                assert cbracket(x, y) == cbracket(y, x).scale(sign)
        lhs = cbracket(a, cbracket(b, c))
        t2 = cbracket(b, cbracket(a, c))
        if (r * s) % 2:
            t2 = -t2
        assert lhs == cbracket(cbracket(a, b), c) + t2
        nonzero += not lhs.is_zero()
    assert nonzero >= 2


@pytest.mark.parametrize("name", list(GRAMS) + ["thirds-fifths-free2", "thirds-fifths-dual"])
def test_poly_built_and_int_built_cochains_are_equal_and_hash_equal(name):
    M, conn = GRAMS[name] if name in GRAMS else CONTEXTS[name]
    rng = random.Random(109)
    for degree in range(1, 5):
        c = _image(rng, M, conn, degree)
        rebuilt = Cochain(M, c.degree, c.levels)
        assert rebuilt == c and hash(rebuilt) == hash(c)
        third = {p: {k: v.scale(Fraction(1, 3)) for k, v in t.items()} for p, t in c.levels.items()}
        scaled = c.scale(Fraction(1, 3))
        assert scaled == Cochain(M, c.degree, third) and hash(scaled) == hash(Cochain(M, c.degree, third))
        twice = c + c - c
        assert twice == c and hash(twice) == hash(c)
        assert (c - c).is_zero() and c - c == Cochain.zero(M, c.degree)


def test_bracket_of_two_images_builds_no_poly(monkeypatch):
    """The contract: Poly only at the boundary, so no Poly arithmetic inside a bracket."""
    M, conn = CONTEXTS["thirds-fifths-free2"]
    rng = random.Random(113)
    a, b = _image(rng, M, conn, 3), _image(rng, M, conn, 3)
    assert a._den > 1 and b._den > 1
    cbracket(a, b)  # builds the module's reference connection and its tables, once per module
    monkeypatch.setattr(cmaps, "_BRACKET_CACHE", cmaps.Memo())
    monkeypatch.setattr(cmaps, "_PREIMAGES", cmaps.Memo())
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__init__"):
        def counted(*args, _name=name, _real=getattr(Poly, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(Poly, name, counted)
    out = cbracket(a, b)
    monkeypatch.undo()
    assert calls == []
    assert not out.is_zero()
