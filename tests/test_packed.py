"""Packed monomials: one int per exponent vector inside the int-numerator layer.

The layout (`poly` docstring) gives each variable a FIELD_BITS-bit field with
a guard bit on top.  Here the packed routines are compared with a tuple
reference on seeded examples: `_mul_add`, `_partial` and the grouped product
`rothstein._mul_into` over 0 to 3 variables and the dual numbers, where
eps^2 and eps times a Der factor are dropped.  Keys round-trip and order as
exponent tuples do; a product at the field limit is exact and one past it
raises instead of carrying into the next field; and a bracket on either
side multiplies packed keys only, making an exponent tuple nowhere but where
its value leaves the layer, through the `terms` view.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courantalg import Backend, ModuleError, Poly, RothElement, apply_J, cbracket, cmaps, roth_bracket
from courantalg import modules, poly, rothstein
from courantalg.poly import EXPONENT_LIMIT, _mul_add, _partial
from courantalg.rothstein import _mul_into

from conftest import denominator_contexts, hyperbolic_module, random_roth

BACKENDS = [Backend.free(n) for n in range(4)] + [Backend.dual()]
IDS = ["free0", "free1", "free2", "free3", "dual"]


def _exponents(backend):
    if backend.is_dual:
        return st.tuples(st.integers(0, 1))
    # small exponents collide and cancel; large ones reach the top of the field
    field = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_LIMIT // 2))
    return st.tuples(*[field] * backend.nvars)


def _sums(backend, max_size=5):
    return st.dictionaries(_exponents(backend), st.integers(-4, 4).filter(bool), max_size=max_size)


def _packed(backend, terms):
    return {backend.pack(e): c for e, c in terms.items()}


def _unpacked(backend, terms):
    return {backend.unpack(k): c for k, c in terms.items()}


def _ref_mul(a, b, dual, sign=1, with_der=False):
    """a b on exponent tuples; eps^2, and eps beside a Der factor, vanish over the dual numbers."""
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(e1, e2))
        if dual and (e[0] > 1 or (e[0] and with_der)):
            continue
        out[e] = out.get(e, 0) + sign * c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_partial(a, j):
    return {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j] for e, c in a.items() if e[j]}


def _ref_ext(ext1, ext2):
    """(sign, sorted) of e_ext1 ^ e_ext2 by counting inversions, or None."""
    merged = ext1 + ext2
    if len(set(merged)) < len(merged):
        return None
    inversions = sum(1 for i, j in itertools.combinations(range(len(merged)), 2) if merged[i] > merged[j])
    return (-1) ** inversions, tuple(sorted(merged))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_packed_product_and_partial_equal_the_tuple_reference(data):
    backend = data.draw(st.sampled_from(BACKENDS))
    a, b = data.draw(_sums(backend)), data.draw(_sums(backend))
    f = data.draw(st.sampled_from([1, -1, 3]))
    pa, pb = _packed(backend, a), _packed(backend, b)
    assert _unpacked(backend, _mul_add({}, pa, pb, backend, f)) == _ref_mul(a, b, backend.is_dual, f)
    for j, shift in enumerate(backend.shifts):
        assert _unpacked(backend, _partial(pa, shift)) == _ref_partial(a, j)


def _groups(backend, rank=3):
    ngen = 1 if backend.is_dual else backend.nvars
    key = st.tuples(st.lists(st.integers(0, max(ngen - 1, 0)), max_size=2 if ngen else 0).map(sorted).map(tuple),
                    st.lists(st.integers(0, rank - 1), max_size=2, unique=True).map(sorted).map(tuple))
    return st.dictionaries(key, _sums(backend, max_size=3), max_size=3)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_grouped_product_equals_the_tuple_reference(data):
    backend = data.draw(st.sampled_from(BACKENDS))
    lefts = data.draw(_groups(backend))
    (sym2, ext2), terms2 = data.draw(_groups(backend).filter(bool)).popitem()
    expected: dict = {}
    for (sym1, ext1), terms1 in lefts.items():
        merged = _ref_ext(ext1, ext2)
        if merged is None:
            continue
        sign, ext = merged
        sym = tuple(sorted(sym1 + sym2))
        for e, c in _ref_mul(terms1, terms2, backend.is_dual, sign, with_der=bool(sym)).items():
            group = expected.setdefault((sym, ext), {})
            group[e] = group.get(e, 0) + c
    out: dict = {}
    _mul_into(out, {key: _packed(backend, t) for key, t in lefts.items()},
              (sym2, ext2, _packed(backend, terms2)), backend)
    expected = {key: {e: c for e, c in t.items() if c} for key, t in expected.items()}
    assert ({key: _unpacked(backend, t) for key, t in out.items() if t}
            == {key: t for key, t in expected.items() if t})


def test_dual_numbers_drop_eps_squared_and_eps_beside_a_der_factor():
    D = Backend.dual()
    eps = D.pack((1,))
    out: dict = {}
    lefts = {((0,), ()): {0: 2}, ((), (0,)): {0: 1, eps: 3}}
    _mul_into(out, lefts, ((), (1,), {0: 5, eps: 7}), D)
    # 2 D * (5 + 7 eps) e_2 keeps 10 D e_2; (1 + 3 eps) e_1 * (5 + 7 eps) e_2 loses 21 eps^2
    assert out == {((0,), (1,)): {0: 10}, ((), (0, 1)): {0: 5, eps: 22}}


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
def test_pack_round_trip_and_order(backend):
    rng = random.Random(131)
    top = 1 if backend.is_dual else EXPONENT_LIMIT
    exps = {tuple(rng.choice([0, 1, 2, top - 1, top, rng.randrange(top + 1)]) if not backend.is_dual
                  else rng.randrange(2) for _ in range(backend.nvars)) for _ in range(200)}
    fresh = Backend(backend.kind, backend.names)  # an equal backend packs alike
    for exp in exps:
        k = backend.pack(exp)
        assert type(k) is int and not k & fresh.guard
        assert backend.unpack(k) == exp and fresh.unpack(k) == exp and fresh.pack(exp) == k
    assert sorted(exps) == [backend.unpack(k) for k in sorted(map(backend.pack, exps))]


def test_products_at_the_field_limit_and_past_it():
    B = Backend.free(2, ("x", "y"))
    x, y = Poly.var(B, 0), Poly.var(B, 1)
    top = Poly.monomial(B, (0, EXPONENT_LIMIT - 1)) * y
    assert top.terms == {(0, EXPONENT_LIMIT): 1}
    assert (top * x).terms == {(1, EXPONENT_LIMIT): 1}
    assert top.partial(1).terms == {(0, EXPONENT_LIMIT - 1): EXPONENT_LIMIT}
    # y^(limit + 1) would carry into the field of x: refused, never x * y^0
    with pytest.raises(ModuleError, match=r"exponent %d of y .*\.\.%d \(EXPONENT_LIMIT\)"
                       % (EXPONENT_LIMIT + 1, EXPONENT_LIMIT)):
        top * y
    with pytest.raises(ModuleError, match="EXPONENT_LIMIT"):
        Poly.monomial(B, (EXPONENT_LIMIT + 1, 0)) * x
    with pytest.raises(ModuleError, match="EXPONENT_LIMIT"):
        Poly.monomial(B, (-1, 0)) * x
    # the same guard inside both algebras
    M = hyperbolic_module(2, 1)
    big = RothElement.from_scalar(M, Poly.monomial(M.backend, (0, EXPONENT_LIMIT)))
    with pytest.raises(ModuleError, match="EXPONENT_LIMIT"):
        big.wedge(RothElement.from_scalar(M, Poly.var(M.backend, 1)))
    c = cmaps.Cochain.scalar(M, Poly.monomial(M.backend, (EXPONENT_LIMIT, 0)))
    with pytest.raises(ModuleError, match="EXPONENT_LIMIT"):
        c.scale(Poly.var(M.backend, 0))


@pytest.mark.parametrize("build", [
    lambda: Poly(Backend.free(2), {(-1, 0): 1}),
    lambda: Poly.monomial(Backend.free(2), (EXPONENT_LIMIT + 1, 0)),
    lambda: Poly.monomial(Backend.free(2), (0, -2), Fraction(1, 3)),
    lambda: Poly(Backend.dual(), {(-1,): 1}),
], ids=["negative", "past-limit", "negative-fraction", "dual-negative"])
def test_bad_exponents_are_refused_when_the_poly_is_built(build):
    with pytest.raises(ModuleError, match="EXPONENT_LIMIT"):
        build()


def test_brackets_multiply_packed_keys_only(monkeypatch):
    """Over the thirds/fifths connection, one roth_bracket, one cbracket, a
    nested roth_bracket and the Jacobiator lhs - rhs - t2: every product and
    partial in the layer is on int keys, and neither a Poly nor an exponent
    tuple is made until the `terms` view of a result is read."""
    M, conn = next(denominator_contexts())
    rng = random.Random(127)
    a, b = (random_roth(rng, M, 3, density=1.0).scale(Fraction(1, 3)) for _ in range(2))
    c = random_roth(rng, M, 2, density=1.0).scale(Fraction(2, 5))
    ca, cb = apply_J(a, conn), apply_J(b, conn)
    roth_bracket(a, b, conn)  # the connection's generator table is built once, on first use
    cbracket(ca, cb)  # and so is the module's reference connection, with its tables
    monkeypatch.setattr(cmaps, "_BRACKET_CACHE", cmaps.Memo())
    monkeypatch.setattr(cmaps, "_PREIMAGES", cmaps.Memo())
    keys, made = [], []

    def checked(real):
        def call(*args):
            keys.extend(type(e) for d in args if isinstance(d, dict) for e in d)
            return real(*args)
        return call

    for name in ("_mul_add", "_partial"):
        for module in (poly, modules, rothstein, cmaps):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked(getattr(poly, name)))

    def counted(real, what):
        def call(*args, **kwargs):
            made.append(what)
            return real(*args, **kwargs)
        return call

    for module in (poly, modules, rothstein, cmaps):
        if hasattr(module, "_as_poly"):  # the one factory of a Poly from numerators
            monkeypatch.setattr(module, "_as_poly", counted(poly._as_poly, "_as_poly"))
    monkeypatch.setattr(Poly, "__init__", counted(Poly.__init__, "Poly"))
    monkeypatch.setattr(Backend, "unpack", counted(Backend.unpack, "unpack"))
    out = roth_bracket(a, b, conn), cbracket(ca, cb)
    nested = roth_bracket(a, roth_bracket(b, c, conn), conn)
    rhs = roth_bracket(roth_bracket(a, b, conn), c, conn)
    t2 = -roth_bracket(b, roth_bracket(a, c, conn), conn)  # |a| |b| is odd
    jacobiator = nested - rhs - t2
    assert keys and set(keys) == {int}
    assert made == []
    assert nested.terms and made  # the view is the boundary
    monkeypatch.undo()
    assert jacobiator.is_zero() and not nested.is_zero()
    assert not out[0].is_zero() and not out[1].is_zero()
