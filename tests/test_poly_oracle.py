"""`Poly` on packed int numerators against the tuple-keyed Fraction oracle.

Seeded operands over free backends with 0 to 3 variables and over the dual
numbers, with coefficients over different denominators and second operands
drawn to cancel part or all of the first: every ring operation, the
derivatives, equality and hashing, the structure queries, the `terms` view
and the text must agree with `poly_oracle.TuplePoly`.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from courantalg import Backend, Poly
from poly_oracle import TuplePoly

BACKENDS = [Backend.free(n) for n in range(4)] + [Backend.dual()]

COEFFICIENTS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))


def _terms(backend):
    # eps^2 enters too over the dual numbers, where it is dropped on construction
    field = st.integers(0, 2) if backend.is_dual else st.integers(0, 3)
    return st.dictionaries(st.tuples(*[field] * backend.nvars), COEFFICIENTS, max_size=5)


def _operands(data):
    """(backend, terms of a, terms of b): b is independent, or -a plus a few terms, or -a."""
    backend = data.draw(st.sampled_from(BACKENDS))
    a = data.draw(_terms(backend))
    kind = data.draw(st.sampled_from(["free", "cancel some", "cancel all"]))
    if kind == "free":
        b = data.draw(_terms(backend))
    else:
        b = {e: -c for e, c in a.items()}
        if kind == "cancel some":
            for e, c in data.draw(_terms(backend)).items():
                b[e] = b.get(e, 0) + c
    return backend, a, b


def _agree(p: Poly, ref: TuplePoly):
    assert p.terms == ref.terms
    assert all(type(c) is Fraction for c in p.terms.values())
    assert str(p) == str(ref)
    assert p.is_zero() == ref.is_zero()
    assert p.is_one() == ref.is_one()
    assert p.is_constant() == ref.is_constant()
    assert p.constant_part() == ref.constant_part()
    assert p.total_degree() == ref.total_degree()
    assert list(p.monomials()) == list(ref.monomials())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_poly_equals_the_tuple_oracle(data):
    backend, ta, tb = _operands(data)
    a, b = Poly(backend, ta), Poly(backend, tb)
    ra, rb = TuplePoly(backend, ta), TuplePoly(backend, tb)
    _agree(a, ra)
    _agree(b, rb)
    _agree(a + b, ra + rb)
    _agree(a - b, ra - rb)
    _agree(-a, -ra)
    _agree(a * b, ra * rb)
    for c in (0, 1, -3, Fraction(2, 3), Fraction(-5, 2)):
        _agree(a.scale(c), ra.scale(c))
        _agree(a * c, ra.scale(c))
    for i in range(backend.nvars):
        _agree(a.partial(i), ra.partial(i))
    for (p, rp), (q, rq) in [((a, ra), (b, rb)), ((a + b, ra + rb), (b + a, rb + ra)),
                             ((a * b - b * a, ra * rb - rb * ra), (Poly.zero(backend), TuplePoly(backend, {})))]:
        assert (p == q) == (rp == rq)
        if p == q:
            assert hash(p) == hash(q)
    # a value reached two ways is stored alike
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert (a.scale(Fraction(1, 3)) * b).scale(3) == a * b
