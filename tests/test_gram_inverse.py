"""The Faddeev-LeVerrier gram inverse against the cofactor oracle.

`linalg.unit_inverse` must give the cofactor determinant (of the int
numerator matrix, G^r times the gram's) and, through `MetricModule`, the
cofactor inverse with the same int numerators over the same least common
denominators G and H, on seeded unit-determinant grams and on every shared
test context.
"""

import random
import time
from fractions import Fraction

import pytest

import linalg_oracle as oracle
from conftest import denominator_contexts, gram_denominator_contexts, oracle_contexts, random_poly
from courantalg import Backend, MetricModule, ModuleError, Poly, linalg

FREE = Backend.free(2, ("x", "y"))
DUAL = Backend.dual()


def _matmul(a, b):
    zero = Poly.zero(a[0][0].backend)
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            s = zero
            for t, v in enumerate(row):
                s = s + v * b[t][j]
            out[-1].append(s)
    return out


def _unit(rng, backend):
    """A seeded unit: a nonzero rational, plus a multiple of eps over the dual numbers."""
    c = Poly.const(backend, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
    return c + Poly.var(backend, 0).scale(rng.randint(-2, 2)) if backend.is_dual else c


def _seeded_gram(rng, backend, rank):
    """P^T D P, P unitriangular with seeded entries and D diagonal units: symmetric, unit determinant."""
    zero, one = Poly.zero(backend), Poly.one(backend)
    p = [[one if i == j else random_poly(rng, backend, 1, density=0.6) if i < j else zero
          for j in range(rank)] for i in range(rank)]
    d = [[_unit(rng, backend) if i == j else zero for j in range(rank)] for i in range(rank)]
    pt = [list(col) for col in zip(*p)]
    return _matmul(_matmul(pt, d), p)


def _seeded_grams():
    rng = random.Random(211)
    for backend, tag in ((FREE, "free"), (DUAL, "dual")):
        for rank in range(1, 6):
            for k in range(3):
                yield "%s-rank%d-%d" % (tag, rank, k), _seeded_gram(rng, backend, rank)


def _named_grams():
    x, one = Poly.var(FREE, 0), Poly.one(FREE)
    yield "no-unit-entry", [[one + x, x], [x, x - one]]
    yield "unimodular", [[one, x], [x, x * x + one]]


GRAMS = dict(_seeded_grams()) | dict(_named_grams())


@pytest.mark.parametrize("name", list(GRAMS))
def test_determinant_and_inverse_equal_the_cofactor_oracle(name):
    gram = GRAMS[name]
    backend, rank = gram[0][0].backend, len(gram)
    inverse = oracle.poly_inverse(gram)
    expected = oracle.numerators(gram, inverse)
    nums, G = expected[:2]
    det, inv, H = linalg.unit_inverse([{b: v for b, v in enumerate(row) if v} for row in nums], G, backend)
    assert det == oracle.packed(oracle.poly_det(gram).scale(G ** rank))
    assert (inv, H) == expected[2:]
    M = MetricModule(backend, gram)
    assert M.numerators() == expected
    assert [list(row) for row in M.gram_inv] == inverse
    product = _matmul([list(r) for r in M.gram], [list(r) for r in M.gram_inv])
    assert all(v == (Poly.one(backend) if i == j else Poly.zero(backend))
               for i, row in enumerate(product) for j, v in enumerate(row))


def test_seeded_grams_are_not_all_constant():
    grams = [g for name, g in GRAMS.items() if "rank1" not in name]
    assert any(not v.is_constant() for g in grams if g[0][0].backend is FREE for row in g for v in row)
    assert any(1 in oracle.packed(v) for g in grams if g[0][0].backend is DUAL for row in g for v in row)


def _contexts():
    modules = [M for M, _ in oracle_contexts()] + [M for M, _ in denominator_contexts()]
    return modules + [M for _, M, _ in gram_denominator_contexts()]


@pytest.mark.parametrize("index", range(len(_contexts())))
def test_numerators_and_gram_inv_equal_the_cofactor_route_on_every_context(index):
    M = _contexts()[index]
    gram = [list(row) for row in M.gram]
    inverse = oracle.poly_inverse(gram)
    assert M.numerators() == oracle.numerators(gram, inverse)
    assert [list(row) for row in M.gram_inv] == inverse


@pytest.mark.parametrize("backend, entry, message", [
    (FREE, Poly.var(FREE, 0), "gram determinant must be a nonzero rational"),
    (FREE, Poly.zero(FREE), "gram determinant must be a nonzero rational"),
    (DUAL, Poly.var(DUAL, 0), r"gram determinant must be a unit \(invertible constant part\)"),
])
def test_a_gram_without_a_unit_determinant_is_rejected(backend, entry, message):
    with pytest.raises(ModuleError, match=message):
        MetricModule(backend, [[entry]])
    assert linalg.unit_inverse([{0: oracle.packed(entry)} if not entry.is_zero() else {}], 1, backend)[1:] == (None, 1)


def test_a_dense_rank_8_gram_builds_in_under_a_second():
    backend = Backend.free(1)
    two, one = Poly.const(backend, 2), Poly.one(backend)
    gram = [[two if i == j else one for j in range(8)] for i in range(8)]
    start = time.process_time()
    M = MetricModule(backend, gram)
    assert time.process_time() - start < 1
    # the inverse of I + J (J all ones, rank 8) is I - J / 9
    assert M.numerators()[2:] == ([[{0: 8 if i == j else -1} for j in range(8)] for i in range(8)], 9)
