"""The connection layer against the Poly oracle (`geometry_oracle`).

`nabla_gen`, `is_metric`, `metrize`, `curvature` and `ConnectionChange`
work on int numerators through one metric defect and one skew raise; the
oracle takes the coordinate-wise Poly routes and checks each curvature
through the pairing on the exterior square.  They must agree exactly on
seeded contexts: Q[x], Q[x, y] and Q[x, y, z] at ranks 2-6 with constant
and non-constant grams, grams and Christoffels over denominators, the dual
numbers with eps-multiple Christoffels and the gram 1 + eps, and flat
connections.  A gram is U^T D U for a unitriangular U, so its determinant
is the constant det D: D carries the denominators and U the polynomial
entries.
"""

import itertools
import random
from fractions import Fraction

import pytest

import geometry_oracle as oracle
from courantalg import Backend, Connection, ConnectionChange, MetricModule, ModuleElement, Poly, curvature, metrize

from conftest import fractional_element, random_roth

DIAGONAL = (1, -1, 2, Fraction(1, 3), Fraction(-1, 2), 3)


def _entry(rng: random.Random, backend: Backend, poly: bool) -> Poly:
    """A sparse entry: a rational over denominators 1, 2, 3, plus a variable times one when poly."""
    terms = {}
    if rng.random() < 0.5:
        terms[(0,) * backend.nvars] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
    if poly and backend.nvars and rng.random() < 0.5:
        exp = [0] * backend.nvars
        exp[rng.randrange(backend.nvars)] = 1
        terms[tuple(exp)] = Fraction(rng.choice((-1, 1, 2)))
    return Poly(backend, terms)


def _gram_module(rng: random.Random, backend: Backend, rank: int, poly: bool) -> MetricModule:
    """U^T D U, U unitriangular with sparse entries above the diagonal, the
    last entry of its first row a variable plus that entry when poly."""
    zero, one = Poly.zero(backend), Poly.one(backend)
    U = [[one if a == b else _entry(rng, backend, poly) if a < b and rng.random() < 0.4 else zero
          for b in range(rank)] for a in range(rank)]
    if poly:
        U[0][rank - 1] = U[0][rank - 1] + Poly.var(backend, rank % backend.nvars)
    D = [Poly.const(backend, DIAGONAL[a]) for a in range(rank)]
    gram = [[sum((U[c][a] * D[c] * U[c][b] for c in range(rank)), zero) for b in range(rank)]
            for a in range(rank)]
    return MetricModule(backend, gram)


def _raw_connection(rng: random.Random, module: MetricModule, degree: int) -> Connection:
    """Christoffels over denominators 1, 2, 3 and 5, eps-multiples over the dual numbers."""
    backend = module.backend
    if backend.is_dual:
        eps = Poly.var(backend, 0)
        return Connection(module, [[ModuleElement(module, [eps.scale(Fraction(rng.randint(-2, 2), rng.choice((1, 3))))
                                                           for _ in range(module.rank)])
                                    for _ in range(module.rank)]])
    return Connection(module, [[fractional_element(rng, module, degree) for _ in range(module.rank)]
                               for _ in range(backend.nvars)])


def _dual_module(rank: int) -> MetricModule:
    """The gram 1 + eps on e_1, a hyperbolic pair and units after it."""
    D = Backend.dual()
    zero, one, eps = Poly.zero(D), Poly.one(D), Poly.var(D, 0)
    gram = [[zero] * rank for _ in range(rank)]
    gram[0][0] = one + eps
    for a in range(1, rank):
        gram[a][a] = one
    if rank >= 3:
        gram[1][1] = gram[2][2] = zero
        gram[1][2] = gram[2][1] = one
    return MetricModule(D, gram)


def _contexts():
    """name -> (module, seed, Christoffel degree): every free backend and rank
    with a constant and a non-constant gram, and the dual numbers at ranks 1-4."""
    out = {}
    for nvars, rank, poly in itertools.product((1, 2, 3), range(2, 7), (False, True)):
        seed = 100 * nvars + 10 * rank + poly
        rng = random.Random(seed)
        module = _gram_module(rng, Backend.free(nvars), rank, poly)
        name = "free%d-rank%d-%s" % (nvars, rank, "poly" if poly else "const")
        out[name] = (module, seed, 1 if rank > 4 else 2)
    for rank in range(1, 5):
        out["dual-rank%d" % rank] = (_dual_module(rank), 500 + rank, 1)
    return out


CONTEXTS = _contexts()


def _connections(name):
    """(module, [raw, flat], [metrize(raw), metrize(flat)]) of one context."""
    module, seed, degree = CONTEXTS[name]
    raw = _raw_connection(random.Random(seed), module, degree)
    flat = Connection.flat(module)
    return module, [raw, flat], [metrize(raw), metrize(flat)]


def test_the_contexts_cover_both_verdicts_and_both_gram_kinds():
    verdicts = set()
    for name in CONTEXTS:
        module, raws, metric = _connections(name)
        verdicts.update(c.is_metric() for c in raws)
        constant = all(v.is_constant() for row in module.gram for v in row)
        assert constant == ("const" in name), name
        if module.backend.is_dual:
            assert module.gram[0][0] == Poly.one(module.backend) + Poly.var(module.backend, 0)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_is_metric_and_metrize_match_the_oracle(name):
    module, raws, metric = _connections(name)
    for raw, fixed in zip(raws, metric):
        assert raw.is_metric() == oracle.is_metric(raw)
        assert fixed == oracle.metrize(raw)
        assert fixed.is_metric() and oracle.is_metric(fixed)
        assert metrize(fixed) == fixed


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_nabla_gen_matches_the_oracle(name):
    module, raws, metric = _connections(name)
    rng = random.Random(len(name))
    elements = [fractional_element(rng, module, 2) for _ in range(3)] + [module.zero(), module.basis(0)]
    for conn in raws + metric:
        for i, x in itertools.product(range(len(conn.gamma)), elements):
            assert conn.nabla_gen(i, x) == oracle.nabla_gen(conn, i, x)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_curvature_matches_the_oracle(name):
    # the oracle checks its table through the pairing on the exterior square
    module, raws, metric = _connections(name)
    for conn in metric:
        assert curvature(conn).table == oracle.curvature_table(conn)
    curved = metric[0]
    if module.backend.nvars > 1:
        assert curvature(curved).table, "the seeded connection should be curved"


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_connection_change_matches_the_oracle(name):
    module, raws, metric = _connections(name)
    rng = random.Random(7 * len(name))
    phis = [random_roth(rng, module, degree) for degree in (2, 3, 4)]
    for source, target in itertools.permutations(metric, 2):
        change, table = ConnectionChange(source, target), oracle.t_table(source, target)
        assert change.t_table == table
        for phi in phis:
            assert change.apply_t(phi) == oracle.apply_t(table, phi)
