"""Derivations by their values on the generators against the coordinate oracle.

The library stores a `Derivation` and a `MultiDerivation` by their values on
the algebra generators and evaluates them, and a cochain's tower levels, by
one chain-rule expansion.  `derivation_oracle` keeps the coordinate format
and the recursive Leibniz expansion.  On seeded random inputs over Q[x, y]
and over the dual numbers, both must agree on application, `+`, `-`,
negation, `scale`, `commutator`, `==`, the hash and the repr, on
`sym_product_of_derivations` for p = 1..3, on multiderivations at arguments
that are no generators, and on `eval_level` (algebra arguments of degree
>= 2) and `Cochain.symbol` of J-images.
"""

import random
from fractions import Fraction

import pytest

import derivation_oracle as oracle
from courantalg import (
    Backend,
    Derivation,
    MetricModule,
    MultiDerivation,
    Poly,
    apply_J,
    sym_product_of_derivations,
)
from courantalg.cmaps import quartic_from_biderivation

from conftest import curved_connection, hyperbolic_module, random_module_element, random_poly, random_roth

FREE2 = Backend.free(2)
DUAL = Backend.dual()
BACKENDS = {"free2": FREE2, "dual": DUAL}


def _coordinates(rng: random.Random, backend: Backend):
    """Seeded coordinates in the oracle's format, small enough that equal pairs occur."""
    if backend.is_dual:
        return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
    return tuple(random_poly(rng, backend, 1, scale=1, density=0.4) for _ in range(backend.nvars))


def _pair(rng: random.Random, backend: Backend):
    coords = _coordinates(rng, backend)
    return Derivation(backend, coords), oracle.OracleDerivation(backend, coords)


def _agree(d: Derivation, o: oracle.OracleDerivation):
    assert d.coeffs == o.coordinate_polys()
    assert d == Derivation(o.backend, o.coeffs)
    assert repr(d) == repr(o)


def _scalar(rng: random.Random, backend: Backend) -> Poly:
    return random_poly(rng, backend, 3 if not backend.is_dual else 1, scale=4, density=0.6)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_derivation_operations_match_the_oracle(name):
    backend = BACKENDS[name]
    rng = random.Random(101)
    equal_pairs = 0
    for _ in range(80):
        (d1, o1), (d2, o2) = _pair(rng, backend), _pair(rng, backend)
        _agree(d1, o1)
        a = _scalar(rng, backend)
        assert d1(a) == o1(a)
        _agree(d1 + d2, o1 + o2)
        _agree(d1 - d2, o1 - o2)
        _agree(-d1, -o1)
        _agree(d1.scale(a), o1.scale(a))
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        _agree(d1.scale(q), o1.scale(q))
        _agree(d1.commutator(d2), o1.commutator(o2))
        assert (d1 == d2) == (o1 == o2)
        assert d1.is_zero() == o1.is_zero()
        equal_pairs += d1 == d2
        assert d1 + d2 == d2 + d1 and hash(d1 + d2) == hash(d2 + d1)
        assert hash((d1 + d2) - d2) == hash(d1) and (d1 + d2) - d2 == d1
    assert equal_pairs  # the comparison saw both verdicts


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_sym_product_matches_the_oracle(name):
    backend = BACKENDS[name]
    rng = random.Random(102)
    for p in (1, 2, 3):
        for _ in range(6):
            pairs = [_pair(rng, backend) for _ in range(p)]
            got = sym_product_of_derivations([d for d, _ in pairs])
            assert got == oracle.sym_product([o for _, o in pairs])


def _random_table(rng: random.Random, backend: Backend, arity: int) -> dict:
    ngen = backend.nvars
    table = {}
    for _ in range(3):
        gens = tuple(sorted(rng.randrange(ngen) for _ in range(arity)))
        if backend.is_dual:
            table[gens] = Poly.var(backend, 0).scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        else:
            table[gens] = random_poly(rng, backend, 2)
    return table


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_multiderivation_on_non_generators_matches_the_oracle(name):
    backend = BACKENDS[name]
    rng = random.Random(103)
    for arity in (1, 2, 3):
        for _ in range(8):
            P = MultiDerivation(backend, arity, _random_table(rng, backend, arity))
            for _ in range(6):
                args = [random_poly(rng, backend, rng.randint(0, 3)) + Poly.var(backend, rng.randrange(backend.nvars))
                        for _ in range(arity)]
                assert P(*args) == oracle.multiderivation_eval(P, args)


def _dual_module() -> MetricModule:
    one, zero = Poly.one(DUAL), Poly.zero(DUAL)
    return MetricModule(DUAL, [[zero, one, zero], [one, zero, zero], [zero, zero, one]])


MODULES = {"free2": lambda: hyperbolic_module(2, 1), "free1": lambda: hyperbolic_module(1, 2), "dual": _dual_module}


def _images(name: str, seed: int):
    module = MODULES[name]()
    conn = curved_connection(module, seed=seed)
    rng = random.Random(seed)
    return module, rng, [apply_J(random_roth(rng, module, d, density=1.0), conn) for d in (2, 3, 4, 5)]


def _algebra_argument(rng: random.Random, backend: Backend) -> Poly:
    """A seeded algebra element of degree >= 2 over Q[x] (not a generator), any
    element over Q[eps]; its partials have unequal denominators."""
    a = random_poly(rng, backend, 2).scale(Fraction(1, rng.choice((2, 3))))
    return a + Poly.var(backend, 0) * (Poly.one(backend) if backend.is_dual else Poly.var(backend, backend.nvars - 1))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_eval_level_matches_the_oracle(name):
    module, rng, images = _images(name, 104)
    backend = module.backend
    for c in images:
        for p in range(c.degree // 2 + 1):
            for _ in range(3):
                gen_args = tuple(_algebra_argument(rng, backend) for _ in range(p))
                mod_args = tuple(random_module_element(rng, module) for _ in range(c.degree - 2 * p))
                assert c.eval_level(p, gen_args, mod_args) == oracle.eval_level(c, p, gen_args, mod_args)


def test_eval_level_of_the_dual_quartic_matches_the_oracle():
    module = MetricModule(DUAL, [[Poly.one(DUAL)]])
    c = quartic_from_biderivation(module, MultiDerivation(DUAL, 2, {(0, 0): Poly.var(DUAL, 0)}))
    rng = random.Random(105)
    for _ in range(10):
        gen_args = tuple(random_poly(rng, DUAL, 1, density=0.8) for _ in range(2))
        assert c.eval_level(2, gen_args, ()) == oracle.eval_level(c, 2, gen_args, ())


@pytest.mark.parametrize("name", sorted(MODULES))
def test_symbol_matches_the_oracle(name):
    module, rng, images = _images(name, 106)
    for c in images:
        for _ in range(3):
            args = tuple(random_module_element(rng, module) for _ in range(c.degree - 2))
            expected = oracle.symbol(c, args)
            got = c.symbol(args)
            _agree(got, expected)
            a = _algebra_argument(rng, module.backend)
            assert got(a) == expected(a)
