"""Shared builders for randomized property tests (all explicitly seeded)."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from courantalg import (
    Backend,
    Connection,
    MetricModule,
    ModuleElement,
    Poly,
    RothElement,
    metrize,
)


def random_poly(rng: random.Random, backend: Backend, deg: int, scale: int = 3,
                density: float = 0.5) -> Poly:
    terms = {}
    for exp in itertools.product(range(deg + 1), repeat=backend.nvars):
        if sum(exp) <= deg and rng.random() < density:
            c = rng.randint(-scale, scale)
            if c:
                terms[exp] = Fraction(c)
    if backend.nvars == 0 and rng.random() < density:
        terms[()] = Fraction(rng.randint(-scale, scale))
    return Poly(backend, terms)


def random_module_element(rng: random.Random, module: MetricModule, deg: int = 1) -> ModuleElement:
    return ModuleElement(
        module, [random_poly(rng, module.backend, deg) for _ in range(module.rank)]
    )


def fractional_element(rng: random.Random, module: MetricModule, deg: int) -> ModuleElement:
    """Coefficients with several terms of degree <= deg over denominators 1, 2, 3 and 5, some zero."""
    backend = module.backend
    coeffs = []
    for _ in range(module.rank):
        terms = {}
        if rng.random() < 0.8:
            for exp in itertools.product(range(deg + 1), repeat=backend.nvars):
                if sum(exp) <= deg and rng.random() < 0.6:
                    terms[exp] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 5)))
        coeffs.append(Poly(backend, terms))
    return ModuleElement(module, coeffs)


def random_roth(rng: random.Random, module: MetricModule, degree: int,
                coeff_deg: int = 1, density: float = 0.6) -> RothElement:
    backend = module.backend
    ngen = 1 if backend.is_dual else backend.nvars
    terms = {}
    for p in range(degree // 2 + 1):
        k = degree - 2 * p
        if k > module.rank or (p > 0 and ngen == 0):
            continue
        for sym in itertools.combinations_with_replacement(range(ngen), p):
            for ext in itertools.combinations(range(module.rank), k):
                if rng.random() < density:
                    terms[(sym, ext)] = random_poly(rng, backend, coeff_deg)
    return RothElement(module, terms)


def hyperbolic_module(nvars: int, npairs: int) -> MetricModule:
    backend = Backend.free(nvars)
    rank = 2 * npairs
    zero, one = Poly.zero(backend), Poly.one(backend)
    gram = [[zero] * rank for _ in range(rank)]
    for i in range(npairs):
        gram[i][npairs + i] = one
        gram[npairs + i][i] = one
    return MetricModule(backend, gram)


def curved_connection(module: MetricModule, seed: int = 0) -> Connection:
    """A metric connection with generically nonzero Christoffels."""
    rng = random.Random(seed)
    backend = module.backend
    ngen = 1 if backend.is_dual else backend.nvars
    gamma = []
    for i in range(ngen):
        row = []
        for a in range(module.rank):
            if backend.is_dual:
                eps = Poly.var(backend, 0)
                coeffs = [eps.scale(rng.randint(-2, 2)) for _ in range(module.rank)]
                row.append(ModuleElement(module, coeffs))
            else:
                row.append(random_module_element(rng, module, deg=1))
        gamma.append(row)
    return metrize(Connection(module, gamma))


def oracle_contexts():
    """Curved connections over Q[x1..xn] for n = 0..3 and a curved and a flat
    connection over the dual numbers."""
    for n in range(4):
        M = hyperbolic_module(n, 2 if n < 2 else 1)
        yield M, curved_connection(M, seed=7 + n)
    D = Backend.dual()
    oneD, zeroD = Poly.one(D), Poly.zero(D)
    M = MetricModule(D, [[zeroD, oneD, zeroD], [oneD, zeroD, zeroD], [zeroD, zeroD, oneD]])
    yield M, curved_connection(M, seed=3)
    yield M, Connection.flat(M)


def denominator_contexts():
    """Curved metric connections whose Christoffels have coefficients in
    (1/3)Z and (1/5)Z before `metrize` halves them: over Q[x, y]^4 (hyperbolic,
    degree <= 1 entries) and over the dual numbers (eps-multiple entries on
    the rank-3 module of `oracle_contexts`)."""
    rng = random.Random(53)

    def coefficient():
        return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((3, 5)))

    M = hyperbolic_module(2, 2)
    linear = [(0, 0), (1, 0), (0, 1)]
    gamma = [[ModuleElement(M, [Poly(M.backend, {e: coefficient() for e in linear if rng.random() < 0.6})
                                for _ in range(M.rank)])
              for _ in range(M.rank)]
             for _ in range(M.backend.nvars)]
    yield M, metrize(Connection(M, gamma))
    D = Backend.dual()
    oneD, zeroD, eps = Poly.one(D), Poly.zero(D), Poly.var(D, 0)
    M = MetricModule(D, [[zeroD, oneD, zeroD], [oneD, zeroD, zeroD], [zeroD, zeroD, oneD]])
    gamma = [[ModuleElement(M, [eps.scale(coefficient()) for _ in range(M.rank)]) for _ in range(M.rank)]]
    yield M, metrize(Connection(M, gamma))


def gram_denominator_contexts():
    """(name, module, curved metrized connection) on grams with denominators
    or polynomial entries: diag(3, 1/3) plus a hyperbolic pair over Q[x], the
    unimodular [[1, x], [x, x^2 + 1]] over Q[x], and [[3, eps], [eps, 1/3]]
    plus a unit over the dual numbers."""
    B = Backend.free(1)
    x, one, zero = Poly.var(B, 0), Poly.one(B), Poly.zero(B)
    third = Poly.const(B, Fraction(1, 3))
    thirds = MetricModule(B, [[one.scale(3), zero, zero, zero], [zero, third, zero, zero],
                              [zero, zero, zero, one], [zero, zero, one, zero]])
    yield "thirds-free1", thirds, curved_connection(thirds, seed=41)
    unimodular = MetricModule(B, [[one, x], [x, x * x + one]])
    yield "unimodular-free1", unimodular, curved_connection(unimodular, seed=43)
    D = Backend.dual()
    eps, oneD, zeroD = Poly.var(D, 0), Poly.one(D), Poly.zero(D)
    dual = MetricModule(D, [[oneD.scale(3), eps, zeroD], [eps, Poly.const(D, Fraction(1, 3)), zeroD],
                            [zeroD, zeroD, oneD]])
    yield "thirds-dual", dual, curved_connection(dual, seed=47)


def so3_constants():
    eps3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    return [[[eps3.get((i, j, k), 0) for k in range(3)] for j in range(3)] for i in range(3)]
