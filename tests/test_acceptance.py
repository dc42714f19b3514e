"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (zero tolerance); the stated wall-clock budgets are
asserted.  Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from courantalg import (
    Backend,
    Cochain,
    Connection,
    ConnectionChange,
    DeformationSeries,
    Derivation,
    MetricModule,
    ModuleElement,
    MultiDerivation,
    Poly,
    RothElement,
    apply_J,
    cbracket,
    chat_membership,
    cmap_verify,
    cmap_wedge,
    cohomology_dims,
    delta_squared_is_zero,
    derived_bracket,
    dorfman_bracket,
    inner,
    make_quadratic_lie,
    make_standard_courant,
    mc_bruteforce_orders,
    mc_extend,
    mc_obstruction,
    mc_series_valid,
    metrize,
    roth_bracket,
    verify_courant,
)
from courantalg.cmaps import probe_elements, quartic_from_biderivation
from courantalg.deform import delta_block, lie_algebra_center_dim
from courantalg.rothstein import nested_bracket_with_scalars

from conftest import curved_connection, denominator_contexts, random_roth, so3_constants


SCALES = (Fraction(1), Fraction(-1, 3), Fraction(2, 5))


def _report(name, ok, seconds):
    print("\nACCEPTANCE %-38s %s  (%.1fs)" % (name, "PASS" if ok else "FAIL", seconds), flush=True)
    assert ok


def _context(nvars, rank, seed):
    """A hyperbolic (odd rank: plus a unit line) module with a curved metric connection."""
    backend = Backend.free(nvars)
    zero, one = Poly.zero(backend), Poly.one(backend)
    gram = [[zero] * rank for _ in range(rank)]
    for i in range(rank // 2):
        gram[i][rank // 2 + i] = one
        gram[rank // 2 + i][i] = one
    if rank % 2:
        gram[rank - 1][rank - 1] = one
    module = MetricModule(backend, gram)
    if nvars == 0:
        return module, Connection.flat(module)
    return module, curved_connection(module, seed=seed)


def test_criterion_1_graded_jacobi_suite():
    """Jacobiators of both brackets vanish exactly on randomized triples."""
    start = time.monotonic()
    rng = random.Random(101)

    # connection-side bracket: total degree <= 6
    module6, conn6 = _context(2, 4, seed=1)
    count = 0
    while count < 200:
        r, s, t = (rng.randint(1, 4) for _ in range(3))
        if r + s + t > 6:
            continue
        count += 1
        a = random_roth(rng, module6, r, coeff_deg=2)
        b = random_roth(rng, module6, s, coeff_deg=2)
        c = random_roth(rng, module6, t, coeff_deg=2)
        lhs = roth_bracket(a, roth_bracket(b, c, conn6), conn6)
        rhs = roth_bracket(roth_bracket(a, b, conn6), c, conn6)
        t2 = roth_bracket(b, roth_bracket(a, c, conn6), conn6)
        if (r * s) % 2:
            t2 = -t2
        assert (lhs - rhs - t2).is_zero()

    # the same on a connection with Christoffels in 1/3 and 1/5 before
    # metrize, on elements scaled by thirds and fifths (own seed, so the
    # draws below are unchanged)
    module_q, conn_q = next(denominator_contexts())
    rng_q = random.Random(103)
    count = 0
    while count < 40:
        r, s, t = (rng_q.randint(1, 4) for _ in range(3))
        if r + s + t > 6:
            continue
        count += 1
        a, b, c = (random_roth(rng_q, module_q, d, coeff_deg=2).scale(rng_q.choice(SCALES))
                   for d in (r, s, t))
        lhs = roth_bracket(a, roth_bracket(b, c, conn_q), conn_q)
        rhs = roth_bracket(roth_bracket(a, b, conn_q), c, conn_q)
        t2 = roth_bracket(b, roth_bracket(a, c, conn_q), conn_q)
        if (r * s) % 2:
            t2 = -t2
        assert (lhs - rhs - t2).is_zero()

    # complex-side bracket: degrees <= 4 over the allowed family, weighted so
    # the suite fits its budget while still reaching every corner
    light = [(0, 2), (0, 3), (1, 2)]
    medium = [(1, 3), (2, 2), (0, 4)]
    contexts = {}

    def ctx(key):
        if key not in contexts:
            contexts[key] = _context(key[0], key[1], seed=1 + key[0] + 10 * key[1])
        return contexts[key]

    def jac(module, conn, degs):
        a, b, c = (apply_J(random_roth(rng, module, d, coeff_deg=2), conn) for d in degs)
        lhs = cbracket(a, cbracket(b, c))
        rhs = cbracket(cbracket(a, b), c)
        t2 = cbracket(b, cbracket(a, c))
        if (degs[0] * degs[1]) % 2:
            t2 = -t2
        assert lhs == rhs + t2

    done = 0
    for _ in range(158):
        module, conn = ctx(light[rng.randrange(len(light))])
        jac(module, conn, tuple(rng.randint(1, 3) for _ in range(3)))
        done += 1
    for _ in range(34):
        module, conn = ctx(medium[rng.randrange(len(medium))])
        degs = [rng.randint(1, 3) for _ in range(3)]
        if rng.random() < 0.4:
            degs[rng.randrange(3)] = 4
        jac(module, conn, tuple(degs))
        done += 1
    # corners of the family: degree 4 at rank 4, and the two-variable rank-4 module
    for key, degs in [((1, 4), (4, 2, 2)), ((1, 4), (1, 4, 3)), ((2, 3), (4, 2, 1)),
                      ((2, 3), (2, 3, 3)), ((2, 4), (2, 2, 2)), ((2, 4), (3, 2, 1)),
                      ((1, 3), (4, 4, 1)), ((0, 4), (4, 3, 3))]:
        module, conn = ctx(key)
        jac(module, conn, degs)
        done += 1
    # more degree-4 triples, and two-variable rank-4 triples of every degree
    for key, degs in [((2, 4), (2, 4, 1)), ((2, 4), (1, 1, 4)), ((2, 4), (4, 1, 1)),
                      ((2, 4), (1, 2, 3)), ((2, 4), (3, 1, 3)), ((2, 4), (1, 3, 2)),
                      ((2, 4), (1, 3, 3)), ((1, 4), (4, 1, 2)), ((1, 3), (4, 2, 3))]:
        module, conn = ctx(key)
        jac(module, conn, degs)
        done += 1
    assert done >= 200
    seconds = time.monotonic() - start
    _report("1 graded Jacobi suite", seconds < 60, seconds)


def test_criterion_2_dual_implementation_oracle():
    """Shuffle = recursive wedge; J intertwines both operations."""
    start = time.monotonic()
    rng = random.Random(102)
    module, conn = _context(1, 2, seed=2)
    backend = module.backend
    x = Poly.var(backend, 0)

    # all generator-level inputs with r+s <= 5: wedge-monomials in the
    # degree <= 2 generators with unit and single-variable coefficients
    def monomials_of_degree(r):
        out = []
        for p in range(r // 2 + 1):
            k = r - 2 * p
            if k > module.rank:
                continue
            for sym in itertools.combinations_with_replacement(range(backend.nvars), p):
                for ext in itertools.combinations(range(module.rank), k):
                    for coeff in (Poly.one(backend), x):
                        out.append(RothElement(module, {(sym, ext): coeff}))
        return out

    pairs = 0
    for r in range(1, 5):
        for s in range(1, 5):
            if r + s > 5:
                continue
            for phi in monomials_of_degree(r):
                for psi in monomials_of_degree(s):
                    a, b = apply_J(phi, conn), apply_J(psi, conn)
                    assert cmap_wedge(a, b, "recursive") == cmap_wedge(a, b, "shuffle")
                    pairs += 1
    assert pairs > 0

    intertwined = 0
    while intertwined < 100:
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        phi, psi = random_roth(rng, module, r), random_roth(rng, module, s)
        Jphi, Jpsi = apply_J(phi, conn), apply_J(psi, conn)
        assert apply_J(phi.wedge(psi), conn) == cmap_wedge(Jphi, Jpsi, "recursive")
        assert apply_J(roth_bracket(phi, psi, conn), conn) == cbracket(Jphi, Jpsi)
        intertwined += 1
    seconds = time.monotonic() - start
    _report("2 dual-implementation oracle", True, seconds)


def test_criterion_3_courant_verification_equivalence():
    """Axiom route and self-bracket route agree, including on mutations."""
    start = time.monotonic()
    gram = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    so3 = make_quadratic_lie(so3_constants(), gram)
    for cs in (so3, make_standard_courant(1), make_standard_courant(2)):
        ok, report = verify_courant(cs.cochain)
        assert ok and report["agree"]

    rng = random.Random(103)
    module = so3.module
    backend = module.backend
    mutations = 0
    while mutations < 100:
        levels = {p: dict(t) for p, t in so3.cochain.levels.items()}
        lvl0 = dict(levels[0])
        key = rng.choice(sorted(
            set(itertools.product([()], itertools.product(range(3), repeat=3)))
        ))
        delta = Poly.const(backend, rng.choice([1, -1, 2, Fraction(1, 2)]))
        lvl0[key] = lvl0.get(key, Poly.zero(backend)) + delta
        levels[0] = lvl0
        mutated = Cochain(module, 3, levels)
        if mutated == so3.cochain:
            continue
        mutations += 1
        ok, report = verify_courant(mutated)
        assert not ok
        assert report["agree"]
    seconds = time.monotonic() - start
    _report("3 verification equivalence + mutations", True, seconds)


def test_criterion_4_derived_bracket_is_dorfman():
    """Derived bracket equals the independent Dorfman evaluator, exactly."""
    start = time.monotonic()
    for n in (1, 2):
        cs = make_standard_courant(n)
        module = cs.module
        probes = probe_elements(module, 2)  # basis and monomial multiples, degree <= 2
        for u in probes:
            for v in probes:
                assert derived_bracket(cs, u, v) == dorfman_bracket(module, n, u, v)
    seconds = time.monotonic() - start
    _report("4 derived bracket = Dorfman", True, seconds)


def test_criterion_5_image_counterexample():
    """The dual-number quartic is a complex element outside the image; degree 3 is full."""
    start = time.monotonic()
    backend = Backend.dual()
    eps = Poly.var(backend, 0)
    one = Poly.one(backend)
    module = MetricModule(backend, [[one]])
    conn = Connection.flat(module)
    P = MultiDerivation(backend, 2, {(0, 0): eps})
    bad = quartic_from_biderivation(module, P)
    ok, _ = cmap_verify(bad)
    assert ok
    res = chat_membership(bad, conn)
    assert not res["member"] and res["conclusive"] and res["certificate"]

    # degree 3 is exhausted by the image: raw random elements built from the
    # general tail parametrization (not through the map being tested)
    rng = random.Random(105)
    hyper = MetricModule(backend, [[Poly.zero(backend), one], [one, Poly.zero(backend)]])
    hconn = Connection.flat(hyper)
    for module3, conn3 in ((module, conn), (hyper, hconn)):
        for _ in range(10):
            tail = ModuleElement(
                module3,
                [Poly.const(backend, rng.randint(-3, 3)) for _ in range(module3.rank)],
            )
            values = {}
            symbols = {}
            basis = module3.basis_elements()
            for a in range(module3.rank):
                symbols[(a,)] = Derivation(backend, inner(tail, basis[a]).constant_part())
                for b in range(module3.rank):
                    # flat connection: the wedge part vanishes on basis tuples
                    values[(a, b)] = module3.zero()
            raw = Cochain.from_tables(module3, 3, values, symbols)
            okv, _ = cmap_verify(raw)
            assert okv
            res3 = chat_membership(raw, conn3)
            assert res3["member"]
            assert apply_J(res3["preimage"], conn3) == raw
    seconds = time.monotonic() - start
    _report("5 image counterexample over dual numbers", seconds < 5, seconds)


def test_criterion_6_connection_independence():
    """exp(t) intertwines the brackets of two independently metrized connections."""
    start = time.monotonic()
    backend = Backend.free(1, ("x",))
    x = Poly.var(backend, 0)
    zero, one = Poly.zero(backend), Poly.one(backend)
    module = MetricModule(backend, [[zero, one], [one, zero]])
    connA = metrize(Connection(module, [[module.basis(0).scale(x), module.zero()]]))
    connB = metrize(Connection(module, [[module.basis(1).scale(x * x), module.basis(0)]]))
    assert connA != connB
    change = ConnectionChange(connA, connB)
    rng = random.Random(106)
    pairs = 0
    while pairs < 100:
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        phi, psi = random_roth(rng, module, r), random_roth(rng, module, s)
        assert change.exp_t(roth_bracket(phi, psi, connA)) == \
            roth_bracket(change.exp_t(phi), change.exp_t(psi), connB)
        pairs += 1
    seconds = time.monotonic() - start
    _report("6 connection independence", True, seconds)


def _independent_chain_count(module, r, d):
    """Count the (r, d) block basis arithmetically, without enumerating it."""
    backend = module.backend
    nvars = backend.nvars
    total = 0
    for p in range(r // 2 + 1):
        k = r - 2 * p
        if k > module.rank or (p > 0 and nvars == 0):
            continue
        n_sym = 1
        if p > 0:
            # multisets of size p from nvars generators
            from math import comb

            n_sym = comb(nvars + p - 1, p)
        from math import comb

        for ext in itertools.combinations(range(module.rank), k):
            need = d + p - sum(module.internal_degrees[a] for a in ext)
            if need < 0:
                continue
            n_mono = comb(nvars + need - 1, need) if nvars else (1 if need == 0 else 0)
            total += n_sym * n_mono
    return total


def test_criterion_7_cohomology_sanity():
    """so(3) dims against the center oracle; exact block structure for the standard case."""
    start = time.monotonic()
    gram = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    so3 = make_quadratic_lie(so3_constants(), gram)
    dims = cohomology_dims(so3, range(0, 2), [0])
    assert dims[(0, 0)]["dim"] == 1
    assert dims[(1, 0)]["dim"] == 0 == lie_algebra_center_dim(so3_constants())

    cs = make_standard_courant(1)
    r_lo, r_hi = 0, 5
    d_range = range(-3, 4)
    for d in d_range:
        for r in range(r_lo, r_hi):
            assert delta_squared_is_zero(cs, r, d)
    table = cohomology_dims(cs, range(r_lo, r_hi + 1), d_range)
    for d in d_range:
        # Euler characteristic over the truncated range: the alternating sum
        # of cohomology dims equals the alternating sum of chain dims up to
        # the two boundary ranks
        chi_h = sum((-1) ** r * table[(r, d)]["dim"] for r in range(r_lo, r_hi + 1))
        chi_c = sum((-1) ** r * _independent_chain_count(cs.module, r, d)
                    for r in range(r_lo, r_hi + 1))
        top_rank = table[(r_hi, d)]["rank_out"]
        bottom_rank = table[(r_lo, d)]["rank_in"]
        assert chi_h == chi_c - (-1) ** r_hi * top_rank - (-1) ** r_lo * bottom_rank
        for r in range(r_lo, r_hi + 1):
            assert table[(r, d)]["chain_dim"] == _independent_chain_count(cs.module, r, d)
    seconds = time.monotonic() - start
    _report("7 cohomology sanity", seconds < 120, seconds)


def test_criterion_8_maurer_cartan():
    """Obstructions are exact cocycles; acceptance matches brute-force expansion."""
    start = time.monotonic()
    rng = random.Random(108)
    cs = make_standard_courant(1)
    conn = cs.connection

    def gauge_series(xi, order):
        out = []
        term = cs.theta
        fact = 1
        for j in range(1, order + 1):
            term = roth_bracket(xi, term, conn)
            fact *= j
            out.append(term.scale(Fraction(1, fact)))
        return out

    for k in (1, 2, 3):
        for _ in range(4):
            xi = random_roth(rng, cs.module, 2)
            coeffs = gauge_series(xi, k + 1)
            series = DeformationSeries(cs, coeffs[:k])
            ok, _ = mc_series_valid(series)
            assert ok
            obs, cocycle = mc_obstruction(series)
            assert cocycle  # delta of the obstruction vanishes exactly
            accepted = mc_extend(series, coeffs[k])
            brute = mc_bruteforce_orders(series, coeffs[k])
            assert accepted == brute[-1] and accepted
            # a perturbation that is certifiably not closed must be refused,
            # and the per-order check must agree with the brute-force square
            while True:
                pert = random_roth(rng, cs.module, 3)
                if not roth_bracket(cs.theta, pert, conn).is_zero():
                    break
            wrong = coeffs[k] + pert
            accepted_wrong = mc_extend(series, wrong)
            brute_wrong = mc_bruteforce_orders(series, wrong)
            assert accepted_wrong == brute_wrong[-1]
            assert not accepted_wrong
    # the zero series accepts exactly the cocycles
    zero_series = DeformationSeries(cs, [RothElement.zero(cs.module)])
    for _ in range(5):
        cocycle = roth_bracket(cs.theta, random_roth(rng, cs.module, 2), conn)
        assert mc_extend(zero_series, cocycle)
    seconds = time.monotonic() - start
    _report("8 Maurer-Cartan", True, seconds)
