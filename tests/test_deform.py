import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from courantalg import (
    AlgebraMap,
    Backend,
    Cochain,
    Connection,
    DeformationSeries,
    MetricModule,
    ModuleElement,
    ModuleError,
    ModuleMap,
    Poly,
    RothElement,
    apply_J,
    cbracket,
    cohomology_dims,
    deformation_differential,
    delta_squared_is_zero,
    delta_squared_witness,
    derived_bracket,
    dorfman_bracket,
    inner,
    make_quadratic_lie,
    make_standard_courant,
    mc_bruteforce_orders,
    mc_extend,
    mc_obstruction,
    mc_series_valid,
    roth_bracket,
    verify_courant,
    verify_morphism,
)
from courantalg import deform
from courantalg.deform import delta_block, enumerate_chain_basis, lie_algebra_center_dim, mc_residuals
from courantalg.cmaps import cmap_verify, probe_elements
from courantalg.poly import EXPONENT_LIMIT
from courantalg.textforms import parse_roth_term

from conftest import random_roth, so3_constants
from differential_oracle import roth_internal_degrees

RESULTS = Path(__file__).resolve().parent.parent / "docs" / "results"


def so3_structure():
    gram = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return make_quadratic_lie(so3_constants(), gram)


def so3_sum_structure():
    """so(3) + so(3) with the sum of the two invariant forms."""
    eps = so3_constants()
    pair = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for i, j, k in itertools.product(range(3), repeat=3):
        pair[i][j][k] = pair[i + 3][j + 3][k + 3] = eps[i][j][k]
    return make_quadratic_lie(pair, [[int(i == j) for j in range(6)] for i in range(6)])


# -- constructors -----------------------------------------------------------------


def test_standard_structure_examples():
    cs = make_standard_courant(1)
    M = cs.module
    x = Poly.var(M.backend, 0)
    e, f = M.basis(0), M.basis(1)
    m = cs.cochain
    assert m(e, f).is_zero()                         # constant sections
    assert m(e, f.scale(x)) == f                     # the Lie-derivative term
    assert m(f, e.scale(x)).is_zero()                # no contraction against d(dx)
    assert m(e.scale(x), f) == f                     # Dorfman oracle fixes the value
    # anchor projects onto the vector-field block, positively
    assert cs.anchor[0](x).is_one()
    assert cs.anchor[1](x).is_zero()
    assert roth_bracket(cs.theta, cs.theta, cs.connection).is_zero()


def test_standard_matches_dorfman_on_probes():
    for n in (1, 2):
        cs = make_standard_courant(n)
        M = cs.module
        probes = probe_elements(M, 2)
        for u, v in itertools.product(probes, repeat=2):
            assert derived_bracket(cs, u, v) == dorfman_bracket(M, n, u, v)


def test_quadratic_lie_constructor():
    cs = so3_structure()
    assert cs.cochain(cs.module.basis(0), cs.module.basis(1)) == cs.module.basis(2)
    assert all(d.is_zero() for d in cs.anchor)  # skew bracket has zero anchor
    abelian = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    flat = make_quadratic_lie(abelian, [[1, 0], [0, 1]])
    assert flat.cochain.is_zero()
    with pytest.raises(ValueError):
        make_quadratic_lie(so3_constants(), [[1, 0, 0], [0, 1, 0], [0, 0, 2]])


def test_quadratic_lie_rejects_non_jacobi():
    bad = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    bad[0][1] = [1, 0]
    bad[1][0] = [-1, 0]
    # antisymmetric and gram-invariant only for suitable gram; pick one where
    # invariance fails first to exercise that error too
    with pytest.raises(ValueError):
        make_quadratic_lie(bad, [[1, 0], [0, 1]])


# -- verification -----------------------------------------------------------------


def test_verify_routes_agree_on_structures():
    for cs in (so3_structure(), make_standard_courant(1)):
        ok, report = verify_courant(cs.cochain)
        assert ok and report["agree"]


def test_verify_routes_agree_on_standard_n3():
    ok, report = verify_courant(make_standard_courant(3).cochain)
    assert ok and report["axiom_route"] and report["bracket_route"] and report["agree"]


def test_verify_detects_mutations():
    cs = so3_structure()
    M = cs.module
    rng = random.Random(1)
    disagreements = 0
    for _ in range(25):
        levels = {p: dict(t) for p, t in cs.cochain.levels.items()}
        lvl0 = dict(levels[0])
        key = rng.choice(sorted(lvl0))
        lvl0[key] = lvl0[key] + Poly.const(M.backend, rng.choice([1, -1, 2]))
        levels[0] = lvl0
        mutated = Cochain(M, 3, levels)
        ok, report = verify_courant(mutated)
        assert not ok
        if not report["agree"]:
            disagreements += 1
    assert disagreements == 0


def test_verifiers_refuse_negative_depth():
    # at depth -1 there are no probes, so a broken table would pass the
    # axiom route vacuously
    cs = so3_structure()
    M = cs.module
    levels = {p: dict(t) for p, t in cs.cochain.levels.items()}
    key = ((), (0, 1, 0))
    levels[0][key] = levels[0].get(key, Poly.zero(M.backend)) + Poly.one(M.backend)
    broken = Cochain(M, 3, levels)
    for check in (lambda: probe_elements(M, -1),
                  lambda: cmap_verify(broken, depth=-1),
                  lambda: verify_courant(broken, depth=-1)):
        with pytest.raises(ValueError):
            check()
    assert not verify_courant(broken, depth=0)[0]


def test_derived_bracket_reproduces_table_and_leibniz():
    cs = so3_structure()
    M = cs.module
    for i in range(3):
        for j in range(3):
            assert derived_bracket(cs, M.basis(i), M.basis(j)) == cs.cochain(M.basis(i), M.basis(j))
    std = make_standard_courant(1)
    Ms = std.module
    x = Poly.var(Ms.backend, 0)
    probes = probe_elements(Ms, 1)
    for u, v in itertools.product(probes[:4], repeat=2):
        lhs = derived_bracket(std, u, v.scale(x))
        rhs = derived_bracket(std, u, v).scale(x) + v.scale(std.cochain.symbol((u,))(x))
        assert lhs == rhs  # Leibniz in the second argument through the anchor


def test_morphism_conditions():
    cs = so3_structure()
    B0 = cs.module.backend
    one, zero = Poly.one(B0), Poly.zero(B0)
    ident_alg = AlgebraMap(B0, B0)
    ident = ModuleMap(cs.module, cs.module, [[one if i == j else zero for j in range(3)] for i in range(3)])
    ok, _ = verify_morphism(cs, cs, ident_alg, ident)
    assert ok
    rot = ModuleMap(cs.module, cs.module, [[zero, -one, zero], [one, zero, zero], [zero, zero, one]])
    ok, report = verify_morphism(cs, cs, ident_alg, rot)
    assert ok
    assert report["failed"] == [] and report["witnesses"] == {}
    double = ModuleMap(cs.module, cs.module, [[one + one if i == j else zero for j in range(3)] for i in range(3)])
    ok, report = verify_morphism(cs, cs, ident_alg, double)
    assert not ok
    assert "(v) inner product" in report["failed"]
    # the first failing probe in loop order: [e1, e1] = 0 passes, [e1, e2] = e3 doubles
    # on one side and quadruples on the other; <e1, e1> = 1 is already off
    assert report["failed"] == ["(iii) bracket preservation", "(v) inner product"]
    assert report["witnesses"] == {
        "(iii) bracket preservation": "x = e1, y = e2: (2)*e3 != (4)*e3",
        "(v) inner product": "x = e1, y = e1: 1 != 4",
    }


# -- differential and cohomology -----------------------------------------------------


def test_differential_examples():
    cs = so3_structure()
    const = RothElement.from_scalar(cs.module, Poly.one(cs.module.backend))
    assert deformation_differential(cs, const).is_zero()  # no derivations of Q
    x = cs.module.basis(0)
    image = deformation_differential(cs, Cochain.from_module_element(x))
    from courantalg.cmaps import insert

    assert image == insert(cs.cochain, x)  # [m, x] = i_x m
    assert deformation_differential(cs, cs.cochain).is_zero()  # [m, m] = 0


def test_differential_cross_check():
    # the connection-side differential transported through J equals the
    # complex-side bracket with m
    cs = make_standard_courant(1)
    rng = random.Random(2)
    for _ in range(12):
        phi = random_roth(rng, cs.module, rng.randint(0, 4))
        lhs = apply_J(roth_bracket(cs.theta, phi, cs.connection), cs.connection)
        rhs = cbracket(cs.cochain, apply_J(phi, cs.connection))
        assert lhs == rhs


def test_delta_squared_blocks():
    cs = make_standard_courant(1)
    for r in range(0, 4):
        for d in (-1, 0, 1):
            assert delta_squared_is_zero(cs, r, d)


def test_delta_squared_detects_a_generator_with_nonzero_self_bracket():
    # Theta + x^2 D_1 (x) e_1 keeps internal degree 0 but {Theta, Theta} != 0
    cs = make_standard_courant(1)
    module = cs.module
    x = Poly.var(module.backend, 0)
    theta = cs.theta + RothElement(module, {((0,), (0,)): x * x})
    assert roth_internal_degrees(theta) == {0}
    assert not roth_bracket(theta, theta, cs.connection).is_zero()
    broken = deform.CourantStructure.from_theta(theta, cs.connection, check=False)
    for r, d in [(0, 1), (1, -1), (1, 1)]:
        assert not delta_squared_is_zero(broken, r, d)


def test_delta_squared_witness_names_the_first_failing_monomial():
    cs = make_standard_courant(1)
    module = cs.module
    x = Poly.var(module.backend, 0)
    theta = cs.theta + RothElement(module, {((0,), (0,)): x * x})
    broken = deform.CourantStructure.from_theta(theta, cs.connection, check=False)
    for r, d in [(0, 1), (1, -1), (1, 1)]:
        assert delta_squared_witness(cs, r, d) is None
        monomial, value = delta_squared_witness(broken, r, d)
        assert not value.is_zero()
        assert value == deformation_differential(broken, deformation_differential(broken, monomial))
        # the witness is the first basis monomial of the block with Q(Q(x)) != 0
        basis = [RothElement.from_numerators(module, {(sym, ext): {e: 1}}, 1)
                 for e, sym, ext in enumerate_chain_basis(module, r, d)]
        first = next(b for b in basis
                     if not deformation_differential(broken, deformation_differential(broken, b)).is_zero())
        assert monomial == first


def test_delta_squared_past_the_exponent_limit_raises_as_the_block_does():
    # a Courant structure needs no Q for the verdict, but its block basis is still enumerated
    cs = make_standard_courant(1)
    for check in (delta_block, delta_squared_is_zero):
        with pytest.raises(ModuleError, match="EXPONENT_LIMIT"):
            check(cs, 0, EXPONENT_LIMIT + 1)
    assert delta_squared_is_zero(cs, 0, EXPONENT_LIMIT)


def test_cohomology_so3_with_center_oracle():
    cs = so3_structure()
    dims = cohomology_dims(cs, range(0, 2), [0])
    assert dims[(0, 0)]["dim"] == 1
    assert dims[(1, 0)]["dim"] == lie_algebra_center_dim(so3_constants())  # = 0


def test_cohomology_ranks_each_block_once(monkeypatch):
    calls = []

    def counting_rank(rows):
        calls.append(len(rows))
        return real_rank(rows)

    real_rank = deform.linalg.rank
    monkeypatch.setattr(deform.linalg, "rank", counting_rank)
    dims = cohomology_dims(so3_structure(), range(0, 3), [0])
    ranked = [dims[(r, 0)] for r in range(3) if dims[(r, 0)]["chain_dim"]]
    assert len(calls) == len(ranked) == 3
    assert [dims[(r, 0)]["rank_in"] for r in (1, 2)] == [dims[(r, 0)]["rank_out"] for r in (0, 1)]


def _standard_unchecked(n):
    # the generator of make_standard_courant(n) without its verification, which takes about 3 s at n = 3
    module = deform.standard_module(n)
    theta = RothElement(module, {((i,), (n + i,)): Poly.const(module.backend, -1) for i in range(n)})
    return deform.CourantStructure.from_theta(theta, Connection.flat(module), check=False)


def test_cohomology_known_answers():
    def nonzero(cs, rs, ds):
        table = cohomology_dims(cs, rs, ds)
        assert len(table) == len(rs) * len(ds)
        return {rd: v["dim"] for rd, v in table.items() if v["dim"]}

    # Chevalley-Eilenberg: H(so(3)) = Q in degrees 0 and 3; Kuenneth for the sum
    assert nonzero(so3_structure(), range(0, 8), range(-3, 4)) == {(0, 0): 1, (3, 0): 1}
    assert nonzero(so3_sum_structure(), range(0, 8), [0]) == {(0, 0): 1, (3, 0): 2, (6, 0): 1}
    # the standard structure on Q[x1..xn]^(2n): de Rham of affine space, H = Q at (0, 0)
    for n in (1, 2, 3):
        assert _standard_unchecked(n).theta == make_standard_courant(n).theta
    for n, rs, ds in [(1, range(0, 7), range(-3, 4)), (2, range(0, 7), range(-2, 4)),
                      (3, range(0, 5), range(-1, 2))]:
        assert nonzero(_standard_unchecked(n), rs, ds) == {(0, 0): 1}
    # n = 3, r 0..9, d -2..2: every entry of the committed table
    committed = json.loads((RESULTS / "cohomology_standard_n3.json").read_text())
    table = cohomology_dims(_standard_unchecked(3), range(0, 10), range(-2, 3))
    assert [committed["r"], committed["d"]] == [[0, 9], [-2, 2]]
    assert {(b["r"], b["d"]): {k: b[k] for k in ("dim", "chain_dim", "rank_out", "rank_in")}
            for b in committed["blocks"]} == table
    assert {rd for rd, v in table.items() if v["dim"]} == {(0, 0)} and table[(0, 0)]["dim"] == 1


def test_cohomology_standard_low_block():
    cs = make_standard_courant(1)
    dims = cohomology_dims(cs, range(0, 1), [0])
    assert dims[(0, 0)]["dim"] == 1  # constants are cocycles with nothing incoming


def test_cohomology_window_may_be_a_one_shot_iterator():
    cs = make_standard_courant(1)
    dims = cohomology_dims(cs, iter(range(0, 2)), [0, 1])
    assert dims == cohomology_dims(cs, range(0, 2), [0, 1])
    assert sorted(dims) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_block_decomposition_needs_homogeneous_generator():
    cs = make_standard_courant(1)
    assert roth_internal_degrees(cs.theta) == {0}
    x = Poly.var(cs.module.backend, 0)
    skew = cs.theta + RothElement(cs.module, {((), (0,)): x * x})
    fake = type(cs)(cs.module, cs.connection, cs.cochain, skew)
    with pytest.raises(ModuleError):
        delta_block(fake, 1, 0)


def test_dual_number_der_factor_leaves_the_internal_degree_block():
    # epsd(eps) = eps, yet eps counts +1 and epsd -1: Theta = -D (x) f + e^f^g
    # has internal degree 0, but {Theta, .} maps eps out of block (0, 1)
    D = Backend.dual()
    one, zero = Poly.one(D), Poly.zero(D)
    module = MetricModule(D, [[zero, one, zero], [one, zero, zero], [zero, zero, one]],
                          names=("e", "f", "g"), internal_degrees=(-1, 1, 0))
    theta = RothElement(module, {((0,), (1,)): -one, ((), (0, 1, 2)): one})
    cs = deform.CourantStructure.from_theta(theta, Connection.flat(module), check=False)
    assert roth_internal_degrees(theta) == {0}
    message = r"differential leaves the internal-degree block: \(\(1,\), \(\), \(1,\)\)"
    with pytest.raises(ModuleError, match=message):
        delta_block(cs, 0, 1)
    with pytest.raises(ModuleError, match=message):
        delta_squared_is_zero(cs, 0, 1)
    with pytest.raises(ModuleError, match="leaves the internal-degree block"):
        cohomology_dims(cs, range(0, 2), [0, 1])


def test_block_guard_builds_the_q_table_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    real = deform._hamiltonian
    monkeypatch.setattr(deform, "_hamiltonian", counting)
    cs = _standard_unchecked(1)
    for r, d in itertools.product(range(0, 3), range(-1, 2)):
        delta_block(cs, r, d)
        delta_squared_is_zero(cs, r, d)
    cohomology_dims(cs, range(0, 3), range(-1, 2))
    assert calls == [cs.theta._num]


def test_dual_number_courant_structure_that_leaves_the_blocks_has_no_delta_squared_verdict():
    # -D (x) f over the dual numbers is Courant, so Q^2 = 0, yet Q(eps) = eps f
    # leaves its internal degree.  eps f = delta(eps) with eps in block (0, 1),
    # so a table that cut blocks by internal degree would report the exact
    # class eps f as H^{1,2} = 1: no block and no window has a verdict
    D = Backend.dual()
    one, zero = Poly.one(D), Poly.zero(D)
    module = MetricModule(D, [[zero, one], [one, zero]], names=("e", "f"), internal_degrees=(-1, 1))
    theta = RothElement(module, {((0,), (1,)): -one})
    cs = deform.CourantStructure.from_theta(theta, Connection.flat(module), check=True)
    message = r"differential leaves the internal-degree block: \(\(1,\), \(\), \(1,\)\)"
    for r, d in itertools.product(range(0, 3), range(-2, 3)):
        for check in (delta_block, delta_squared_is_zero):
            with pytest.raises(ModuleError, match=message):
                check(cs, r, d)
    for r_range, d_range in [(range(0, 3), [2]), ([], []), (range(0, 3), [])]:
        with pytest.raises(ModuleError, match=message):
            cohomology_dims(cs, r_range, d_range)


def test_a_generator_of_mixed_degree_has_no_blocks_though_its_internal_degree_is_0():
    # Theta + x e1: every term has internal degree 0, yet {x e1, f1} = x has
    # degree 0, not |f1| + 1, so Q leaves the bidegree of f1
    cs = make_standard_courant(1)
    x = Poly.var(cs.module.backend, 0)
    mixed = cs.theta + RothElement(cs.module, {((), (0,)): x})
    assert roth_internal_degrees(mixed) == {0}
    fake = type(cs)(cs.module, cs.connection, cs.cochain, mixed)
    leak = deform._q_table(fake)[2]
    assert leak is not None and 2 * len(leak[1]) + len(leak[2]) not in (1, 2, 3)
    for check in (delta_block, delta_squared_is_zero, lambda cs, r, d: cohomology_dims(cs, [r], [d])):
        with pytest.raises(ModuleError, match="leaves the internal-degree block: %s" % re.escape(str(leak))):
            check(fake, 1, 0)


def test_delta_squared_needs_homogeneous_generator():
    # the same guard as delta_block, though no block is built
    cs = make_standard_courant(1)
    x = Poly.var(cs.module.backend, 0)
    skew = cs.theta + RothElement(cs.module, {((), (0,)): x * x})
    fake = type(cs)(cs.module, cs.connection, cs.cochain, skew)
    with pytest.raises(ModuleError):
        delta_squared_is_zero(fake, 1, 0)


# -- deformations ----------------------------------------------------------------------


def _gauge_series(cs, xi, order):
    """Coefficients of exp(t {xi, .}) applied to the generator: valid to all orders."""
    conn = cs.connection
    out = []
    term = cs.theta
    fact = 1
    for j in range(1, order + 1):
        term = roth_bracket(xi, term, conn)
        fact *= j
        out.append(term.scale(Fraction(1, fact)))
    return out


def test_mc_gauge_series_all_orders():
    cs = make_standard_courant(1)
    rng = random.Random(3)
    for trial in range(4):
        xi = random_roth(rng, cs.module, 2)
        coeffs = _gauge_series(cs, xi, 4)
        series = DeformationSeries(cs, coeffs[:3])
        ok, bad = mc_series_valid(series)
        assert ok
        obs, cocycle = mc_obstruction(series)
        assert cocycle
        assert mc_extend(series, coeffs[3])
        assert all(mc_bruteforce_orders(series, coeffs[3]))
        # a generic wrong candidate is rejected unless the relation happens to close
        wrong = coeffs[3] + random_roth(rng, cs.module, 3)
        if not (roth_bracket(cs.theta, wrong, cs.connection).scale(2) + obs).is_zero():
            assert not mc_extend(series, wrong)


def test_mc_order_one_zero_extension_when_obstruction_vanishes():
    # a first-order coefficient whose self-bracket vanishes extends by zero
    cs = make_standard_courant(1)
    rng = random.Random(5)
    found = 0
    while found < 3:
        xi = random_roth(rng, cs.module, 2)
        m1 = roth_bracket(cs.theta, xi, cs.connection)
        series = DeformationSeries(cs, [m1])
        obs, cocycle = mc_obstruction(series)  # [m1, m1]
        assert cocycle
        if obs.is_zero():
            found += 1
            assert mc_extend(series, RothElement.zero(cs.module))


def test_mc_zero_series_accepts_cocycles():
    cs = so3_structure()
    series = DeformationSeries(cs, [RothElement.zero(cs.module)])
    cocycle = roth_bracket(cs.theta, random_roth(random.Random(4), cs.module, 2), cs.connection)
    assert mc_extend(series, cocycle)
    assert all(mc_bruteforce_orders(series, cocycle))


def test_mc_so3_self_deformation():
    cs = so3_structure()
    series = DeformationSeries(cs, [cs.theta])
    ok, _ = mc_series_valid(series)
    assert ok
    obs, flag = mc_obstruction(series)
    assert obs.is_zero() and flag
    assert mc_extend(series, RothElement.zero(cs.module))


def _named_term(message: str, module):
    """The order and the term (coefficient, sym, ext) a series rejection names."""
    order, text = re.fullmatch(r"input series fails its relations at order (\d+), first nonzero term (.*)",
                               message).groups()
    return int(order), parse_roth_term(text, module)


def test_mc_rejection_names_the_first_nonzero_term_of_the_residual():
    cs = make_standard_courant(1)
    zero = RothElement.zero(cs.module)
    rng = random.Random(11)
    orders = []
    for _ in range(6):
        m1 = random_roth(rng, cs.module, 3, coeff_deg=3)
        # m1 fails at order 1 unless it is a cocycle, and so does m1 at order 2 after a zero m_1
        for series in (DeformationSeries(cs, [m1]), DeformationSeries(cs, [zero, m1])):
            ok, bad = mc_series_valid(series)
            if ok:
                continue
            with pytest.raises(ValueError) as err:
                mc_extend(series, zero)
            order, (coeff, sym, ext) = _named_term(str(err.value), cs.module)
            assert order == bad
            terms = mc_residuals(series)[order - 1].terms
            assert (sym, ext) == min(terms)
            [(exp, value)] = coeff.terms.items()
            assert exp == min(terms[sym, ext].terms) and value == terms[sym, ext].terms[exp]
            orders.append((order, len(terms[sym, ext].terms)))
    assert {order for order, _ in orders} == {1, 2}
    assert max(size for _, size in orders) > 1  # the named monomial is the least of several


def test_mc_invalid_series_reported_with_order():
    cs = so3_structure()
    bad = DeformationSeries(cs, [RothElement.zero(cs.module),
                                 RothElement(cs.module, {((), (0, 1, 2)): Poly.one(cs.module.backend)})])
    # order 2 relation: 2 delta m_2 + [m_1, m_1] = 2 delta m_2 != 0 here?
    valid, order = mc_series_valid(bad)
    if not valid:
        with pytest.raises(ValueError) as err:
            mc_extend(bad, RothElement.zero(cs.module))
        assert str(order) in str(err.value)
