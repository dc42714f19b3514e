import itertools
import random
from fractions import Fraction

import pytest

from courantalg import (
    Backend,
    Cochain,
    Connection,
    Derivation,
    MetricModule,
    ModuleElement,
    ModuleMap,
    MultiDerivation,
    Poly,
    RothElement,
    apply_J,
    cbracket,
    cmap_eval,
    cmap_pushforward,
    cmap_verify,
    cmap_wedge,
    cwedge,
    from_form,
    insert,
    inner,
    make_standard_courant,
    metrize,
    symbol_tower,
    to_form,
)
from courantalg import cmaps, poly
from courantalg.cmaps import bracket_scalar, quartic_from_biderivation

from conftest import curved_connection, random_module_element, random_poly, random_roth, so3_constants
from symbol_oracle import DerivationTail, symbol_via_fullness


B0 = Backend.free(0)
Q1 = Poly.one(B0)


def so3_cochain():
    M = MetricModule(B0, [[Q1 if i == j else Poly.zero(B0) for j in range(3)] for i in range(3)])
    csts = so3_constants()
    table = {}
    for i in range(3):
        for j in range(3):
            table[(i, j)] = ModuleElement(M, [Poly.const(B0, csts[i][j][k]) for k in range(3)])
    return M, Cochain.from_tables(M, 3, table)


def hyperbolic_setup(seed=0):
    B = Backend.free(1, ("x",))
    one, zero = Poly.one(B), Poly.zero(B)
    M = MetricModule(B, [[zero, one], [one, zero]])
    return B, M, curved_connection(M, seed=seed)


def dual_setup():
    D = Backend.dual()
    M = MetricModule(D, [[Poly.one(D)]])
    P = MultiDerivation(D, 2, {(0, 0): Poly.var(D, 0)})
    return D, M, quartic_from_biderivation(M, P)


# -- membership verification ---------------------------------------------------


def test_verify_so3_table():
    M, m = so3_cochain()
    ok, report = cmap_verify(m)
    assert ok and report["violation"] is None


def test_verify_rejects_symmetric_candidate():
    # C(x, y) = <x, y> e1 with zero symbol violates the derivation identity
    B = Backend.free(1, ("x",))
    one, zero = Poly.one(B), Poly.zero(B)
    M = MetricModule(B, [[zero, one], [one, zero]])
    table = {}
    for i in range(2):
        for j in range(2):
            table[(i,)] = None
    values = {(a,): M.basis(0).scale(M.gram[a][a]) for a in range(2)}
    # build directly: omega(x, y) = <x, y> <e1, y> is easiest via explicit tables
    lvl0 = {}
    for a in range(2):
        for b in range(2):
            lvl0[((), (a, b))] = inner(M.basis(0).scale(M.gram[a][a]), M.basis(b))
    cand = Cochain(M, 2, {0: lvl0})
    # replace with the honest table: value on e_a is <e_a, e_a> e1 = 0; use a
    # genuinely symmetric candidate instead
    vals = {(a,): M.basis(0) if a == 0 else M.basis(0) for a in range(2)}
    cand = Cochain.from_tables(M, 2, {(0,): M.basis(1), (1,): M.basis(0)})
    ok, report = cmap_verify(cand)
    assert not ok and report["violation"] is not None


def test_verify_badc_quartic():
    D, M, bad = dual_setup()
    ok, report = cmap_verify(bad)
    assert ok
    # its content sits in the second tower level
    eps = Poly.var(D, 0)
    assert bad.levels[2][((0, 0), ())] == eps
    assert bad(M.basis(0).scale(eps), M.basis(0), M.basis(0).scale(eps)) == M.basis(0).scale(eps)


def test_symbol_uniqueness_via_fullness():
    # the stored symbol level agrees with the one forced by the values
    # through the fullness witness: the two routes must coincide exactly
    B, M, conn = hyperbolic_setup(seed=1)
    rng = random.Random(2)
    x = Poly.var(B, 0)
    checked = 0
    while checked < 12:
        phi = random_roth(rng, M, rng.randint(2, 3))
        if phi.is_zero():
            continue
        checked += 1
        c = apply_J(phi, conn)
        nargs = c.degree - 2
        for args in itertools.product(M.basis_elements(), repeat=nargs):
            for g in (x, x * x):
                assert symbol_via_fullness(c, args, g) == c.eval_level(1, (g,), args)
    # perturbing the one nonzero symbol entry of a value-free element turns it
    # into a different element; the fullness route then reports the new symbol
    c = apply_J(RothElement.monomial(M, (0,), (0,)), conn)
    for args in itertools.product(M.basis_elements(), repeat=1):
        assert symbol_via_fullness(c, args, x) == c.eval_level(1, (x,), args)


def test_symbol_linear_in_last_argument():
    B, M, conn = hyperbolic_setup(seed=3)
    rng = random.Random(4)
    x = Poly.var(B, 0)
    checked = 0
    while checked < 10:
        phi = random_roth(rng, M, 3)
        if phi.is_zero() or phi.degrees() != {3}:
            continue
        checked += 1
        c = apply_J(phi, conn)
        for a in range(2):
            probes = [M.basis(0), M.basis(1), M.basis(a).scale(x)]
            for y in probes:
                lhs = c.eval_level(1, (x * x,), (y,))
                rhs = x * c.eval_level(1, (x,), (y,)) + x * c.eval_level(1, (x,), (y,))
                # sigma(x^2) = 2x sigma(x) by the derivation property
                assert lhs == rhs


# -- evaluation ------------------------------------------------------------------


def test_eval_so3_cross_product():
    M, m = so3_cochain()
    assert cmap_eval(m, (M.basis(0), M.basis(1))) == M.basis(2)


def test_eval_bilinear_when_symbol_vanishes():
    # so(3) base change to polynomial coefficients stays A-bilinear
    B = Backend.free(1, ("x",))
    x = Poly.var(B, 0)
    M = MetricModule(B, [[Poly.one(B) if i == j else Poly.zero(B) for j in range(3)] for i in range(3)])
    csts = so3_constants()
    table = {}
    for i in range(3):
        for j in range(3):
            table[(i, j)] = ModuleElement(M, [Poly.const(B, csts[i][j][k]) for k in range(3)])
    m = Cochain.from_tables(M, 3, table)
    assert m(M.basis(0).scale(x), M.basis(1)) == M.basis(2).scale(x)
    assert m(M.basis(0), M.basis(1).scale(x)) == M.basis(2).scale(x)


def test_eval_standard_structure_matches_structural_route():
    cs = make_standard_courant(1)
    M = cs.module
    x = Poly.var(M.backend, 0)
    e, f = M.basis(0), M.basis(1)
    assert cs.cochain(e, f.scale(x)) == f
    # structural route: nested brackets on the connection side
    from apply_J_oracle import nested_bracket_with_modules

    rho = nested_bracket_with_modules(cs.theta, [e, f.scale(x)], cs.connection)
    assert rho.module_part() == f


# -- insertion --------------------------------------------------------------------


def test_insert_wedge_formula():
    # i_z(x ^ y) = -<x, z> y + x <y, z>
    B, M, conn = hyperbolic_setup(seed=5)
    rng = random.Random(6)
    for _ in range(10):
        x = random_module_element(rng, M)
        y = random_module_element(rng, M)
        z = random_module_element(rng, M)
        wedge = cwedge(Cochain.from_module_element(x), Cochain.from_module_element(y))
        expect = (-y.scale(inner(x, z))) + x.scale(inner(y, z))
        assert insert(wedge, z).module_part() == expect


def test_insert_so3_slice_is_valid():
    M, m = so3_cochain()
    sliced = insert(m, M.basis(0))
    assert sliced.degree == 2
    ok, _ = cmap_verify(sliced)
    assert ok
    assert sliced(M.basis(1)) == M.basis(2)  # e1 x e2 = e3


def test_insert_zero_and_degree_guard():
    M, m = so3_cochain()
    assert insert(m, M.zero()).is_zero()
    with pytest.raises(ValueError):
        insert(Cochain.from_module_element(M.basis(0)), M.basis(0))


# -- the bracket -------------------------------------------------------------------


def test_bracket_base_cases():
    B, M, conn = hyperbolic_setup(seed=7)
    e1c = Cochain.from_module_element(M.basis(0))
    e2c = Cochain.from_module_element(M.basis(1))
    assert cbracket(e1c, e2c).scalar_part().is_one()  # [x, y] = <x, y>
    d = apply_J(RothElement.monomial(M, (0,), ()), conn)  # a degree-2 element
    a = Poly.var(B, 0) * Poly.var(B, 0)
    got = cbracket(d, Cochain.scalar(M, a))
    assert got.scalar_part() == d.symbol(())(a)  # [D, a] = sigma_D a
    m = apply_J(random_roth(random.Random(8), M, 3), conn)
    x = M.basis(0)
    assert cbracket(m, Cochain.from_module_element(x)) == insert(m, x)  # [C, x] = i_x C


def test_bracket_so3_self_vanishes():
    M, m = so3_cochain()
    assert cbracket(m, m).is_zero()


def test_bracket_tail_leibniz():
    # [ [C1, a], C2 ] + [ C1, [C2, a] ] = [ [C1, C2], a ]
    B, M, conn = hyperbolic_setup(seed=9)
    rng = random.Random(10)
    a = Poly.var(B, 0)
    for _ in range(8):
        c1 = apply_J(random_roth(rng, M, 3), conn)
        c2 = apply_J(random_roth(rng, M, rng.randint(2, 3)), conn)
        lhs = bracket_scalar(cbracket(c1, c2), a)
        rhs = cbracket(bracket_scalar(c1, a), c2) + cbracket(c1, bracket_scalar(c2, a))
        assert lhs == rhs


def test_bracket_graded_jacobi_randomized():
    B, M, conn = hyperbolic_setup(seed=11)
    rng = random.Random(12)
    for _ in range(12):
        r, s, t = (rng.randint(1, 3) for _ in range(3))
        a, b, c = (apply_J(random_roth(rng, M, d), conn) for d in (r, s, t))
        lhs = cbracket(a, cbracket(b, c))
        rhs = cbracket(cbracket(a, b), c)
        t2 = cbracket(b, cbracket(a, c))
        if (r * s) % 2:
            t2 = -t2
        assert lhs == rhs + t2


def _memo_workload(monkeypatch, seed):
    """Brackets, wedges and evaluations on fresh bracket, wedge and preimage
    tables: five top-level pairs, so each table passes a bound of 4."""
    monkeypatch.setattr(cmaps, "_BRACKET_CACHE", poly.Memo())
    monkeypatch.setattr(cmaps, "_WEDGE_CACHE", poly.Memo())
    monkeypatch.setattr(cmaps, "_PREIMAGES", poly.Memo())
    B, M, conn = hyperbolic_setup(seed=seed)
    rng = random.Random(seed + 1)

    def nonzero(degree):
        phi = random_roth(rng, M, degree, density=1.0)
        return apply_J(phi, conn) if not phi.is_zero() else nonzero(degree)

    held, results = [], []
    for _ in range(5):
        a, b = nonzero(3), nonzero(2)
        x, y = random_module_element(rng, M, 2), random_module_element(rng, M, 2)
        ab = cbracket(a, b)
        results += [ab, cwedge(a, b), cmap_eval(a, (x, y)), cmap_eval(ab, (y, x))]
        held += [a, ab]
    return B, held, results


def test_memo_tables_stay_at_a_small_bound(monkeypatch):
    _, _, expected = _memo_workload(monkeypatch, seed=31)
    monkeypatch.setattr(poly, "MEMO_LIMIT", 4)
    B, held, results = _memo_workload(monkeypatch, seed=31)
    assert results == expected
    assert len(cmaps._BRACKET_CACHE) == len(cmaps._WEDGE_CACHE) == len(cmaps._PREIMAGES) == 4
    # a backend holds no table: pack and unpack compute their results
    assert not any(isinstance(getattr(B, name), dict) for name in type(B).__slots__)
    # a cochain is a plain value: every evaluation memo lives only while its call runs
    slots = {name for cls in Cochain.__mro__ for name in getattr(cls, "__slots__", ())}
    assert slots == {"module", "degree", "_num", "_den", "_hash"}
    assert not any(hasattr(c, "__dict__") for c in held)


def _flat(v) -> dict:
    """A RothElement or a Cochain as its Poly view {group: Poly}."""
    return v.terms if isinstance(v, RothElement) else {k: c for t in v.levels.values() for k, c in t.items()}


def test_both_algebras_share_one_value_type():
    B, M, conn = hyperbolic_setup(seed=41)
    rng = random.Random(42)
    zeros = [Cochain.zero(M, r) for r in range(4)]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
    assert Cochain.zero(M, 2) != Cochain.from_module_element(M.basis(0))
    x = Poly.var(B, 0)
    assert RothElement.from_scalar(M, x) != Cochain.scalar(M, x)
    assert RothElement.zero(M) != zeros[0] and zeros[0] != RothElement.zero(M)
    zero = Poly.zero(B)
    checked = 0
    for _ in range(8):
        r = rng.randint(1, 3)
        phi, psi = random_roth(rng, M, r, density=1.0), random_roth(rng, M, r, density=1.0)
        if phi.is_zero() or psi.is_zero():
            continue  # J of 0 is the degree-0 zero
        checked += 1
        for u, w in ((phi, psi), (apply_J(phi, conn), apply_J(psi, conn))):
            assert isinstance(u, poly.GroupedElement)
            fu, fw = _flat(u), _flat(w)
            for got, op in ((u + w, Poly.__add__), (u - w, Poly.__sub__)):
                expected = {k: op(fu.get(k, zero), fw.get(k, zero)) for k in fu.keys() | fw.keys()}
                assert _flat(got) == {k: c for k, c in expected.items() if not c.is_zero()}
            assert _flat(-u) == {k: -c for k, c in fu.items()}
    assert checked >= 4


# -- the wedge ---------------------------------------------------------------------


def test_wedge_scalar_action():
    B, M, conn = hyperbolic_setup(seed=13)
    a = Poly.var(B, 0)
    x = Cochain.from_module_element(M.basis(0))
    assert cwedge(Cochain.scalar(M, a), x) == x.scale(a)  # a ^ x = a x


def test_wedge_dual_modes_agree_on_random_pairs():
    B, M, conn = hyperbolic_setup(seed=15)
    rng = random.Random(16)
    for _ in range(10):
        r, s = rng.randint(1, 2), rng.randint(1, 2)
        a = apply_J(random_roth(rng, M, r), conn)
        b = apply_J(random_roth(rng, M, s), conn)
        assert cmap_wedge(a, b, "recursive") == cmap_wedge(a, b, "shuffle")


def test_both_wedge_modes_refuse_a_product_above_the_degree_cap():
    cs = make_standard_courant(1)
    a = apply_J(RothElement.monomial(cs.module, (0, 0), ()), cs.connection)
    b = apply_J(RothElement.monomial(cs.module, (0, 0), (0,)), cs.connection)
    assert (a.degree, b.degree) == (4, 5) and not (a.is_zero() or b.is_zero())
    messages = set()
    for mode in ("recursive", "shuffle"):
        with pytest.raises(ValueError) as err:
            cmap_wedge(a, b, mode)
        messages.add(str(err.value))
    assert messages == {"wedge of result degree 9 exceeds the 8 cap"}


def test_wedge_associative_and_bracket_biderivation():
    B, M, conn = hyperbolic_setup(seed=17)
    rng = random.Random(18)
    for _ in range(6):
        r, s, t = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        a, b, c = (apply_J(random_roth(rng, M, d), conn) for d in (r, s, t))
        assert cwedge(cwedge(a, b), c) == cwedge(a, cwedge(b, c))
        lhs = cbracket(a, cwedge(b, c))
        rhs = cwedge(cbracket(a, b), c)
        t3 = cwedge(b, cbracket(a, c))
        if (r * s) % 2:
            t3 = -t3
        assert lhs == rhs + t3


# -- forms and the tower --------------------------------------------------------------


def test_form_of_so3():
    M, m = so3_cochain()
    omega = to_form(m)
    assert omega(M.basis(0), M.basis(1), M.basis(2)).is_one()
    assert from_form(omega) == m


def test_form_round_trip_random():
    B, M, conn = hyperbolic_setup(seed=19)
    rng = random.Random(20)
    for _ in range(8):
        c = apply_J(random_roth(rng, M, rng.randint(1, 3)), conn)
        assert from_form(to_form(c)) == c
    zero = Cochain.zero(M, 3)
    assert from_form(to_form(zero)).is_zero()


def test_tower_degree2_trivial_symbol():
    B, M, conn = hyperbolic_setup(seed=21)
    c = apply_J(RothElement.monomial(M, (), (0, 1)), Connection.flat(M))
    tower = symbol_tower(to_form(c))
    assert not tower.level(1)  # [omega, 0]


def test_tower_standard_structure_reproduces_tail():
    cs = make_standard_courant(1)
    m = cs.cochain
    tower = symbol_tower(to_form(m))
    x = Poly.var(cs.module.backend, 0)
    d1 = tower.delta(1, [x])
    assert d1.module_part() == cs.module.basis(1)  # d_m x = f1


def test_tower_badc_second_level():
    D, M, bad = dual_setup()
    tower = symbol_tower(to_form(bad))
    eps = Poly.var(D, 0)
    assert tower.level(2) == {((0, 0), ()): eps}
    # delta^(2) pairing: expanding the biderivation twice
    d2 = tower.delta(2, [eps, eps])
    assert d2.scalar_part() == eps


def test_tower_rejects_inconsistent_input():
    D, M, bad = dual_setup()
    levels = {p: dict(t) for p, t in bad.levels.items()}
    levels[1] = {((0,), (0, 0)): Poly.var(D, 0)}  # foreign symbol entry
    broken = Cochain(M, 4, levels)
    with pytest.raises(ValueError):
        symbol_tower(to_form(broken))


@pytest.mark.parametrize("bad_levels", [(1,), (1, 2), (2,)])
def test_tower_rejects_a_dual_level_with_a_constant_term(bad_levels):
    # D(eps) lies in eps*A for every derivation of Q[eps]; an antisymmetric
    # constant level 1 and a constant level 2 pass the consistency checks on
    # basis probes (depth 0), and the first such level is reported
    D = Backend.dual()
    one, zero = Poly.one(D), Poly.zero(D)
    M = MetricModule(D, [[zero, one], [one, zero]])
    levels = {1: {((0,), (0, 1)): one, ((0,), (1, 0)): -one}, 2: {((0, 0), ()): one}}
    c = Cochain(M, 4, {p: levels[p] for p in bad_levels})
    with pytest.raises(ValueError) as caught:
        symbol_tower(to_form(c), depth=0)
    assert str(caught.value) == "level %d is not a derivation in slot 0" % bad_levels[0]
    assert _slot_loop_verdict(c) == str(caught.value)


def _slot_loop_verdict(c: Cochain):
    """The per-slot derivation check on generator products, read through
    `eval_level`: the first failing level's message, or None."""
    backend, module = c.module.backend, c.module
    gen_vars = [Poly.var(backend, j) for j in range(backend.nvars)]
    for p in range(1, c.degree // 2 + 1):
        basis_args = list(itertools.product(module.basis_elements(), repeat=c.degree - 2 * p))
        for gens in itertools.combinations_with_replacement(range(backend.nvars), p):
            gargs = [gen_vars[g] for g in gens]
            for slot, j, zargs in itertools.product(range(p), range(backend.nvars), basis_args):
                lhs = c.eval_level(p, tuple(gargs[:slot] + [gargs[slot] * gen_vars[j]] + gargs[slot + 1:]), zargs)
                rhs = gargs[slot] * c.eval_level(p, tuple(gargs[:slot] + [gen_vars[j]] + gargs[slot + 1:]), zargs) \
                    + gen_vars[j] * c.eval_level(p, tuple(gargs), zargs)
                if lhs != rhs:
                    return "level %d is not a derivation in slot %d" % (p, slot)
    return None


def _random_tower(rng: random.Random, module: MetricModule, degree: int) -> Cochain:
    backend = module.backend
    levels = {}
    for p in range(degree // 2 + 1):
        for gens in itertools.combinations_with_replacement(range(backend.nvars), p):
            for args in itertools.product(range(module.rank), repeat=degree - 2 * p):
                if rng.random() < 0.5:
                    levels.setdefault(p, {})[gens, args] = random_poly(rng, backend, 1, scale=2)
    return Cochain(module, degree, levels)


@pytest.mark.parametrize("kind", ["free1", "free2", "dual"])
def test_tower_derivation_stage_matches_the_slot_loop(kind):
    # seeded random towers on basis probes: every one that passes the
    # consistency checks gets the slot loop's verdict, and over Q[x] that
    # verdict is always a pass, since eval_level expands by the chain rule
    backend = Backend.dual() if kind == "dual" else Backend.free(int(kind[-1]))
    one, zero = Poly.one(backend), Poly.zero(backend)
    rng = random.Random(31)
    verdicts = []
    for rank in (1, 2):
        module = MetricModule(backend, [[one if a == b else zero for b in range(rank)] for a in range(rank)])
        for degree in (2, 3, 4):
            for _ in range(15):
                c = _random_tower(rng, module, degree)
                try:
                    symbol_tower(to_form(c), depth=0)
                    got = None
                except ValueError as ex:
                    got = str(ex)
                if got is None or "derivation" in got:
                    expected = _slot_loop_verdict(c)
                    assert got == expected
                    verdicts.append(got)
    assert verdicts.count(None) >= 10
    if kind == "dual":
        assert len(verdicts) - verdicts.count(None) >= 3
    else:
        assert verdicts.count(None) == len(verdicts)


# -- push forward ------------------------------------------------------------------------


def test_pushforward_identity():
    M, m = so3_cochain()
    ident = ModuleMap(M, M, [[Q1 if i == j else Poly.zero(B0) for j in range(3)] for i in range(3)])
    assert cmap_pushforward(m, ident) == m


def test_pushforward_signed_permutation():
    M, m = so3_cochain()
    zero = Poly.zero(B0)
    rot = ModuleMap(M, M, [[zero, -Q1, zero], [Q1, zero, zero], [zero, zero, Q1]])
    assert rot.is_isometric()
    pushed = cmap_pushforward(m, rot)
    ok, _ = cmap_verify(pushed)
    assert ok
    # bracket preservation on random pairs
    rng = random.Random(22)
    conn = Connection.flat(M)
    for _ in range(6):
        a = apply_J(random_roth(rng, M, rng.randint(1, 3)), conn)
        b = apply_J(random_roth(rng, M, rng.randint(1, 3)), conn)
        assert cmap_pushforward(cbracket(a, b), rot) == \
            cbracket(cmap_pushforward(a, rot), cmap_pushforward(b, rot))


def test_pushforward_rejects_scaling():
    M, m = so3_cochain()
    two = Poly.const(B0, 2)
    zero = Poly.zero(B0)
    double = ModuleMap(M, M, [[two if i == j else zero for j in range(3)] for i in range(3)])
    with pytest.raises(Exception):
        cmap_pushforward(m, double)


def test_derivation_tail_pairing_invariant():
    B, M, conn = hyperbolic_setup(seed=23)
    rng = random.Random(24)
    for _ in range(6):
        phi = random_roth(rng, M, rng.randint(3, 4))
        if phi.is_zero():
            continue
        tail = DerivationTail(apply_J(phi, conn))
        assert tail.pairing_invariant_holds()
    # the dual-number quartic: the tail applies the biderivation once
    D, MD, bad = dual_setup()
    tail = DerivationTail(bad)
    assert tail.pairing_invariant_holds()


def test_cmap_pushforward_along_variable_permutation():
    from courantalg import AlgebraMap, Connection, metrize

    B2 = Backend.free(2)
    x2, y2 = Poly.var(B2, 0), Poly.var(B2, 1)
    one2, zero2 = Poly.one(B2), Poly.zero(B2)
    M = MetricModule(B2, [[zero2, one2], [one2, zero2]])
    conn = metrize(Connection(M, [[M.basis(0).scale(x2), M.zero()],
                                  [M.zero(), M.basis(1).scale(y2)]]))
    g = AlgebraMap(B2, B2, perm=(1, 0))
    gmap = ModuleMap(M, M, [[one2, zero2], [zero2, one2]], algebra_map=g)
    rng = random.Random(44)
    for _ in range(8):
        a = apply_J(random_roth(rng, M, rng.randint(1, 3)), conn)
        b = apply_J(random_roth(rng, M, rng.randint(1, 3)), conn)
        pa, pb = cmap_pushforward(a, gmap), cmap_pushforward(b, gmap)
        assert cmap_pushforward(cbracket(a, b), gmap) == cbracket(pa, pb)
        assert cmap_pushforward(cwedge(a, b), gmap) == cwedge(pa, pb)
        if a.degree >= 2:
            okv, _ = cmap_verify(pa)
            assert okv


def test_from_callable_infers_standard_structure():
    # feeding the independent Dorfman evaluator into the callable constructor
    # reproduces the structural element exactly, symbol included
    from courantalg import dorfman_bracket, make_standard_courant

    for n in (1, 2):
        cs = make_standard_courant(n)
        M = cs.module
        rebuilt = Cochain.from_callable(M, 3, lambda u, v: dorfman_bracket(M, n, u, v))
        assert rebuilt == cs.cochain
        ok, _ = cmap_verify(rebuilt)
        assert ok


def test_from_callable_infers_degree2_symbol():
    from courantalg import Derivation, apply_J

    B, M, conn = hyperbolic_setup(seed=29)
    d = Derivation.basis(B, 0)
    rebuilt = Cochain.from_callable(M, 2, lambda y: -conn.nabla(d, y))
    phi = RothElement.from_derivation(M, d)
    assert rebuilt == apply_J(phi, conn)
    assert rebuilt.symbol(()) == -d


def test_quartic_tail_applies_biderivation_once():
    # the scalar slice of the quartic acts by the biderivation in one slot
    D, M, bad = dual_setup()
    eps = Poly.var(D, 0)
    sliced = bracket_scalar(bad, eps)
    assert sliced.degree == 2
    e = M.basis(0)
    assert sliced(e.scale(eps)) == e.scale(eps)   # P(eps, eps) = eps
    assert sliced(e).is_zero()                    # P(1, eps) = 0


def test_eval_reduction_matches_nested_brackets():
    # the slot-by-slot reduction through the tower must agree with evaluating
    # nested brackets on the connection side, on arguments with polynomial
    # coefficients in every slot
    from apply_J_oracle import nested_bracket_with_modules

    B, M, conn = hyperbolic_setup(seed=31)
    rng = random.Random(32)
    checked = 0
    while checked < 12:
        deg = rng.randint(2, 4)
        phi = random_roth(rng, M, deg, coeff_deg=2)
        if phi.is_zero():
            continue
        checked += 1
        c = apply_J(phi, conn)
        for _ in range(4):
            args = [random_module_element(rng, M, deg=2) for _ in range(deg - 1)]
            lhs = c(*args)
            rhs = nested_bracket_with_modules(phi, args, conn).module_part()
            assert lhs == rhs


def test_wedge_form_level_shuffle_formula():
    # a third route to the wedge: the closed shuffle formula for the forms,
    # omega1 ^ omega2 (x_1..x_{r+s}) with the (r,s)-shuffles and a global sign
    from courantalg.cmaps import _shuffles

    B, M, conn = hyperbolic_setup(seed=33)
    rng = random.Random(34)
    done = 0
    while done < 10:
        r, s = rng.randint(1, 2), rng.randint(1, 2)
        phi, psi = random_roth(rng, M, r), random_roth(rng, M, s)
        if phi.is_zero() or psi.is_zero():
            continue
        done += 1
        a, b = apply_J(phi, conn), apply_J(psi, conn)
        w = cwedge(a, b)
        sign_rs = -1 if (r * s) % 2 else 1
        for args in itertools.product(M.basis_elements(), repeat=r + s):
            total = Poly.zero(B)
            for sgn, blk1, blk2 in _shuffles(r, s):
                w1 = a.omega(tuple(args[i] for i in blk1))
                w2 = b.omega(tuple(args[i] for i in blk2))
                total = total + (w1 * w2).scale(sign_rs * sgn)
            assert w.omega(args) == total
