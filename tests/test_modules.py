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
    ModuleError,
    Poly,
    RothElement,
    bianchi_check,
    curvature,
    inner,
    metrize,
)
from courantalg.modules import Curvature, bianchi_residuals, lambda2_pair, raise_exterior
from courantalg.poly import BackendError, GroupedElement, MultiDerivation

from conftest import (
    curved_connection,
    denominator_contexts,
    fractional_element,
    gram_denominator_contexts,
    oracle_contexts,
    random_module_element,
    random_poly,
)


B1 = Backend.free(1, ("x",))
X = Poly.var(B1, 0)
ONE = Poly.one(B1)
ZERO = Poly.zero(B1)


def hyperbolic2():
    return MetricModule(B1, [[ZERO, ONE], [ONE, ZERO]])


def test_inner_examples():
    M = hyperbolic2()
    e1, e2 = M.basis_elements()
    assert inner(e1, e2) == ONE
    assert inner(e1, e1).is_zero()  # isotropic basis vector
    rng = random.Random(1)
    for _ in range(20):
        a = random_poly(rng, B1, 2)
        x = random_module_element(rng, M)
        y = random_module_element(rng, M)
        assert inner(x.scale(a), y) == a * inner(x, y)
        assert inner(x, y) == inner(y, x)


def _gram(backend, rows):
    return MetricModule(backend, [[v if isinstance(v, Poly) else Poly.const(backend, v) for v in row]
                                  for row in rows])


def _sparse_gram_cases():
    B0 = Backend.free(0)
    D = Backend.dual()
    eps = Poly.var(D, 0)
    yield "identity", _gram(B0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    yield "hyperbolic", hyperbolic2()
    yield "rational", _gram(B0, [[2, 1, 0], [1, Fraction(1, 2), 3], [0, 3, -1]])
    # det = (x^2 + 1) - x^2 = 1, so the inverse has Poly entries too
    yield "poly entries", _gram(B1, [[ONE, X, ZERO], [X, X * X + ONE, ZERO], [ZERO, ZERO, ONE]])
    yield "dual numbers", _gram(D, [[Poly.one(D) + eps, eps], [eps, -Poly.one(D)]])


@pytest.mark.parametrize("name", [name for name, _ in _sparse_gram_cases()])
def test_sparse_contractions_equal_the_dense_sums(name):
    M = dict(_sparse_gram_cases())[name]
    rank, zero = M.rank, Poly.zero(M.backend)

    def dense_inner(x, y):
        out = zero
        for a in range(rank):
            for b in range(rank):
                out = out + x.coeffs[a] * M.gram[a][b] * y.coeffs[b]
        return out

    def dense_raise(values):
        out = []
        for a in range(rank):
            s = zero
            for b in range(rank):
                s = s + values[b] * M.gram_inv[b][a]
            out.append(s)
        return ModuleElement(M, out)

    rng = random.Random(17)
    elements = [random_module_element(rng, M, deg=2) for _ in range(8)] + M.basis_elements() + [M.zero()]
    for x in elements:
        for y in elements:
            assert M.inner(x, y) == dense_inner(x, y)
    for x in elements:
        values = list(x.coeffs)
        v = M.raise_form(values)
        assert v == dense_raise(values)
        assert all(M.inner(v, M.basis(b)) == values[b] for b in range(rank))


def poly_loop_inner(module: MetricModule, x: ModuleElement, y: ModuleElement) -> Poly:
    """The oracle for `MetricModule.inner`: sum x_a g_ab y_b as a Poly loop over
    the coordinates and the nonzero gram entries, one Poly product per term."""
    out = Poly.zero(module.backend)
    for xa, row in zip(x.coeffs, module.gram):
        if xa.is_zero():
            continue
        for g, yb in zip(row, y.coeffs):
            if not g.is_zero() and not yb.is_zero():
                out = out + xa * g * yb
    return out


def _inner_contexts():
    for M, conn in oracle_contexts():
        yield M, conn
    for M, conn in denominator_contexts():
        yield M, conn
    for _, M, conn in gram_denominator_contexts():
        yield M, conn


def test_numerator_inner_equals_the_poly_loop_oracle():
    rng = random.Random(29)
    count = 0
    for M, conn in _inner_contexts():
        christoffels = [v for row in conn.gamma for v in row]
        elements = christoffels + M.basis_elements() + [M.zero()] + [
            fractional_element(rng, M, 2) for _ in range(4)]
        for x in elements:
            for y in elements:
                assert M.inner(x, y) == poly_loop_inner(M, x, y)
                count += 1
    assert count > 1000


def test_module_element_is_a_grouped_element_with_no_arithmetic_of_its_own():
    assert issubclass(ModuleElement, GroupedElement)
    for name in ("is_zero", "__add__", "__sub__", "__neg__", "__eq__", "__hash__"):
        assert name not in vars(ModuleElement)


def test_equal_elements_from_polys_and_numerators_are_equal_and_hash_equal():
    B2 = Backend.free(2)
    x, y = Poly.var(B2, 0), Poly.var(B2, 1)
    M = MetricModule(B2, [[Poly.one(B2), Poly.zero(B2)], [Poly.zero(B2), Poly.one(B2)]])
    # 1/2 x e1 + 1/3 y e2 from coefficients over 2 and 3, over 6 and 6, and as numerators over 6
    a = ModuleElement(M, [x.scale(Fraction(1, 2)), y.scale(Fraction(1, 3))])
    b = ModuleElement(M, [x.scale(Fraction(3, 6)) + y - y, (y.scale(4) - y.scale(2)).scale(Fraction(1, 6))])
    kx, ky = B2.pack((1, 0)), B2.pack((0, 1))
    c = ModuleElement.from_numerators(M, {0: {kx: 3}, 1: {ky: 2}}, 6)
    d = ModuleElement.from_numerators(M, {0: {kx: 6}, 1: {ky: 4}}, 12)
    assert a == b == c == d
    assert len({hash(a), hash(b), hash(c), hash(d)}) == 1
    assert (a._num, a._den) == (d._num, d._den) == ({0: {kx: 3}, 1: {ky: 2}}, 6)
    assert a != ModuleElement(M, [x.scale(Fraction(1, 2)), y])
    zero = ModuleElement(M, [Poly.zero(B2), x - x])
    assert zero == M.zero() == a - c and hash(zero) == hash(M.zero()) and zero.is_zero()


def test_coeffs_round_trip():
    rng = random.Random(31)
    for M, _ in _inner_contexts():
        for _ in range(6):
            x = fractional_element(rng, M, 2)
            assert len(x.coeffs) == M.rank
            assert ModuleElement(M, x.coeffs) == x
            assert ModuleElement(M, x.coeffs).coeffs == x.coeffs
            assert ModuleElement.from_numerators(M, dict(x._num), x._den).coeffs == x.coeffs
            assert sum((M.basis(a).scale(c) for a, c in enumerate(x.coeffs)), M.zero()) == x


def test_scale_by_a_poly_over_another_backend_raises():
    M = hyperbolic2()
    y = Poly.var(Backend.free(2), 1)
    with pytest.raises(BackendError):
        M.basis(0).scale(y)
    with pytest.raises(BackendError):
        y * M.basis(0)
    assert M.basis(0).scale(X) == X * M.basis(0) == M.basis(0) * X
    assert M.basis(1).scale(Fraction(2, 3)) == ModuleElement(M, [ZERO, Poly.const(B1, Fraction(2, 3))])


def _foreign_constructors():
    """(name, build) for each constructor that packs Poly numerators, fed x
    over Q[x] where its values live over Q[x, y]."""
    B2 = Backend.free(2)
    one2, zero2 = Poly.one(B2), Poly.zero(B2)
    M = MetricModule(B2, [[one2, zero2], [zero2, one2]])
    yield "RothElement", lambda: RothElement(M, {((), (0,)): X})
    yield "Cochain", lambda: Cochain(M, 1, {0: {((), (0,)): X}})
    yield "Derivation", lambda: Derivation(B2, (X, 0))
    yield "MetricModule", lambda: MetricModule(B2, [[ONE]])
    yield "MultiDerivation", lambda: MultiDerivation(B2, 2, {(0, 1): X})
    yield "ModuleElement", lambda: ModuleElement(M, [X, zero2])
    yield "ModuleElement-zero", lambda: ModuleElement(M, [ZERO, zero2])


@pytest.mark.parametrize("name", [name for name, _ in _foreign_constructors()])
def test_constructors_reject_a_poly_over_another_backend(name):
    # x over Q[x] packs to the key of y over Q[x, y]: without the check it would be read as y
    with pytest.raises(BackendError):
        dict(_foreign_constructors())[name]()


def test_fullness_witness():
    M = hyperbolic2()
    (wx, wy), = M.fullness_witness()
    assert (wx, wy) == (M.basis(0), M.basis(1))
    M1 = MetricModule(B1, [[ONE]])
    (wx, wy), = M1.fullness_witness()
    assert wx == wy == M1.basis(0)
    M2 = MetricModule(B1, [[Poly.const(B1, 2)]])
    (wx, wy), = M2.fullness_witness()
    assert wy == M2.basis(0).scale(Fraction(1, 2))
    for mod in (M, M1, M2):
        total = Poly.zero(B1)
        for a, b in mod.fullness_witness():
            total = total + inner(a, b)
        assert total.is_one()


def test_gram_validation():
    with pytest.raises(ModuleError):
        MetricModule(B1, [[ZERO, ONE], [X, ZERO]])  # not symmetric
    with pytest.raises(ModuleError):
        MetricModule(B1, [[X]])  # determinant not a unit
    with pytest.raises(ModuleError):
        MetricModule(B1, [[ZERO]])


def test_inverse_gram_exact():
    rng = random.Random(7)
    for _ in range(10):
        b = rng.randint(-3, 3)
        M = MetricModule(B1, [[(X * X).scale(b * b) + ONE, X.scale(b)], [X.scale(b), ONE]])
        for i in range(2):
            for j in range(2):
                entry = M.gram[i][0] * M.gram_inv[0][j] + M.gram[i][1] * M.gram_inv[1][j]
                assert entry == (ONE if i == j else ZERO)


def test_metrize_flat_constant_gram_unchanged():
    M = hyperbolic2()
    conn = Connection.flat(M)
    assert metrize(conn) == conn


def test_metrize_half_formula_value():
    # unit-determinant version of the sloped gram: <nabla_d e1, e1> = x
    M = MetricModule(B1, [[ONE + X * X, X], [X, ONE]])
    conn = metrize(Connection.flat(M))
    assert conn.is_metric()
    assert inner(conn.gamma[0][0], M.basis(0)) == X
    assert metrize(conn) == conn  # idempotent on metric connections


def test_metricity_identity_on_probes():
    M = MetricModule(B1, [[ONE + X * X, X], [X, ONE]])
    conn = curved_connection(M, seed=3)
    d = Derivation.basis(B1, 0)
    for a in range(2):
        for b in range(2):
            lhs = d(M.gram[a][b])
            rhs = inner(conn.gamma[0][a], M.basis(b)) + inner(M.basis(a), conn.gamma[0][b])
            assert lhs == rhs


def test_dual_connection_needs_eps_christoffels():
    D = Backend.dual()
    oneD = Poly.one(D)
    MD = MetricModule(D, [[oneD]])
    with pytest.raises(ModuleError):
        Connection(MD, [[MD.basis(0)]])  # eps * epsd = 0 forces eps-multiples
    eps = Poly.var(D, 0)
    Connection(MD, [[MD.basis(0).scale(eps)]])  # fine


def test_curvature_flat_is_zero():
    M = hyperbolic2()
    assert curvature(Connection.flat(M)).table == {}


def test_curvature_antisymmetric_in_generators():
    M = hyperbolic2()
    cur = curvature(metrize(Connection(M, [[M.basis(0).scale(X), M.zero()]])))
    assert cur.pair(0, 0) == {}  # r(D, D) = 0


def _curved_2d():
    B2 = Backend.free(2)
    x, y = Poly.var(B2, 0), Poly.var(B2, 1)
    one2, zero2 = Poly.one(B2), Poly.zero(B2)
    M = MetricModule(B2, [[one2 + x * x, x], [x, one2]])
    raw = Connection(M, [[M.zero(), M.zero()],
                         [M.basis(0).scale(y), M.basis(0).scale(x * y)]])
    return M, metrize(raw)


def test_curvature_two_routes_agree():
    # definition route vs pairing route on all basis tuples
    M, conn = _curved_2d()
    cur = curvature(conn)
    assert cur.table  # generically nonzero
    for (i, j), xi in cur.table.items():
        for a in range(M.rank):
            Rea = conn.nabla_gen(i, conn.nabla_gen(j, M.basis(a))) \
                - conn.nabla_gen(j, conn.nabla_gen(i, M.basis(a)))
            for b in range(M.rank):
                assert inner(Rea, M.basis(b)) == lambda2_pair(M, xi, M.basis(a), M.basis(b))


def test_curvature_bilinear_in_derivations():
    M, conn = _curved_2d()
    rng = random.Random(11)
    backend = M.backend
    for _ in range(15):
        a = random_poly(rng, backend, 2)
        d = Derivation.basis(backend, 0)
        e = Derivation.basis(backend, 1)
        x = random_module_element(rng, M)

        def op(dd, ee, v):
            return conn.nabla(dd, conn.nabla(ee, v)) - conn.nabla(ee, conn.nabla(dd, v)) \
                - conn.nabla(dd.commutator(ee), v)

        assert op(d.scale(a), e, x) == op(d, e, x).scale(a)


def test_curvature_requires_metric():
    M = hyperbolic2()
    raw = Connection(M, [[M.basis(0).scale(X), M.zero()]])
    assert not raw.is_metric()
    with pytest.raises(ModuleError):
        curvature(raw)


def test_curvature_cached_without_rechecking_metricity(monkeypatch):
    calls = []
    is_metric = Connection.is_metric
    monkeypatch.setattr(Connection, "is_metric", lambda self: calls.append(self) or is_metric(self))
    M, conn = _curved_2d()
    first = curvature(conn)
    assert len(calls) == 1
    assert curvature(conn) is first
    assert len(calls) == 1
    H = hyperbolic2()
    raw = Connection(H, [[H.basis(0).scale(X), H.zero()]])
    for _ in range(2):
        with pytest.raises(ModuleError):
            curvature(raw)


def test_raise_exterior_rejects_non_alternating_forms():
    M = hyperbolic2()
    symmetric = {(a, b): ONE for a in range(2) for b in range(2)}
    with pytest.raises(ModuleError):
        raise_exterior(M, 2, symmetric)
    alternating = {(0, 0): ZERO, (0, 1): X, (1, 0): -X, (1, 1): ZERO}
    # <xi, e1 ^ e2> = x through the inverse gram of the hyperbolic pairing
    assert raise_exterior(M, 2, alternating) == {(0, 1): -X}


def test_bianchi_holds_for_metric_connections():
    M, conn = _curved_2d()
    assert bianchi_check(conn)
    assert bianchi_check(Connection.flat(hyperbolic2()))


def test_bianchi_fails_for_perturbed_curvature_table():
    # the cyclic identity is vacuous below three derivation generators, so
    # perturb over FreePoly(3) where a triple of distinct generators exists
    B3 = Backend.free(3)
    x, y, z = (Poly.var(B3, i) for i in range(3))
    one3, zero3 = Poly.one(B3), Poly.zero(B3)
    M = MetricModule(B3, [[one3 + x * x, x], [x, one3]])
    raw = Connection(M, [[M.zero(), M.zero()],
                         [M.basis(0).scale(y), M.basis(0).scale(x * y)],
                         [M.zero(), M.basis(0).scale(z)]])
    conn = metrize(raw)
    assert bianchi_check(conn)
    cur = curvature(conn)
    table = {k: {kk: vv for kk, vv in v.items()} for k, v in cur.table.items()}
    entry = dict(table.get((0, 1), {}))
    entry[(0, 1)] = entry.get((0, 1), Poly.zero(B3)) + z
    table[(0, 1)] = entry
    assert bianchi_residuals(conn, Curvature(conn, table))
