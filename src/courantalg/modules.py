"""Free modules with strongly non-degenerate inner products, connections, curvature.

A `ModuleElement` is a `poly.GroupedElement`, as a `RothElement` and a
`Cochain` are: `_num` = {basis index: {packed exponent: int}} over one
denominator, canonical.  `inner` and `raise_form` work on numerators: they
contract those of the element with the int numerators of the gram and of
its inverse (`MetricModule.numerators`), and a Poly is built only where a
value leaves (`inner`, `coeffs`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .linalg import unit_inverse
from .poly import (
    Backend,
    Derivation,
    GroupedElement,
    ModuleError,
    Poly,
    _as_poly,
    _mul_add,
    _poly_groups,
    num_der_generators,
)


class MetricModule:
    """Free module A^m with a symmetric gram matrix whose determinant is a unit.

    Unit determinant gives strong non-degeneracy (explicit inverse gram) and
    fullness (a one-pair witness read off the first row of the inverse).  The
    determinant and the inverse come from one Faddeev-LeVerrier pass over
    the int numerators of the gram (`linalg.unit_inverse`); `gram_inv` is
    the Poly view of those inverse numerators.
    Optional per-basis internal degrees feed the graded cohomology blocks.
    `inner` walks only the nonzero gram entries between nonzero coordinates,
    and `raise_form` only the nonzero inverse-gram entries, as int numerator
    sums over one denominator (`numerators`); every skipped product is zero.
    The reference connection of `reference_connection` is built on first
    use and kept.
    """

    __slots__ = ("backend", "rank", "names", "gram", "gram_inv", "internal_degrees", "_basis",
                 "_nums", "_hash", "_reference")

    def __init__(self, backend: Backend, gram: list[list[Poly]], names=None, internal_degrees=None):
        rank = len(gram)
        if rank < 1:
            raise ModuleError("rank must be positive")
        for row in gram:
            if len(row) != rank:
                raise ModuleError("gram must be square")
        for a in range(rank):
            for b in range(rank):
                if gram[a][b] != gram[b][a]:
                    raise ModuleError("gram must be symmetric")
        flat, G = _poly_groups(backend, [((a, b), v) for a, row in enumerate(gram) for b, v in enumerate(row)])
        nums = [[flat.get((a, b), {}) for b in range(rank)] for a in range(rank)]
        _, inv, H = unit_inverse([{b: v for b, v in enumerate(row) if v} for row in nums], G, backend)
        if inv is None:
            raise ModuleError("gram determinant must be a unit (invertible constant part)" if backend.is_dual
                              else "gram determinant must be a nonzero rational")
        self.backend = backend
        self.rank = rank
        self.gram = tuple(tuple(row) for row in gram)
        self.gram_inv = tuple(tuple(_as_poly(backend, v, H) for v in row) for row in inv)
        self._nums = (nums, G, inv, H)
        if names is None:
            names = tuple("e%d" % (a + 1) for a in range(rank))
        self.names = tuple(names)
        if internal_degrees is None:
            internal_degrees = (0,) * rank
        self.internal_degrees = tuple(internal_degrees)
        self._hash = hash((backend, self.gram, self.names))
        self._basis = tuple(ModuleElement.from_numerators(self, {a: {0: 1}}, 1) for a in range(rank))
        self._reference = None

    def zero(self) -> "ModuleElement":
        return ModuleElement.from_numerators(self, {}, 1)

    def basis(self, a: int) -> "ModuleElement":
        return self._basis[a]

    def basis_elements(self) -> list["ModuleElement"]:
        return list(self._basis)

    def inner(self, x: "ModuleElement", y: "ModuleElement") -> Poly:
        """<x, y>: the numerators of x and y contracted with those of the gram,
        over the product of the three denominators."""
        if x.module is not self and x.module != self:
            raise ModuleError("module mismatch")
        if y.module is not self and y.module != self:
            raise ModuleError("module mismatch")
        gram, G = self._nums[:2]
        out: dict = {}
        for a, xa in x._num.items():
            row = gram[a]
            for b, yb in y._num.items():
                if row[b]:
                    _mul_add(out, _mul_add({}, xa, row[b], self.backend), yb, self.backend)
        return _as_poly(self.backend, out, x._den * G * y._den)

    def numerators(self) -> tuple[list, int, list, int]:
        """(gram, G, inv, H): gram[a][b] is G <e_a, e_b> and inv[a][b] is H
        times the (a, b) inverse-gram entry, each an int numerator sum
        {packed exponent: int}, with G and H the least common denominators."""
        return self._nums

    def reference_connection(self) -> "Connection":
        """The metric connection the products of the complex are transported
        through (`cmaps`): flat when the gram is constant, else `metrize` of
        the flat one.  Built once, so its generator table is too."""
        if self._reference is None:
            flat = Connection.flat(self)
            constant = all(v.is_constant() for row in self.gram for v in row)
            self._reference = flat if constant else metrize(flat)
        return self._reference

    def fullness_witness(self) -> list[tuple["ModuleElement", "ModuleElement"]]:
        """Pairs (x_i, y_i) with sum <x_i, y_i> = 1; here a single pair."""
        y = ModuleElement(self, [self.gram_inv[0][b] for b in range(self.rank)])
        return [(self.basis(0), y)]

    def raise_form(self, values: list[Poly]) -> "ModuleElement":
        """The element v with <v, e_b> = values[b] for every basis index b."""
        vals, d = _poly_groups(self.backend, enumerate(values))
        return ModuleElement.from_numerators(self, self.raise_terms(vals), d * self.numerators()[3])

    def raise_terms(self, vals: dict) -> dict:
        """The numerators {a: {packed exponent: int}} of the element v with
        <v, e_b> = vals[b], for numerator sums vals[b] over d: over d * H."""
        inv = self.numerators()[2]
        out = {}
        for a in range(self.rank):
            coeff: dict = {}
            for b, v in vals.items():
                if inv[a][b]:
                    _mul_add(coeff, v, inv[a][b], self.backend)
            if coeff:
                out[a] = coeff
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricModule):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.gram == other.gram
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "MetricModule(rank=%d over %r)" % (self.rank, self.backend)


class ModuleElement(GroupedElement):
    """Element of E: `_num` = {basis index a: {packed exponent: int}} over
    `_den`, canonical (module docstring); the coordinate on e_a is group a."""

    __slots__ = ()

    def __init__(self, module: MetricModule, coeffs):
        """The element sum_a coeffs[a] e_a, one Poly per basis element."""
        coeffs = tuple(coeffs)
        if len(coeffs) != module.rank:
            raise ModuleError("coefficient arity mismatch")
        self._set(module, *_poly_groups(module.backend, enumerate(coeffs)))

    @staticmethod
    def from_numerators(module: MetricModule, num: dict, den: int) -> "ModuleElement":
        """The element with coordinates {a: {packed exponent: int}} over den > 0,
        made canonical; num is taken over, not copied."""
        x = object.__new__(ModuleElement)
        x._set(module, num, den)
        return x

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """The coordinates as Polys, one per basis element, built on every read."""
        return tuple([self._poly(a) for a in range(self.module.rank)])

    __rmul__ = __mul__ = GroupedElement.scale

    def __repr__(self) -> str:
        parts = []
        for c, name in zip(self.coeffs, self.module.names):
            if c.is_zero():
                continue
            if c.is_one():
                parts.append(name)
            else:
                parts.append("(%s)*%s" % (c, name))
        return " + ".join(parts) if parts else "0"


def inner(x: ModuleElement, y: ModuleElement) -> Poly:
    return x.module.inner(x, y)


class Connection:
    """Covariant derivative given by its Christoffel table.

    gamma[i][a] = nabla of the a-th basis element along the i-th derivation
    generator.  Over DualNum there is a single generator epsd, and module
    relations force every gamma entry to lie in eps*E.  Derived values are
    built on first use and kept: the curvature, and the generator table of
    the bracket it defines (`rothstein._generator_table`).
    """

    __slots__ = ("module", "gamma", "_hash", "_curvature", "_generators")

    def __init__(self, module: MetricModule, gamma):
        backend = module.backend
        ngen = num_der_generators(backend)
        gamma = tuple(tuple(row) for row in gamma)
        if len(gamma) != ngen or any(len(row) != module.rank for row in gamma):
            raise ModuleError("christoffel table shape mismatch")
        for row in gamma:
            for v in row:
                if v.module != module:
                    raise ModuleError("christoffel entries must live in the module")
        if backend.is_dual and any(0 in c for row in gamma for v in row for c in v._num.values()):
            raise ModuleError("dual-number connections need eps-multiple christoffels "
                              "(forced by A-linearity in the derivation slot)")
        self.module = module
        self.gamma = gamma
        self._hash = None
        self._curvature = None
        self._generators = None

    @staticmethod
    def flat(module: MetricModule) -> "Connection":
        ngen = num_der_generators(module.backend)
        return Connection(module, [[module.zero() for _ in range(module.rank)] for _ in range(ngen)])

    def nabla_gen(self, i: int, x: ModuleElement) -> ModuleElement:
        """Covariant derivative of x along the i-th derivation generator."""
        module = self.module
        d = Derivation.basis(module.backend, i)
        out = module.zero()
        for a, c in enumerate(x.coeffs):
            if c.is_zero():
                continue
            out = out + self.gamma[i][a].scale(c)
            out = out + d(c) * module.basis(a)
        return out

    def nabla(self, d: Derivation, x: ModuleElement) -> ModuleElement:
        module = self.module
        out = module.zero()
        for i, c in enumerate(d.coeffs):
            if not c.is_zero():
                out = out + self.nabla_gen(i, x).scale(c)
        return out

    def is_metric(self) -> bool:
        module = self.module
        ngen = num_der_generators(module.backend)
        for i in range(ngen):
            d = Derivation.basis(module.backend, i)
            for a in range(module.rank):
                for b in range(a, module.rank):
                    lhs = d(module.gram[a][b])
                    rhs = inner(self.gamma[i][a], module.basis(b)) + inner(module.basis(a), self.gamma[i][b])
                    if lhs != rhs:
                        return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self.module == other.module and self.gamma == other.gamma

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.module, self.gamma))
        return self._hash


def metrize(conn: Connection) -> Connection:
    """Metric connection from an arbitrary one.

    <nabla_D x, y> = (1/2)(<nablat_D x, y> - <x, nablat_D y> + D<x, y>)
    on generator/basis probes, solved back through the inverse gram.
    """
    module = conn.module
    backend = module.backend
    half = Fraction(1, 2)
    ngen = num_der_generators(backend)
    gamma = []
    for i in range(ngen):
        d = Derivation.basis(backend, i)
        row = []
        for a in range(module.rank):
            vals = []
            ea = module.basis(a)
            for b in range(module.rank):
                eb = module.basis(b)
                v = inner(conn.gamma[i][a], eb) - inner(ea, conn.gamma[i][b]) + d(module.gram[a][b])
                vals.append(v.scale(half))
            row.append(module.raise_form(vals))
        gamma.append(row)
    return Connection(module, gamma)


class Curvature:
    """Curvature in its bivector form: r(D_i, D_j) as coefficients on e_a ^ e_b."""

    __slots__ = ("connection", "table")

    def __init__(self, connection: Connection, table):
        self.connection = connection
        self.table = table  # table[(i, j)] with i < j: dict {(a, b) a < b: Poly}

    def pair(self, i: int, j: int) -> dict[tuple[int, int], Poly]:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -v for k, v in self.table.get((j, i), {}).items()}


def lambda2_pair(module: MetricModule, xi: dict[tuple[int, int], Poly], x: ModuleElement, y: ModuleElement) -> Poly:
    """<xi, x ^ y> with the determinant pairing on the exterior square."""
    out = Poly.zero(module.backend)
    for (a, b), c in xi.items():
        block = module.inner(module.basis(a), x) * module.inner(module.basis(b), y) \
            - module.inner(module.basis(a), y) * module.inner(module.basis(b), x)
        out = out + c * block
    return out


def raise_exterior(module: MetricModule, k: int, form) -> dict[tuple[int, ...], Poly]:
    """The xi in Lambda^k E with <xi, e_I> = form[I] for increasing I.

    form maps every k-tuple of basis indices to the value of an alternating
    A-multilinear map; it is rejected unless each adjacent swap flips its
    sign.  Raising happens slotwise through the inverse gram.
    """
    m = module.rank
    ginv = module.gram_inv
    for src, val in form.items():
        for i in range(k - 1):
            if form[src[:i] + (src[i + 1], src[i]) + src[i + 2:]] != -val:
                raise ModuleError("form to raise is not alternating")
    out: dict[tuple[int, ...], Poly] = {}
    for target in itertools.combinations(range(m), k):
        s = Poly.zero(module.backend)
        for src in itertools.product(range(m), repeat=k):
            val = form[src]
            if val.is_zero():
                continue
            for b, a in zip(src, target):
                val = val * ginv[b][a]
            s = s + val
        if not s.is_zero():
            out[target] = s
    return out


def curvature(conn: Connection) -> Curvature:
    """r(D, E) from the operator curvature, validated against the pairing."""
    if conn._curvature is not None:
        return conn._curvature
    if not conn.is_metric():
        raise ModuleError("curvature in bivector form needs a metric connection")
    module = conn.module
    pairs = list(itertools.product(range(module.rank), repeat=2))
    ngen = num_der_generators(module.backend)
    table = {}
    for i in range(ngen):
        for j in range(i + 1, ngen):
            # coordinate generators commute, so no nabla_[D,E] term, and
            # nabla_{D_j} e_a is the Christoffel entry gamma[j][a]
            op = {}
            for a in range(module.rank):
                op[a] = conn.nabla_gen(i, conn.gamma[j][a]) - conn.nabla_gen(j, conn.gamma[i][a])
            if all(v.is_zero() for v in op.values()):
                continue  # r(D_i, D_j) = 0: nothing to raise or cross-check
            pairing = {(a, b): inner(op[a], module.basis(b)) for a, b in pairs}
            xi = raise_exterior(module, 2, pairing)
            # dual computation: the pairing route must reproduce <R(.,.)x, y>
            for (a, b), v in pairing.items():
                if lambda2_pair(module, xi, module.basis(a), module.basis(b)) != v:
                    raise ModuleError("curvature bivector fails the pairing cross-check")
            if xi:
                table[(i, j)] = xi
    cur = Curvature(conn, table)
    conn._curvature = cur
    return cur


def nabla_lambda2(conn: Connection, i: int, xi: dict[tuple[int, int], Poly]) -> dict[tuple[int, int], Poly]:
    """Leibniz extension of the covariant derivative to the exterior square."""
    module = conn.module
    backend = module.backend
    d = Derivation.basis(backend, i)
    acc: dict[tuple[int, int], Poly] = {}

    def add(a, b, c):
        if a == b or c.is_zero():
            return
        if a > b:
            a, b, c = b, a, -c
        acc[(a, b)] = acc.get((a, b), Poly.zero(backend)) + c

    for (a, b), c in xi.items():
        add(a, b, d(c))
        for t, coef in enumerate(conn.gamma[i][a].coeffs):
            add(t, b, c * coef)
        for t, coef in enumerate(conn.gamma[i][b].coeffs):
            add(a, t, c * coef)
    return {k: v for k, v in acc.items() if not v.is_zero()}


def bianchi_residuals(conn: Connection, cur: Curvature | None = None):
    """Cyclic sums nabla_D1 r(D2,D3) + r(D1,[D2,D3]) + cyclic, per generator triple.

    Commutators of the coordinate generators vanish, so only the covariant
    derivative terms remain.  Passing a foreign curvature table exposes how
    the identity fails off the true curvature.
    """
    if cur is None:
        cur = curvature(conn)
    backend = conn.module.backend
    ngen = num_der_generators(backend)
    out = {}
    for i in range(ngen):
        for j in range(ngen):
            for k in range(ngen):
                acc: dict[tuple[int, int], Poly] = {}
                for (a, b), c in itertools.chain(
                    nabla_lambda2(conn, i, cur.pair(j, k)).items(),
                    nabla_lambda2(conn, j, cur.pair(k, i)).items(),
                    nabla_lambda2(conn, k, cur.pair(i, j)).items(),
                ):
                    acc[(a, b)] = acc.get((a, b), Poly.zero(backend)) + c
                acc = {key: v for key, v in acc.items() if not v.is_zero()}
                if acc:
                    out[(i, j, k)] = acc
    return out


def bianchi_check(conn: Connection, cur: Curvature | None = None) -> bool:
    return not bianchi_residuals(conn, cur)
