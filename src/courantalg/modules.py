"""Free modules with strongly non-degenerate inner products, connections, curvature.

A `ModuleElement` is a `poly.GroupedElement`, as a `RothElement` and a
`Cochain` are: `_num` = {basis index: {packed exponent: int}} over one
denominator, canonical.  `inner` and `raise_form` work on numerators: they
contract those of the element with the int numerators of the gram and of
its inverse (`MetricModule.numerators`), and a Poly is built only where a
value leaves (`inner`, `coeffs`).

A connection's Christoffel entries gamma[i][a] = nabla_i e_a are read as
numerators too, through two routines.  The metric defect S_i(a, b) =
<nabla_i e_a, e_b> + <e_a, nabla_i e_b> - D_i<e_a, e_b> (`_metric_defect`)
vanishes exactly when `is_metric`, and `metrize` subtracts half of it,
raised.  The skew raise (`_skew_raise`) turns a skew operator A into the
bivector -(1/2) sum_a A(e_a) ^ e^a, e^a the dual basis, for `curvature`
([nabla_i, nabla_j]) and `rothstein.ConnectionChange` (gamma - gamma').
"""

from __future__ import annotations

import itertools
from math import lcm

from .linalg import unit_inverse
from .poly import (
    Backend,
    Derivation,
    GroupedElement,
    ModuleError,
    Poly,
    _as_poly,
    _axpy,
    _canonical,
    _der_unit,
    _grouped_sum,
    _mul_add,
    _partial,
    _poly_groups,
    _times_monomial,
    num_der_generators,
)


class MetricModule:
    """Free module A^m with a symmetric gram matrix whose determinant is a unit.

    Unit determinant gives strong non-degeneracy (explicit inverse gram) and
    fullness (a one-pair witness read off the first row of the inverse).  The
    determinant and the inverse come from one Faddeev-LeVerrier pass over
    the int numerators of the gram (`linalg.unit_inverse`); `gram_inv` is
    the Poly view of those inverse numerators.
    Each basis element has its own name and an internal degree (default 0),
    which feeds the graded cohomology blocks; both enter equality and the
    hash, so no memo hands a value over one module to another.
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
        self.names = tuple("e%d" % (a + 1) for a in range(rank)) if names is None else tuple(names)
        self.internal_degrees = (0,) * rank if internal_degrees is None else tuple(internal_degrees)
        if len(set(self.names)) != rank or len(self.names) != rank or len(self.internal_degrees) != rank:
            raise ModuleError("basis names must be %d distinct names, with one internal degree each" % rank)
        self._hash = hash((backend, self.gram, self.names, self.internal_degrees))
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
        self.require(x, y)
        gram, G = self._nums[:2]
        out: dict = {}
        for a, xa in x._num.items():
            row = gram[a]
            for b, yb in y._num.items():
                if row[b]:
                    _mul_add(out, _mul_add({}, xa, row[b], self.backend), yb, self.backend)
        return _as_poly(self.backend, out, x._den * G * y._den)

    def require(self, *elements):
        """Refuse with ModuleError an element over another module; identity
        is tried first, so an element of this module costs one comparison."""
        for x in elements:
            if x.module is not self and x.module != self:
                raise ModuleError("module mismatch")

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
            and self.internal_degrees == other.internal_degrees
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
        module.require(*itertools.chain(*gamma))
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

    def _nabla_terms(self, i: int, num: dict, den: int) -> tuple[dict, int]:
        """nabla_i x = sum_a x_a gamma[i][a] + D_i(x_a) e_a for x with
        numerators num over den: numerators {c: {packed exponent: int}} over
        den times the lcm d of the denominators of row i."""
        backend = self.module.backend
        row = self.gamma[i]
        d = lcm(*[g._den for g in row])
        out: dict = {}
        for a, xa in num.items():
            g = row[a]
            for c, gc in g._num.items():
                _mul_add(out.setdefault(c, {}), xa, gc, backend, d // g._den)
            _axpy(out.setdefault(a, {}), _der(backend, i, xa), d)
        return out, den * d

    def nabla_gen(self, i: int, x: ModuleElement) -> ModuleElement:
        """Covariant derivative of x along the i-th derivation generator."""
        return ModuleElement.from_numerators(self.module, *self._nabla_terms(i, x._num, x._den))

    def nabla(self, d: Derivation, x: ModuleElement) -> ModuleElement:
        module = self.module
        out = module.zero()
        for i, c in enumerate(d.coeffs):
            if not c.is_zero():
                out = out + self.nabla_gen(i, x).scale(c)
        return out

    def is_metric(self) -> bool:
        """Whether the metric defect vanishes along every generator."""
        return not any(_metric_defect(self, i)[0] for i in range(len(self.gamma)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self.module == other.module and self.gamma == other.gamma

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.module, self.gamma))
        return self._hash


def _der(backend: Backend, i: int, a: dict) -> dict:
    """D_i on a numerator sum: the partial in g_i times D_i(g_i) (`_der_unit`)."""
    part = _partial(a, backend.shifts[i])
    unit = _der_unit(backend)
    return _times_monomial(part, unit, backend) if unit else part


def _metric_defect(conn: Connection, i: int) -> tuple[dict, int]:
    """S_i(a, b) = <nabla_i e_a, e_b> + <e_a, nabla_i e_b> - D_i <e_a, e_b>
    on the Christoffel and gram numerators, as {(a, b): {packed exponent:
    int}} over one denominator, the zero entries left out."""
    module = conn.module
    backend = module.backend
    gram, G = module.numerators()[:2]
    row = conn.gamma[i]
    d = lcm(*[g._den for g in row])
    low: dict = {}  # (a, b) -> d G <gamma[i][a], e_b>
    for a, g in enumerate(row):
        for c, gc in g._num.items():
            for b, w in enumerate(gram[c]):
                if w:
                    _mul_add(low.setdefault((a, b), {}), gc, w, backend, d // g._den)
    out = {}
    for a, b in itertools.product(range(module.rank), repeat=2):
        s = _axpy(_axpy(dict(low.get((a, b), {})), low.get((b, a), {})), _der(backend, i, gram[a][b]), -d)
        if s:
            out[a, b] = s
    return out, d * G


def metrize(conn: Connection) -> Connection:
    """The metric connection nabla - (1/2) S#, S the metric defect raised
    through the inverse gram in its second slot:

    <nabla'_D e_a, e_b> = (1/2)(<nabla_D e_a, e_b> - <e_a, nabla_D e_b> + D<e_a, e_b>).
    """
    module = conn.module
    H = module.numerators()[3]
    gamma = []
    for i, row in enumerate(conn.gamma):
        s, d = _metric_defect(conn, i)
        fixed = []
        for a, g in enumerate(row):
            half_s = module.raise_terms({b: v for (a2, b), v in s.items() if a2 == a})  # over 2 d H: half of S#
            fixed.append(ModuleElement.from_numerators(module, *_grouped_sum([(1, g._den, g._num), (-1, 2 * d * H, half_s)])))
        gamma.append(fixed)
    return Connection(module, gamma)


def _skew_raise(module: MetricModule, terms) -> tuple[dict, int]:
    """The bivector -(1/2) sum_a A(e_a) ^ e^a of a skew operator A, e^a =
    sum_b inv[a][b] e_b / H the dual basis; A(e_a) is the sum of f num / den
    over the terms (f, a, num, den), num module numerators.  Returns
    {(p, q) with p < q: {packed exponent: int}} over one denominator, canonical."""
    backend = module.backend
    inv, H = module.numerators()[2:]
    op, d = _grouped_sum([(f, den, {(a, c): v for c, v in num.items()}) for f, a, num, den in terms])
    out: dict = {}
    for (a, c), v in op.items():
        for b, w in enumerate(inv[a]):
            if w and b != c:
                key, f = ((c, b), -1) if c < b else ((b, c), 1)
                _mul_add(out.setdefault(key, {}), v, w, backend, f)
    return _canonical(out, 2 * d * H)


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


def curvature(conn: Connection) -> Curvature:
    """r(D_i, D_j), i < j: the skew raise of [nabla_i, nabla_j], which sends
    e_a to nabla_i gamma[j][a] - nabla_j gamma[i][a] because coordinate
    generators commute.  A metric connection makes the operator skew."""
    if conn._curvature is not None:
        return conn._curvature
    if not conn.is_metric():
        raise ModuleError("curvature in bivector form needs a metric connection")
    module = conn.module
    table = {}
    for i, j in itertools.combinations(range(len(conn.gamma)), 2):
        xi, den = _skew_raise(module, [(f, a, *conn._nabla_terms(k, g._num, g._den))
                                       for a in range(module.rank)
                                       for f, k, g in ((1, i, conn.gamma[j][a]), (-1, j, conn.gamma[i][a]))])
        if xi:
            table[i, j] = {pq: _as_poly(module.backend, v, den) for pq, v in xi.items()}
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
