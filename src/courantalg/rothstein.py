"""The graded algebra Sym(Der A) (x) Lambda(E) with its degree -2 Poisson bracket.

Elements are sums c * D_{i1} v ... v D_{ip} (x) e_{a1} ^ ... ^ e_{ak}; a
Der generator counts degree 2 and a module basis element degree 1.  This is
the function algebra of a degree-2 symplectic graded manifold (Rothstein
1991; Roytenberg, math/0203110), so {a, .} is the Hamiltonian derivation
Q_a of a, fixed by its values on the generators x_j, D_i, e_a:

    Q_a(v) = {a, v} = sum_u (a d<-/du) {u, v},   {a, b} = sum_v Q_a(v) (d->/dv b),

with the generator table

    {e_a, e_b} = <e_a, e_b>,  {D_i, e_a} = -nabla_{D_i} e_a,
    {D_i, D_j} = -r(D_i, D_j),  {D_i, x_j} = -D_i(x_j)

up to graded antisymmetry, and 0 on the other pairs; it depends on a metric
connection through nabla and the curvature bivector r.  One kernel does all
of this on grouped sums {(sym, ext): {packed exponent: int}}:
`_hamiltonian` builds Q_a, `_apply_derivation` applies it by Leibniz, and
both multiply through `_mul_into`, as does the wedge product.
`roth_bracket`, the deformation differential of `deform` and the tower walk
of `symbol_map.apply_J` are this kernel.

The kernel is fraction-free, and a `RothElement` is a `poly.GroupedElement`
in its format, as a `Cochain` is: `_num` = {(sym, ext): {packed exponent:
int}} over one positive denominator `_den`, canonical.  The kernel reads them as
they are; a connection's generator table is kept as ints over its own
denominator d (built once, on first use), so Q_a on a sum over d_a is a
sum over d_a * d, and a Leibniz product multiplies the denominators.  A
result leaves through `RothElement.from_numerators`, which only cancels the
common factor.  A monomial product is one int add (`poly._mul_add`, called
by `_mul_into` once per pair of groups) and a derivative in x_j a shift, a
mask and a subtraction.  Poly coefficients exist only at the boundary:
the constructor sums the numerators of its Poly terms (`poly._poly_groups`),
and the `terms` view builds a Poly per group on read.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .modules import (
    Connection,
    MetricModule,
    ModuleElement,
    ModuleError,
    curvature,
    inner,
    raise_exterior,
)
from .poly import (
    Backend,
    Derivation,
    GroupedElement,
    Poly,
    _grouped_sum,
    _mul_add,
    _partial,
    _poly_groups,
    _variables,
    num_der_generators,
)

TermKey = tuple[tuple[int, ...], tuple[int, ...]]  # (sym multiset, ext tuple)


def _merge_ext(ext1: tuple[int, ...], ext2: tuple[int, ...]):
    """Concatenate and sort exterior factors; returns (sign, sorted) or None."""
    if set(ext1) & set(ext2):
        return None
    merged = list(ext1 + ext2)
    sign = 1
    # insertion sort, counting transpositions of odd factors
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(merged)


def _eps_free(terms: dict) -> dict:
    """The part of a packed sum over the dual numbers without eps."""
    c = terms.get(0)
    return {0: c} if c else {}


def _mul_into(out: dict, lefts: dict, right, backend: Backend, f: int = 1):
    """out += f (sum of the groups lefts) * right, right one group (sym, ext, terms).

    The one product step: merge the exterior parts with their sign and
    multiply the two packed sums into the group of the merged key.  Over the
    dual numbers a term with eps and a Der factor dies (the reduction
    RothElement applies), so a product with a Der factor multiplies only the
    eps-free parts.  Numerators only: the product's denominator is the
    product of the factors' denominators.  A group of out may end empty.
    """
    sym2, ext2, terms2 = right
    for (sym1, ext1), terms1 in lefts.items():
        merged = _merge_ext(ext1, ext2)
        if merged is None:
            continue
        sign, ext = merged
        sym = tuple(sorted(sym1 + sym2)) if sym1 and sym2 else sym1 or sym2
        if sym and backend.is_dual:
            _mul_add(out.setdefault((sym, ext), {}), _eps_free(terms1), _eps_free(terms2), backend, sign * f)
        else:
            _mul_add(out.setdefault((sym, ext), {}), terms1, terms2, backend, sign * f)


class RothElement(GroupedElement):
    """Sum of graded terms over a metric module; immutable.  Stored as the
    kernel computes on it (module docstring): `_num` over `_den`, canonical."""

    __slots__ = ()

    def __init__(self, module: MetricModule, terms: dict[TermKey, Poly]):
        """The element sum c * sym (x) ext over the given terms.  Over the dual
        numbers eps * D = 0, so a coefficient beside a Der factor reduces mod eps."""
        if any(ext[i] >= ext[i + 1] for _, ext in terms for i in range(len(ext) - 1)):
            raise ValueError("exterior part must be strictly increasing")
        num, den = _poly_groups(module.backend, [((tuple(sorted(sym)), ext), c) for (sym, ext), c in terms.items()])
        if module.backend.is_dual:
            num = {k: _eps_free(v) if k[0] else v for k, v in num.items()}
        self._set(module, num, den)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_numerators(module: MetricModule, num: dict, den: int) -> "RothElement":
        """The element with groups {(sym, ext): {packed exponent: int}} over
        den > 0, made canonical; num is taken over, not copied."""
        x = object.__new__(RothElement)
        x._set(module, num, den)
        return x

    @staticmethod
    def zero(module: MetricModule) -> "RothElement":
        return RothElement.from_numerators(module, {}, 1)

    @staticmethod
    def from_scalar(module: MetricModule, a: Poly) -> "RothElement":
        return RothElement(module, {((), ()): a})

    @staticmethod
    def from_module_element(x: ModuleElement) -> "RothElement":
        return RothElement.from_numerators(x.module, {((), (a,)): v for a, v in x._num.items()}, x._den)

    @staticmethod
    def from_derivation(module: MetricModule, d: Derivation) -> "RothElement":
        return RothElement(module, {((i,), ()): c for i, c in enumerate(d.coeffs)})

    @staticmethod
    def from_lambda2(module: MetricModule, xi: dict[tuple[int, int], Poly]) -> "RothElement":
        return RothElement(module, {((), (a, b)): c for (a, b), c in xi.items()})

    @staticmethod
    def monomial(module: MetricModule, sym, ext, coeff=None) -> "RothElement":
        c = Poly.one(module.backend) if coeff is None else coeff
        return RothElement(module, {(tuple(sorted(sym)), tuple(ext)): c})

    # -- structure -----------------------------------------------------

    @property
    def terms(self) -> dict[TermKey, Poly]:
        """The element as {(sym, ext): Poly}, built on every read."""
        return {key: self._poly(key) for key in self._num}

    def degrees(self) -> set[int]:
        return {2 * len(sym) + len(ext) for (sym, ext) in self._num}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError("inhomogeneous element has no single degree")
        return degs.pop() if degs else 0

    def homogeneous_part(self, r: int) -> "RothElement":
        return RothElement.from_numerators(
            self.module,
            {k: v for k, v in self._num.items() if 2 * len(k[0]) + len(k[1]) == r},
            self._den,
        )

    def max_sym_degree(self) -> int:
        return max((len(sym) for (sym, ext) in self._num), default=0)

    def scalar_part(self) -> Poly:
        return self._poly(((), ()))

    def module_part(self) -> ModuleElement:
        return ModuleElement.from_numerators(
            self.module, {ext[0]: v for (sym, ext), v in self._num.items() if not sym and len(ext) == 1}, self._den)

    # -- ring operations -------------------------------------------------

    def scale(self, a) -> "RothElement":
        """a times the element, for a rational or an algebra element."""
        if isinstance(a, Poly):
            return RothElement.from_scalar(self.module, a).wedge(self)
        a = Fraction(a)
        if not a:
            return RothElement.zero(self.module)
        return RothElement.from_numerators(
            self.module, {k: {e: a.numerator * c for e, c in v.items()} for k, v in self._num.items()},
            self._den * a.denominator)

    def wedge(self, other: "RothElement") -> "RothElement":
        self._check(other)
        backend = self.module.backend
        out: dict = {}
        for (sym, ext), terms in other._num.items():
            _mul_into(out, self._num, (sym, ext, terms), backend)
        return RothElement.from_numerators(self.module, out, self._den * other._den)

    def __repr__(self) -> str:
        from .textforms import roth_to_text

        return roth_to_text(self)


def roth_wedge(a: RothElement, b: RothElement) -> RothElement:
    return a.wedge(b)


def graded_monomials(module: MetricModule, degree: int, exponents):
    """(exp, sym, ext) spanning the degree bucket, in (p, sym, ext, exp) order.

    Each key of p Der factors and degree - 2p module factors is paired with
    the packed exponents exponents(sym, ext) offers; over the dual numbers
    eps times a Der factor dies.
    """
    backend = module.backend
    ngen = num_der_generators(backend)
    for p in range(degree // 2 + 1):
        for sym in itertools.combinations_with_replacement(range(ngen), p):
            for ext in itertools.combinations(range(module.rank), degree - 2 * p):
                for exp in exponents(sym, ext):
                    if not (backend.is_dual and sym and exp):
                        yield exp, sym, ext


# -- the Poisson bracket -------------------------------------------------


def _partials(sym, ext, terms: dict, right: bool, backend: Backend) -> list:
    """(generator, factor, sym, ext, terms) for the derivatives of the group
    sum_e c_e x^e sym ext by its generators, from the right or the left: the
    derivative is factor times the group (sym, ext, terms).

    Only the exterior factors are odd: moving the one at position m of k to
    the right end costs (-1)^(k-1-m), to the left end (-1)^m.  A derivative
    in a Der generator or a basis element shares the terms of the group.
    """
    out = [((0, j), 1, sym, ext, _partial(terms, backend.shifts[j])) for j in _variables(backend, terms)]
    for m, i in enumerate(sym):
        if m == 0 or sym[m - 1] != i:
            out.append(((2, i), sym.count(i), sym[:m] + sym[m + 1:], ext, terms))
    shift = len(ext) - 1 if right else 0
    for m, a in enumerate(ext):
        out.append(((1, a), -1 if (shift + m) % 2 else 1, sym, ext[:m] + ext[m + 1:], terms))
    return out


def _generators_of(groups: dict, backend: Backend) -> list[tuple[int, int]]:
    """The generators with a nonzero partial of the grouped sum, sorted."""
    out = set()
    for (sym, ext), terms in groups.items():
        out.update((0, j) for j in _variables(backend, terms))
        out.update((2, i) for i in sym)
        out.update((1, a) for a in ext)
    return sorted(out)


def generators(module: MetricModule) -> list[tuple[int, int]]:
    """The generators x_j, e_a, D_i keyed as (0, j), (1, a), (2, i)."""
    counts = (module.backend.nvars, module.rank, num_der_generators(module.backend))
    return [(d, i) for d, n in enumerate(counts) for i in range(n)]


def _table(found: list, has_dd: bool, entries: dict, d: int) -> list:
    """The table (see `_generator_table`) of the brackets found, [(u, v,
    [(ext, Poly)])], added to the entries {(v, u, ext): {packed exponent:
    int}} over d of a table."""
    entries, d = _grouped_sum([(1, d, entries)] + [(1, poly._den, {(v, u, ext): poly._num})
                                                   for u, v, pairs in found for ext, poly in pairs
                                                   if not poly.is_zero()])
    rows: dict = {}
    for (v, u, ext), terms in entries.items():
        rows.setdefault(v, {}).setdefault(u, []).append(((), ext, terms))
    return [rows, d, has_dd, entries]


def _generator_table(conn: Connection) -> list:
    """The brackets {u, v} of the generators (module docstring) over one denominator.

    Generators are (degree, index): (0, j) is the variable x_j, (1, a) the
    basis element e_a and (2, i) the Der generator D_i.  Returns [rows, d,
    has_dd, entries]: rows[v][u] is d {u, v} as groups ((), ext, {packed
    exponent: int}) on the pairs with a nonzero value, d is the lcm of the
    denominators of the entries, has_dd says whether the D-D pairs are in
    the table, and entries holds the same numerators keyed (v, u, ext).
    The D-D pairs are added by `_add_dd_rows` on the first read of one,
    because only they need the curvature bivector, and so a metric
    connection.  Built once per connection, on first use, and kept in its
    `_generators` slot.
    """
    module = conn.module
    backend = module.backend
    found = [((1, a), (1, b), [((), module.gram[a][b])])
             for a in range(module.rank) for b in range(module.rank)]  # (u, v, [(ext, Poly)])
    for i in range(num_der_generators(backend)):
        for j in range(backend.nvars):
            # {x_j, D_i} = D_i(x_j) = -{D_i, x_j}
            c = Derivation.basis(backend, i)(Poly.var(backend, j))
            found += [((0, j), (2, i), [((), c)]), ((2, i), (0, j), [((), -c)])]
        for a, image in enumerate(conn.gamma[i]):
            # {e_a, D_i} = nabla_{D_i} e_a = -{D_i, e_a}
            found += [((1, a), (2, i), [((b,), c) for b, c in enumerate(image.coeffs)]),
                      ((2, i), (1, a), [((b,), -c) for b, c in enumerate(image.coeffs)])]
    return _table(found, False, {}, 1)


def _add_dd_rows(table: list, conn: Connection):
    """Put the D-D pairs {D_i, D_j} = -r(D_i, D_j) into the table, all rows
    over the lcm of both denominators.  Raises ModuleError, through
    `curvature`, when the connection is not metric."""
    cur = curvature(conn)
    ngen = num_der_generators(conn.module.backend)
    found = [((2, i), (2, j), [(ab, -c) for ab, c in cur.pair(i, j).items()])
             for i in range(ngen) for j in range(ngen)]
    table[:] = _table(found, True, table[3], table[1])


def _hamiltonian(a: dict, d: int, conn: Connection, vs) -> tuple[dict, int]:
    """Q_a(v) = {a, v} = sum_u (a d<-/du) {u, v} on each generator v of vs.

    a is a grouped sum of numerators over d; its right partials are
    contracted with the connection's generator table, each entry read once
    per pair (u, v).  Returns ({v: grouped sum}, d * d_conn): the values on
    the v with a nonzero value, in the order of vs, as int numerators over
    the denominator of a times that of the table.
    """
    table = conn._generators
    if table is None:
        table = conn._generators = _generator_table(conn)
    backend = conn.module.backend
    partials: dict = {}  # u -> {(sym, ext): terms} of a d<-/du
    for (sym, ext), terms in a.items():
        for u, k, psym, pext, part in _partials(sym, ext, terms, True, backend):
            partials.setdefault(u, {})[psym, pext] = part if k == 1 else {e: k * c for e, c in part.items()}
    if not table[2] and any(u[0] == 2 for u in partials) and any(v[0] == 2 for v in vs):
        _add_dd_rows(table, conn)  # a D-D entry is read
    rows, d_conn = table[0], table[1]
    q = {}
    for v in vs:
        row = rows.get(v)
        if row is None:
            continue
        out: dict = {}
        for u, lefts in partials.items():
            for entry in row.get(u, ()):
                _mul_into(out, lefts, entry, backend)
        out = {key: terms for key, terms in out.items() if terms}
        if out:
            q[v] = out
    return q, d * d_conn


def _apply_derivation(q: dict, terms: dict, backend: Backend) -> dict:
    """The derivation with values q on generators (as `_hamiltonian` returns
    them) on a grouped sum, by Leibniz: Q(t) = sum_v Q(v) (d->/dv t).  Int
    numerators: the result is over the denominator of q times that of terms.
    A group of the result may be empty."""
    out: dict = {}
    for (sym, ext), group in terms.items():
        for v, k, psym, pext, part in _partials(sym, ext, group, False, backend):
            if v in q:
                _mul_into(out, q[v], (psym, pext, part), backend, k)
    return out


def roth_bracket(a: RothElement, b: RothElement, conn: Connection) -> RothElement:
    """Degree -2 graded Poisson bracket for the given metric connection.

    {a, b} = Q_a(b): Q_a is built on the generators b depends on, from the
    generator table of the module docstring, and applied to b by Leibniz,
    on int numerators; each coefficient is divided once, at the end.
    Over the dual numbers the formula acts on the stored representatives,
    because eps^2 and eps * D generate a Poisson ideal.
    """
    a._check(b)
    module = a.module
    if conn.module != module:
        raise ModuleError("connection lives on a different module")
    backend = module.backend
    q, d_q = _hamiltonian(a._num, a._den, conn, _generators_of(b._num, backend))
    return RothElement.from_numerators(module, _apply_derivation(q, b._num, backend), d_q * b._den)


def nested_bracket_with_scalars(phi: RothElement, args, conn: Connection) -> RothElement:
    """{...{phi, a_1}, ...}, a_k} for algebra elements a_i."""
    out = phi
    for a in args:
        out = roth_bracket(out, RothElement.from_scalar(phi.module, a), conn)
    return out


# -- change of connection ------------------------------------------------


class ConnectionChange:
    """The degree-zero derivation t with <t(D), x ^ y> = <(nabla - nabla')_D x, y>."""

    __slots__ = ("module", "source", "target", "t_table", "_t")

    def __init__(self, source: Connection, target: Connection):
        if source.module != target.module:
            raise ModuleError("connections live on different modules")
        module = source.module
        if not source.is_metric() or not target.is_metric():
            raise ModuleError("connection change needs two metric connections")
        pairs = list(itertools.product(range(module.rank), repeat=2))
        table = []
        for i in range(num_der_generators(module.backend)):
            diff = [source.gamma[i][a] - target.gamma[i][a] for a in range(module.rank)]
            pairing = {(a, b): inner(diff[a], module.basis(b)) for a, b in pairs}
            table.append(raise_exterior(module, 2, pairing))
        self.module = module
        self.source = source
        self.target = target
        self.t_table = table
        # t on the generators D_i, as int numerators over one denominator
        images = [RothElement.from_lambda2(module, xi) for xi in table]
        nums, d = _grouped_sum([(1, x._den, {((2, i), key): terms for key, terms in x._num.items()})
                                for i, x in enumerate(images)])
        values: dict = {}
        for (v, key), terms in nums.items():
            values.setdefault(v, {})[key] = terms
        self._t = (values, d)

    def apply_t(self, phi: RothElement) -> RothElement:
        """One application of t, the derivation sending D_i to its Lambda^2 image."""
        q, d_t = self._t
        return RothElement.from_numerators(
            self.module, _apply_derivation(q, phi._num, self.module.backend), d_t * phi._den)

    def exp_t(self, phi: RothElement) -> RothElement:
        """exp(t) phi; the series stops once the symmetric degree is exhausted."""
        out = RothElement.zero(self.module)
        term = phi
        n = 0
        fact = 1
        while not term.is_zero():
            out = out + term.scale(Fraction(1, fact))
            term = self.apply_t(term)
            n += 1
            fact *= n
        return out


# -- push forward ---------------------------------------------------------


class AlgebraMap:
    """Identity or variable-permutation isomorphism between backends."""

    __slots__ = ("source", "target", "perm")

    def __init__(self, source: Backend, target: Backend, perm=None):
        if source.nvars != target.nvars or source.kind != target.kind:
            raise ValueError("algebra map needs same kind and variable count")
        if perm is None:
            perm = tuple(range(source.nvars))
        perm = tuple(perm)
        if sorted(perm) != list(range(source.nvars)):
            raise ValueError("perm must be a permutation of the variables")
        self.source = source
        self.target = target
        self.perm = perm

    def __call__(self, a: Poly) -> Poly:
        terms = {}
        for exp, c in a.terms.items():
            new = [0] * len(exp)
            for i, e in enumerate(exp):
                new[self.perm[i]] = e
            terms[tuple(new)] = c
        return Poly(self.target, terms)

    def inverse(self) -> "AlgebraMap":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return AlgebraMap(self.target, self.source, tuple(inv))

    def push_der_generator(self, i: int) -> int:
        """g_* D = g o D o g^{-1} permutes the coordinate derivations."""
        return self.perm[i] if not self.source.is_dual else i


class ModuleMap:
    """R-linear module bijection along an algebra map, given by its matrix.

    matrix[b][a] is the f_b coefficient of the image of e_a.
    """

    __slots__ = ("source", "target", "algebra_map", "matrix")

    def __init__(self, source: MetricModule, target: MetricModule, matrix, algebra_map: AlgebraMap | None = None):
        if algebra_map is None:
            algebra_map = AlgebraMap(source.backend, target.backend)
        self.source = source
        self.target = target
        self.algebra_map = algebra_map
        self.matrix = tuple(tuple(row) for row in matrix)

    def __call__(self, x: ModuleElement) -> ModuleElement:
        g = self.algebra_map
        coeffs = [Poly.zero(self.target.backend) for _ in range(self.target.rank)]
        for a, c in enumerate(x.coeffs):
            if c.is_zero():
                continue
            gc = g(c)
            for b in range(self.target.rank):
                coeffs[b] = coeffs[b] + gc * self.matrix[b][a]
        return ModuleElement(self.target, coeffs)

    def is_isometric(self) -> bool:
        g = self.algebra_map
        for a in range(self.source.rank):
            for b in range(self.source.rank):
                lhs = inner(self(self.source.basis(a)), self(self.source.basis(b)))
                if lhs != g(self.source.gram[a][b]):
                    return False
        return True

    def left_inverse(self, y: ModuleElement) -> ModuleElement:
        """H with <H(y), x>_E = g^{-1}(<y, G(x)>_F)."""
        ginv = self.algebra_map.inverse()
        vals = [ginv(inner(y, self(self.source.basis(a)))) for a in range(self.source.rank)]
        return self.source.raise_form(vals)

    def transported_connection(self, conn: Connection) -> Connection:
        """nabla'_D y = G(nabla_{g*^{-1} D} H(y)) on the target module."""
        module = self.target
        ngen = num_der_generators(module.backend)
        g = self.algebra_map
        back = {g.push_der_generator(i): i for i in range(ngen)}
        gamma = []
        for j in range(ngen):
            i = back[j]
            row = []
            for b in range(module.rank):
                row.append(self(conn.nabla_gen(i, self.left_inverse(module.basis(b)))))
            gamma.append(row)
        return Connection(module, gamma)


def roth_pushforward(phi: RothElement, gmap: ModuleMap) -> RothElement:
    """Transport along an isometric bijection; a Poisson morphism onto the
    bracket built from the transported connection."""
    if not gmap.is_isometric():
        raise ModuleError("push forward requires an isometric module map")
    module = gmap.target
    g = gmap.algebra_map
    out = RothElement.zero(module)
    for (sym, ext), c in phi.terms.items():
        term = RothElement.from_scalar(module, g(c))
        for i in sym:
            term = term.wedge(RothElement.monomial(module, (g.push_der_generator(i),), ()))
        for a in ext:
            term = term.wedge(RothElement.from_module_element(gmap(phi.module.basis(a))))
        out = out + term
    return out
