"""The graded algebra Sym(Der A) (x) Lambda(E) with its degree -2 Poisson bracket.

Elements are stored as normalized term sums c * D_{i1} v ... v D_{ip} (x)
e_{a1} ^ ... ^ e_{ak}; a Der generator counts degree 2 and a module basis
element degree 1.  This is the function algebra of a degree-2 symplectic
graded manifold (Rothstein 1991; Roytenberg, math/0203110), so the bracket
is the closed form {f, g} = sum_{u, v} (f d<-/du) {u, v} (d->/dv g) over the
generators x_j, D_i, e_a, with the generator table

    {e_a, e_b} = <e_a, e_b>,  {D_i, e_a} = -nabla_{D_i} e_a,
    {D_i, D_j} = -r(D_i, D_j),  {D_i, x_j} = -D_i(x_j)

up to graded antisymmetry, and 0 on the other pairs; it depends on a metric
connection through nabla and the curvature bivector r.
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
from .poly import Backend, Derivation, Poly, num_der_generators

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


def _accumulate(acc: dict[TermKey, Poly], sym, ext1, ext2, coeff: Poly, factor: int = 1):
    """acc[sym, ext1 ^ ext2] += factor * coeff, signed by sorting the exterior part."""
    merged = _merge_ext(ext1, ext2)
    if merged is None:
        return
    sign, ext = merged
    factor *= sign
    if factor != 1:
        coeff = -coeff if factor == -1 else coeff.scale(factor)
    key = (tuple(sorted(sym)), ext)
    prev = acc.get(key)
    acc[key] = coeff if prev is None else prev + coeff


class RothElement:
    """Sum of graded terms over a metric module; immutable."""

    __slots__ = ("module", "terms", "_hash")

    def __init__(self, module: MetricModule, terms: dict[TermKey, Poly]):
        backend = module.backend
        clean: dict[TermKey, Poly] = {}
        for (sym, ext), c in terms.items():
            if backend.is_dual and len(sym) >= 1:
                # eps * (epsd v ...) = 0, so coefficients reduce mod eps
                c = Poly(backend, {(0,): c.constant_part()})
            if c.is_zero():
                continue
            sym = tuple(sorted(sym))
            if any(ext[i] >= ext[i + 1] for i in range(len(ext) - 1)):
                raise ValueError("exterior part must be strictly increasing")
            key = (sym, ext)
            prev = clean.get(key)
            clean[key] = c if prev is None else prev + c
            if clean[key].is_zero():
                del clean[key]
        self.module = module
        self.terms = clean
        self._hash = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(module: MetricModule) -> "RothElement":
        return RothElement(module, {})

    @staticmethod
    def from_scalar(module: MetricModule, a: Poly) -> "RothElement":
        return RothElement(module, {((), ()): a})

    @staticmethod
    def from_module_element(x: ModuleElement) -> "RothElement":
        return RothElement(x.module, {((), (a,)): c for a, c in enumerate(x.coeffs)})

    @staticmethod
    def from_derivation(module: MetricModule, d: Derivation) -> "RothElement":
        if module.backend.is_dual:
            return RothElement(module, {((0,), ()): Poly.const(module.backend, d.coeffs[0])})
        return RothElement(module, {((i,), ()): c for i, c in enumerate(d.coeffs)})

    @staticmethod
    def from_lambda2(module: MetricModule, xi: dict[tuple[int, int], Poly]) -> "RothElement":
        return RothElement(module, {((), (a, b)): c for (a, b), c in xi.items()})

    @staticmethod
    def monomial(module: MetricModule, sym, ext, coeff=None) -> "RothElement":
        c = Poly.one(module.backend) if coeff is None else coeff
        return RothElement(module, {(tuple(sorted(sym)), tuple(ext)): c})

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {2 * len(sym) + len(ext) for (sym, ext) in self.terms}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError("inhomogeneous element has no single degree")
        return degs.pop() if degs else 0

    def homogeneous_part(self, r: int) -> "RothElement":
        return RothElement(
            self.module,
            {k: c for k, c in self.terms.items() if 2 * len(k[0]) + len(k[1]) == r},
        )

    def max_sym_degree(self) -> int:
        return max((len(sym) for (sym, ext) in self.terms), default=0)

    def scalar_part(self) -> Poly:
        return self.terms.get(((), ()), Poly.zero(self.module.backend))

    def module_part(self) -> ModuleElement:
        coeffs = [Poly.zero(self.module.backend) for _ in range(self.module.rank)]
        for (sym, ext), c in self.terms.items():
            if not sym and len(ext) == 1:
                coeffs[ext[0]] = coeffs[ext[0]] + c
        return ModuleElement(self.module, coeffs)

    # -- ring operations -------------------------------------------------

    def _check(self, other: "RothElement"):
        if self.module != other.module:
            raise ModuleError("module mismatch")

    def __add__(self, other: "RothElement") -> "RothElement":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Poly.zero(self.module.backend)) + c
        return RothElement(self.module, terms)

    def __sub__(self, other: "RothElement") -> "RothElement":
        return self + (-other)

    def __neg__(self) -> "RothElement":
        return RothElement(self.module, {k: -c for k, c in self.terms.items()})

    def scale(self, a) -> "RothElement":
        if not isinstance(a, Poly):
            a = Poly.const(self.module.backend, a)
        return RothElement(self.module, {k: a * c for k, c in self.terms.items()})

    def wedge(self, other: "RothElement") -> "RothElement":
        self._check(other)
        out: dict[TermKey, Poly] = {}
        for (s1, x1), c1 in self.terms.items():
            for (s2, x2), c2 in other.terms.items():
                _accumulate(out, s1 + s2, x1, x2, c1 * c2)
        return RothElement(self.module, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RothElement):
            return NotImplemented
        return self.module == other.module and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.module, tuple(sorted(self.terms.items()))))
        return self._hash

    def __repr__(self) -> str:
        from .textforms import roth_to_text

        return roth_to_text(self)


def roth_wedge(a: RothElement, b: RothElement) -> RothElement:
    return a.wedge(b)


def graded_monomials(module: MetricModule, degree: int, exponents):
    """(exp, sym, ext) spanning the degree bucket, in (p, sym, ext, exp) order.

    Each key of p Der factors and degree - 2p module factors is paired with
    the exponent tuples exponents(sym, ext) offers; over the dual numbers eps
    times a Der factor dies.
    """
    backend = module.backend
    ngen = num_der_generators(backend)
    for p in range(degree // 2 + 1):
        for sym in itertools.combinations_with_replacement(range(ngen), p):
            for ext in itertools.combinations(range(module.rank), degree - 2 * p):
                for exp in exponents(sym, ext):
                    if not (backend.is_dual and sym and exp[0]):
                        yield exp, sym, ext


# -- the Poisson bracket -------------------------------------------------


def _partials(key: TermKey, right: bool):
    """(generator, factor, sym, ext) for the derivatives of the unit monomial key
    by its Der and exterior factors, from the right or from the left.

    Only the exterior factors are odd: moving the one at position m of k to
    the right end costs (-1)^(k-1-m), to the left end (-1)^m.
    """
    sym, ext = key
    out = []
    for m, i in enumerate(sym):
        if m == 0 or sym[m - 1] != i:
            out.append(((2, i), sym.count(i), sym[:m] + sym[m + 1:], ext))
    shift = len(ext) - 1 if right else 0
    for m, a in enumerate(ext):
        out.append(((1, a), -1 if (shift + m) % 2 else 1, sym, ext[:m] + ext[m + 1:]))
    return out


def _generator_bracket(conn: Connection, u, v):
    """{u, v} as (ext, coefficient) pairs; see roth_bracket.

    Generators are (degree, index): (0, j) is the variable x_j, (1, a) the
    basis element e_a and (2, i) the Der generator D_i.
    """
    (du, i), (dv, j) = u, v
    if (du, dv) == (1, 1):
        entries = [((), conn.module.gram[i][j])]
    elif (du, dv) == (2, 2):
        entries = [(ab, -c) for ab, c in curvature(conn).pair(i, j).items()]
    elif {du, dv} == {1, 2}:
        # {e_a, D_i} = Gamma_i(e_a) = -{D_i, e_a}
        image = conn.gamma[j][i] if du == 1 else -conn.gamma[i][j]
        entries = [((b,), c) for b, c in enumerate(image.coeffs)]
    elif {du, dv} == {0, 2}:
        # {x_j, D_i} = D_i(x_j) = -{D_i, x_j}
        backend = conn.module.backend
        entries = [((), Derivation.basis(backend, j)(Poly.var(backend, i)) if du == 0
                    else -Derivation.basis(backend, i)(Poly.var(backend, j)))]
    else:
        return []
    return [(ext, c) for ext, c in entries if not c.is_zero()]


def roth_bracket(a: RothElement, b: RothElement, conn: Connection) -> RothElement:
    """Degree -2 graded Poisson bracket for the given metric connection.

    {f, g} = sum_{u, v} (f d<-/du) {u, v} (d->/dv g) over the generators x_j,
    D_i, e_a, with the table {e_a, e_b} = g_ab, {D_i, e_a} = -Gamma_i(e_a),
    {D_i, D_j} = -r(D_i, D_j), {D_i, x_j} = -D_i(x_j), the graded
    antisymmetric entries and 0 otherwise; each entry is read where it is
    used.  The table is contracted against g once per generator u, then
    against f.  Over the dual numbers the formula acts on the stored
    representatives, because eps^2 and eps * D generate a Poisson ideal.
    """
    a._check(b)
    module = a.module
    if conn.module != module:
        raise ModuleError("connection lives on a different module")
    nvars = module.backend.nvars
    generators = [(d, i) for d, n in enumerate((nvars, module.rank, num_der_generators(module.backend)))
                  for i in range(n)]
    # column[u] = sum_v {u, v} (d->/dv g); the monomial part of each term goes
    # first on both sides, so its coefficient multiplies each key once
    column: dict[tuple[int, int], dict[TermKey, Poly]] = {}
    for key, c in b.terms.items():
        unit: dict[tuple[int, int], dict[TermKey, Poly]] = {}
        for v, k, sg, xg in _partials(key, right=False):
            for u in generators:
                for xm, cm in _generator_bracket(conn, u, v):
                    _accumulate(unit.setdefault(u, {}), sg, xm, xg, cm, k)
        for u, terms in unit.items():
            for (sym, ext), cm in terms.items():
                _accumulate(column.setdefault(u, {}), sym, ext, (), cm * c)
        for j in range(nvars):
            dc = c.partial(j)
            if dc.is_zero():
                continue
            for u in generators:
                for xm, cm in _generator_bracket(conn, u, (0, j)):
                    _accumulate(column.setdefault(u, {}), key[0], xm, key[1], cm * dc)
    out: dict[TermKey, Poly] = {}
    for key, c in a.terms.items():
        inner: dict[TermKey, Poly] = {}
        for u, k, sf, xf in _partials(key, right=True):
            for (sh, xh), ch in column.get(u, {}).items():
                _accumulate(inner, sf + sh, xf, xh, ch, k)
        for (sym, ext), v in inner.items():
            _accumulate(out, sym, ext, (), c * v)
        for j in range(nvars):
            dc = c.partial(j)
            if dc.is_zero():
                continue
            for (sh, xh), ch in column.get((0, j), {}).items():
                _accumulate(out, key[0] + sh, key[1], xh, dc * ch)
    return RothElement(module, out)


def nested_bracket_with_modules(phi: RothElement, args, conn: Connection) -> RothElement:
    """{...{phi, x_1}, ...}, x_k} for module elements x_i."""
    out = phi
    for x in args:
        out = roth_bracket(out, RothElement.from_module_element(x), conn)
    return out


def nested_bracket_with_scalars(phi: RothElement, args, conn: Connection) -> RothElement:
    """{...{phi, a_1}, ...}, a_k} for algebra elements a_i."""
    out = phi
    for a in args:
        out = roth_bracket(out, RothElement.from_scalar(phi.module, a), conn)
    return out


# -- change of connection ------------------------------------------------


class ConnectionChange:
    """The degree-zero derivation t with <t(D), x ^ y> = <(nabla - nabla')_D x, y>."""

    __slots__ = ("module", "source", "target", "t_table")

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

    def apply_t(self, phi: RothElement) -> RothElement:
        """One application of t: replace one Der factor by its Lambda^2 image."""
        module = self.module
        out = RothElement.zero(module)
        for (sym, ext), c in phi.terms.items():
            for j in range(len(sym)):
                rest = sym[:j] + sym[j + 1:]
                image = RothElement.from_lambda2(module, self.t_table[sym[j]])
                term = RothElement(module, {(rest, ext): c})
                out = out + term.wedge(image)
        return out

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
