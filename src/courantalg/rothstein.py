"""The graded algebra Sym(Der A) (x) Lambda(E) with its degree -2 Poisson bracket.

Elements are stored as normalized term sums c * D_{i1} v ... v D_{ip} (x)
e_{a1} ^ ... ^ e_{ak}; a Der generator counts degree 2 and a module basis
element degree 1.  This is the function algebra of a degree-2 symplectic
graded manifold (Rothstein 1991; Roytenberg, math/0203110), so {a, .} is the
Hamiltonian derivation Q_a of a, fixed by its values on the generators
x_j, D_i, e_a:

    Q_a(v) = {a, v} = sum_u (a d<-/du) {u, v},   {a, b} = sum_v Q_a(v) (d->/dv b),

with the generator table

    {e_a, e_b} = <e_a, e_b>,  {D_i, e_a} = -nabla_{D_i} e_a,
    {D_i, D_j} = -r(D_i, D_j),  {D_i, x_j} = -D_i(x_j)

up to graded antisymmetry, and 0 on the other pairs; it depends on a metric
connection through nabla and the curvature bivector r.  One kernel does all
of this on flat sums {(exp, sym, ext): coefficient}: `_hamiltonian` builds
Q_a, `_apply_derivation` applies it by Leibniz, and both multiply through
`_mul_into`, as does the wedge product.  `roth_bracket` and the deformation
differential of `deform` are this kernel.
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


def _exact(c):
    return c.numerator if c.denominator == 1 else c  # int products skip Fraction's normalization


def _mul_into(out: dict, lefts, right, dual: bool):
    """out += (sum of lefts) * right for grouped monomials (sym, ext, [(exp, coefficient)]).

    The one product step: merge the exterior parts with their sign, add the
    exponents, and over the dual numbers drop a term with eps^2 or with eps
    and a Der factor (the reduction RothElement applies).
    """
    sym2, ext2, terms2 = right
    for sym1, ext1, terms1 in lefts:
        merged = _merge_ext(ext1, ext2)
        if merged is None:
            continue
        sign, ext = merged
        sym = tuple(sorted(sym1 + sym2)) if sym1 and sym2 else sym1 or sym2
        for exp1, c1 in terms1:
            for exp2, c2 in terms2:
                exp = tuple(map(int.__add__, exp1, exp2))
                if dual and exp[0] and (exp[0] > 1 or sym):
                    continue
                key = (exp, sym, ext)
                s = out.get(key, 0)
                s = s + c1 * c2 if sign > 0 else s - c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]


def _grouped(flat: dict) -> list:
    """A flat sum {(exp, sym, ext): coefficient} as grouped monomials."""
    groups: dict = {}
    for (exp, sym, ext), c in flat.items():
        groups.setdefault((sym, ext), []).append((exp, _exact(c)))
    return [(sym, ext, terms) for (sym, ext), terms in groups.items()]


def _to_roth(module: MetricModule, flat: dict) -> "RothElement":
    return RothElement(module, {(sym, ext): Poly(module.backend, dict(terms))
                                for sym, ext, terms in _grouped(flat)})


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

    def flat(self) -> dict:
        """The terms as a flat sum {(exp, sym, ext): coefficient}, integral ones as ints."""
        return {(exp, sym, ext): _exact(c)
                for (sym, ext), poly in self.terms.items() for exp, c in poly.terms.items()}

    def wedge(self, other: "RothElement") -> "RothElement":
        self._check(other)
        dual = self.module.backend.is_dual
        out: dict = {}
        lefts = _grouped(self.flat())
        for right in _grouped(other.flat()):
            _mul_into(out, lefts, right, dual)
        return _to_roth(self.module, out)

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


def _partials(exp, sym, ext, right: bool):
    """(generator, factor, exp, sym, ext) for the derivatives of the unit
    monomial x^exp sym ext by its generators, from the right or the left.

    Only the exterior factors are odd: moving the one at position m of k to
    the right end costs (-1)^(k-1-m), to the left end (-1)^m.
    """
    out = [((0, j), e, exp[:j] + (e - 1,) + exp[j + 1:], sym, ext) for j, e in enumerate(exp) if e]
    for m, i in enumerate(sym):
        if m == 0 or sym[m - 1] != i:
            out.append(((2, i), sym.count(i), exp, sym[:m] + sym[m + 1:], ext))
    shift = len(ext) - 1 if right else 0
    for m, a in enumerate(ext):
        out.append(((1, a), -1 if (shift + m) % 2 else 1, exp, sym, ext[:m] + ext[m + 1:]))
    return out


def _generator_bracket(conn: Connection, u, v):
    """{u, v} as grouped monomials ((), ext, [(exp, coefficient)]); see the
    module docstring.

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
    return [((), ext, [(exp, _exact(a)) for exp, a in c.terms.items()])
            for ext, c in entries if c.terms]


def generators(module: MetricModule) -> list[tuple[int, int]]:
    """The generators x_j, e_a, D_i keyed as (0, j), (1, a), (2, i)."""
    counts = (module.backend.nvars, module.rank, num_der_generators(module.backend))
    return [(d, i) for d, n in enumerate(counts) for i in range(n)]


def _hamiltonian(a: RothElement, conn: Connection, vs) -> dict:
    """Q_a(v) = {a, v} = sum_u (a d<-/du) {u, v} on each generator v of vs.

    a's right partials are contracted with the generator table, each entry
    read once per pair (u, v).  Returns {v: grouped monomials} on the v with
    a nonzero value, integral coefficients kept as ints.
    """
    partials: dict = {}  # u -> {(sym, ext): [(exp, coefficient)]} of a d<-/du
    for key, c in a.flat().items():
        for u, k, exp, sym, ext in _partials(*key, right=True):
            partials.setdefault(u, {}).setdefault((sym, ext), []).append((exp, k * c))
    partials = {u: [(sym, ext, terms) for (sym, ext), terms in groups.items()]
                for u, groups in partials.items()}
    dual = a.module.backend.is_dual
    table = {}
    for v in vs:
        out: dict = {}
        for u, lefts in partials.items():
            for entry in _generator_bracket(conn, u, v):
                _mul_into(out, lefts, entry, dual)
        if out:
            table[v] = _grouped(out)
    return table


def _apply_derivation(q: dict, terms: dict, dual: bool) -> dict:
    """The derivation with values q on generators (as `_hamiltonian` returns
    them) on a flat sum, by Leibniz: Q(t) = sum_v Q(v) (d->/dv t)."""
    out: dict = {}
    for key, c in terms.items():
        for v, k, exp, sym, ext in _partials(*key, right=False):
            if v in q:
                _mul_into(out, q[v], (sym, ext, ((exp, c * k),)), dual)
    return out


def roth_bracket(a: RothElement, b: RothElement, conn: Connection) -> RothElement:
    """Degree -2 graded Poisson bracket for the given metric connection.

    {a, b} = Q_a(b): Q_a is built on the generators b depends on, from the
    generator table of the module docstring, and applied to b by Leibniz.
    Over the dual numbers the formula acts on the stored representatives,
    because eps^2 and eps * D generate a Poisson ideal.
    """
    a._check(b)
    module = a.module
    if conn.module != module:
        raise ModuleError("connection lives on a different module")
    terms = b.flat()
    needed = sorted({p[0] for key in terms for p in _partials(*key, right=False)})
    q = _hamiltonian(a, conn, needed)
    return _to_roth(module, _apply_derivation(q, terms, module.backend.is_dual))


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
        """One application of t, the derivation sending D_i to its Lambda^2 image."""
        module = self.module
        q = {(2, i): _grouped(RothElement.from_lambda2(module, xi).flat())
             for i, xi in enumerate(self.t_table)}
        return _to_roth(module, _apply_derivation(q, phi.flat(), module.backend.is_dual))

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
