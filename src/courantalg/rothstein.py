"""The graded algebra Sym(Der A) (x) Lambda(E) with its degree -2 Poisson bracket.

Elements are stored as normalized term sums c * D_{i1} v ... v D_{ip} (x)
e_{a1} ^ ... ^ e_{ak}; a Der generator counts degree 2 and a module basis
element degree 1.  The bracket is fixed on generators by

    {a, b} = 0,  {a, x} = 0,  {x, y} = <x, y>,
    {D, a} = -D(a),  {D, x} = -nabla_D x,  {D, E} = -[D, E] - r(D, E)

and extended by the graded Leibniz rule; it depends on a metric connection
through nabla and the curvature bivector r.
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
        backend = self.module.backend
        for (s1, x1), c1 in self.terms.items():
            for (s2, x2), c2 in other.terms.items():
                merged = _merge_ext(x1, x2)
                if merged is None:
                    continue
                sign, ext = merged
                key = (tuple(sorted(s1 + s2)), ext)
                c = c1 * c2
                if sign < 0:
                    c = -c
                out[key] = out.get(key, Poly.zero(backend)) + c
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


def _factor_split(key: TermKey, coeff: Poly, module: MetricModule):
    """Leading factor and remainder of a monomial term, or None if single."""
    sym, ext = key
    if not sym and not ext:
        return None  # pure scalar: a single degree-0 factor
    one = Poly.one(module.backend)
    if not coeff.is_one():
        return ("coef", coeff), RothElement(module, {key: one})
    if sym and (len(sym) + len(ext)) > 1:
        return ("der", sym[0]), RothElement(module, {(sym[1:], ext): one})
    if len(ext) > 1:
        return ("ext", ext[0]), RothElement(module, {((), ext[1:]): one})
    return None


def _single_factor(key: TermKey, coeff: Poly):
    sym, ext = key
    if sym:
        return ("der", sym[0])
    if ext:
        return ("ext", ext[0])
    return ("coef", coeff)


def _factor_degree(f) -> int:
    return {"coef": 0, "der": 2, "ext": 1}[f[0]]


def _factor_element(module: MetricModule, f) -> RothElement:
    kind, val = f
    if kind == "coef":
        return RothElement.from_scalar(module, val)
    if kind == "der":
        return RothElement.monomial(module, (val,), ())
    return RothElement.monomial(module, (), (val,))


def _base_bracket(module: MetricModule, conn: Connection, f1, f2) -> RothElement:
    """Bracket of two single factors from the generator table."""
    k1, v1 = f1
    k2, v2 = f2
    backend = module.backend
    if k1 == "coef" and k2 == "coef":
        return RothElement.zero(module)
    if k1 == "coef" and k2 == "ext":
        return RothElement.zero(module)
    if k1 == "ext" and k2 == "coef":
        return RothElement.zero(module)
    if k1 == "coef" and k2 == "der":
        d = Derivation.basis(backend, v2)
        return RothElement.from_scalar(module, d(v1))
    if k1 == "der" and k2 == "coef":
        d = Derivation.basis(backend, v1)
        return RothElement.from_scalar(module, -d(v2))
    if k1 == "ext" and k2 == "ext":
        return RothElement.from_scalar(module, module.gram[v1][v2])
    if k1 == "der" and k2 == "ext":
        return -RothElement.from_module_element(conn.gamma[v1][v2])
    if k1 == "ext" and k2 == "der":
        return RothElement.from_module_element(conn.gamma[v2][v1])
    # der, der: generators commute, so only the curvature term remains
    cur = curvature(conn)
    return -RothElement.from_lambda2(module, cur.pair(v1, v2))


def _bracket_tt(module, conn, key1, c1, key2, c2, side: str) -> RothElement:
    """Bracket of two monomial terms by Leibniz peeling."""
    deg1 = 2 * len(key1[0]) + len(key1[1])
    deg2 = 2 * len(key2[0]) + len(key2[1])
    split1 = _factor_split(key1, c1, module)
    split2 = _factor_split(key2, c2, module)
    if side == "right" and split2 is not None:
        split1 = None
    if split1 is not None:
        # {u ^ rest, t2} = u ^ {rest, t2} + (-1)^{|rest| |t2|} {u, t2} ^ rest
        u, rest = split1
        du = _factor_degree(u)
        ue = _factor_element(module, u)
        out = ue.wedge(roth_bracket(rest, RothElement(module, {key2: c2}), conn, side))
        tail = roth_bracket(ue, RothElement(module, {key2: c2}), conn, side).wedge(rest)
        if ((deg1 - du) * deg2) % 2:
            tail = -tail
        return out + tail
    if split2 is not None:
        # {t1, v ^ rest} = {t1, v} ^ rest + (-1)^{|t1| |v|} v ^ {t1, rest}
        v, rest = split2
        dv = _factor_degree(v)
        ve = _factor_element(module, v)
        out = roth_bracket(RothElement(module, {key1: c1}), ve, conn, side).wedge(rest)
        tail = ve.wedge(roth_bracket(RothElement(module, {key1: c1}), rest, conn, side))
        if (deg1 * dv) % 2:
            tail = -tail
        return out + tail
    return _base_bracket(module, conn, _single_factor(key1, c1), _single_factor(key2, c2))


def roth_bracket(a: RothElement, b: RothElement, conn: Connection, side: str = "left") -> RothElement:
    """Degree -2 graded Poisson bracket for the given metric connection.

    side selects which argument is Leibniz-peeled first; both give the same
    answer and the redundancy is exercised by the test-suite.
    """
    a._check(b)
    if conn.module != a.module:
        raise ModuleError("connection lives on a different module")
    out = RothElement.zero(a.module)
    for key1, c1 in a.terms.items():
        for key2, c2 in b.terms.items():
            out = out + _bracket_tt(a.module, conn, key1, c1, key2, c2, side)
    return out


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
