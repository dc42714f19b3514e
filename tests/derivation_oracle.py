"""Reference oracle for derivations: the coordinate format and the recursive expansion.

`OracleDerivation` stores a derivation by its coordinates: Polys on d/dx_i
over Q[x], one Fraction on epsd over the dual numbers (epsd(eps) = eps, and
eps * epsd = 0), each operation deciding the backend for itself.
`multiderivation_eval` expands the first argument that is not a generator by
the Leibniz rule and recurses; `eval_level` does the same for one level of a
cochain's tower, reading generator tuples through `Cochain._eval_mono`, and
`symbol` reads the level-1 values on the generators back into coordinates.

The library stores every derivation-like object by its values on the
algebra generators and reads it through one chain-rule expansion
(`poly.generator_expansion`); it must agree with these on every input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from courantalg.poly import Backend, BackendError, MultiDerivation, Poly

QZERO, QONE = Fraction(0), Fraction(1)


class OracleDerivation:
    """Element of Der(A) by its coordinates on the Der generators."""

    __slots__ = ("backend", "coeffs")

    def __init__(self, backend: Backend, coeffs):
        self.backend = backend
        if backend.is_dual:
            self.coeffs = (Fraction(coeffs[0] if isinstance(coeffs, tuple) else coeffs),)
        else:
            coeffs = tuple(coeffs)
            if len(coeffs) != backend.nvars:
                raise ValueError("need one coefficient per coordinate derivation")
            self.coeffs = coeffs

    @staticmethod
    def basis(backend: Backend, i: int) -> "OracleDerivation":
        if backend.is_dual:
            return OracleDerivation(backend, QONE)
        coeffs = [Poly.zero(backend) for _ in range(backend.nvars)]
        coeffs[i] = Poly.one(backend)
        return OracleDerivation(backend, tuple(coeffs))

    def coordinate_polys(self) -> tuple[Poly, ...]:
        """The coordinates as Polys on both backends."""
        if self.backend.is_dual:
            return (Poly.const(self.backend, self.coeffs[0]),)
        return self.coeffs

    def is_zero(self) -> bool:
        if self.backend.is_dual:
            return self.coeffs[0] == 0
        return all(c.is_zero() for c in self.coeffs)

    def __call__(self, a: Poly) -> Poly:
        if a.backend != self.backend:
            raise BackendError("backend mismatch")
        if self.backend.is_dual:
            c1 = a.terms.get((1,), QZERO)  # epsd sends c0 + c1*eps to c1*eps
            return Poly(self.backend, {(1,): self.coeffs[0] * c1})
        out = Poly.zero(self.backend)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * a.partial(i)
        return out

    def __add__(self, other: "OracleDerivation") -> "OracleDerivation":
        if self.backend.is_dual:
            return OracleDerivation(self.backend, self.coeffs[0] + other.coeffs[0])
        return OracleDerivation(self.backend, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "OracleDerivation") -> "OracleDerivation":
        if self.backend.is_dual:
            return OracleDerivation(self.backend, self.coeffs[0] - other.coeffs[0])
        return OracleDerivation(self.backend, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "OracleDerivation":
        if self.backend.is_dual:
            return OracleDerivation(self.backend, -self.coeffs[0])
        return OracleDerivation(self.backend, tuple(-c for c in self.coeffs))

    def scale(self, a) -> "OracleDerivation":
        """Module action; over the dual numbers the eps-part of the scalar annihilates."""
        if self.backend.is_dual:
            if isinstance(a, Poly):
                a = a.constant_part()
            return OracleDerivation(self.backend, self.coeffs[0] * Fraction(a))
        if not isinstance(a, Poly):
            a = Poly.const(self.backend, a)
        return OracleDerivation(self.backend, tuple(a * c for c in self.coeffs))

    def commutator(self, other: "OracleDerivation") -> "OracleDerivation":
        if self.backend.is_dual:
            return OracleDerivation(self.backend, QZERO)  # [a*epsd, b*epsd](eps) = ab*eps - ba*eps
        return OracleDerivation(self.backend, tuple(self(other.coeffs[j]) - other(self.coeffs[j])
                                                    for j in range(self.backend.nvars)))

    def __eq__(self, other) -> bool:
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.backend, self.coeffs))

    def __repr__(self) -> str:
        if self.backend.is_dual:
            return "%s*epsd" % self.coeffs[0]
        parts = ["(%s)*d/d%s" % (c, n) for c, n in zip(self.coeffs, self.backend.names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def _generator_var(backend: Backend, j: int) -> Poly:
    return Poly.var(backend, 0 if backend.is_dual else j)


def _partials(a: Poly) -> list[tuple[int, Poly]]:
    """(j, da/dg_j) for each nonzero partial along the Der generators."""
    parts = [(j, a.partial(j)) for j in range(1 if a.backend.is_dual else a.backend.nvars)]
    return [(j, part) for j, part in parts if not part.is_zero()]


def _generator_index(a: Poly) -> int | None:
    """The index of the variable if a is exactly one generator, else None."""
    if len(a.terms) != 1:
        return None
    (exp, c), = a.terms.items()
    if c != 1 or sum(exp) != 1:
        return None
    return exp.index(1)


def multiderivation_eval(P: MultiDerivation, args) -> Poly:
    """P(args): expand the first slot that holds no generator through its partials, recurse."""
    args = list(args)
    fixed: list[int] = []
    for k, a in enumerate(args):
        idx = _generator_index(a)
        if idx is None:
            out = Poly.zero(P.backend)
            for j, part in _partials(a):
                sub = args[:k] + [_generator_var(P.backend, j)] + args[k + 1:]
                out = out + part * multiderivation_eval(P, sub)
            return out
        fixed.append(idx)
    return P.table.get(tuple(sorted(fixed)), Poly.zero(P.backend))


def sym_product(ds: list[OracleDerivation]) -> MultiDerivation:
    """(D_1 v ... v D_p)(g_1..g_p) = sum over permutations of prod D_i(g_sigma(i))."""
    backend = ds[0].backend
    p = len(ds)
    ngen = 1 if backend.is_dual else backend.nvars
    table = {}
    for gens in itertools.combinations_with_replacement(range(ngen), p):
        val = Poly.zero(backend)
        args = [_generator_var(backend, g) for g in gens]
        for perm in itertools.permutations(range(p)):
            term = Poly.one(backend)
            for slot, which in enumerate(perm):
                term = term * ds[which](args[slot])
            val = val + term
        table[gens] = val
    return MultiDerivation(backend, p, table)


def eval_level(c, p: int, gen_args, mod_args) -> Poly:
    """Level p of the cochain c on algebra and module arguments: each pending
    algebra argument expands through its partials before the next is read."""
    return _eval_sder(c, p, tuple(gen_args), (), tuple(mod_args), {})


def _eval_sder(c, p, pending, gens, mod_args, memo: dict) -> Poly:
    backend = c.module.backend
    if pending:
        a, rest = pending[0], pending[1:]
        out = Poly.zero(backend)
        for j, part in _partials(a):
            out = out + part * _eval_sder(c, p, rest, tuple(sorted(gens + (j,))), mod_args, memo)
        return out
    gram_den = c.module.numerators()[1]
    den = c._den * gram_den ** (c.degree // 2 - p)
    expansions = []
    for x in mod_args:
        terms = {}
        for b, coeff in enumerate(x.coeffs):
            for e, k in coeff._num.items():
                terms[e, b] = Fraction(k, coeff._den)
        expansions.append(list(terms.items()))
    out: dict = {}
    for combo in itertools.product(*expansions):
        k = Fraction(1)
        for _, q in combo:
            k *= q
        for e, v in c._eval_mono(p, gens, tuple(q for q, _ in combo), memo).items():
            out[e] = out.get(e, 0) + k * v
    return Poly(backend, {backend.unpack(e): Fraction(v) / den for e, v in out.items() if v})


def symbol(c, args) -> OracleDerivation:
    """The symbol of c on r-2 module arguments, its level-1 values read back into coordinates."""
    backend = c.module.backend
    values = [eval_level(c, 1, (_generator_var(backend, j),), args)
              for j in range(1 if backend.is_dual else backend.nvars)]
    if backend.is_dual:
        v = values[0]
        if v.terms.get((0,), 0) != 0:
            raise ValueError("derivation value on eps must be a multiple of eps")
        return OracleDerivation(backend, v.terms.get((1,), QZERO))
    return OracleDerivation(backend, tuple(values))
