"""Exact scalars: sparse multivariate polynomials over Q and their derivations.

Two coefficient algebras are supported: the free polynomial algebra
Q[x_1..x_n] and the dual numbers Q[eps]/(eps^2).  Everything downstream
(modules, brackets, cohomology) is built on the types in this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator

QZERO = Fraction(0)
QONE = Fraction(1)


class BackendError(ValueError):
    """Raised on operations mixing distinct coefficient algebras."""


class Backend:
    """A coefficient algebra: FreePoly(n) = Q[x_1..x_n] or DualNum = Q[eps]/(eps^2)."""

    __slots__ = ("kind", "names", "nvars", "_hash")

    FREE = "free"
    DUAL = "dual"

    def __init__(self, kind: str, names: tuple[str, ...]):
        if kind == Backend.DUAL and len(names) != 1:
            raise ValueError("dual-number backend has exactly one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.kind = kind
        self.names = tuple(names)
        self.nvars = len(names)
        self._hash = hash((kind, self.names))

    @staticmethod
    def free(n: int, names: Iterable[str] | None = None) -> "Backend":
        if names is None:
            names = default_var_names(n)
        names = tuple(names)
        if len(names) != n:
            raise ValueError("need %d variable names" % n)
        return Backend(Backend.FREE, names)

    @staticmethod
    def dual(name: str = "eps") -> "Backend":
        return Backend(Backend.DUAL, (name,))

    @property
    def is_dual(self) -> bool:
        return self.kind == Backend.DUAL

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Backend)
            and self.kind == other.kind
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_dual:
            return "DualNum(%s)" % self.names[0]
        return "FreePoly(%s)" % ", ".join(self.names)


def default_var_names(n: int) -> tuple[str, ...]:
    base = ("x", "y", "z", "w")
    if n <= len(base):
        return base[:n]
    return tuple("x%d" % i for i in range(1, n + 1))


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), tuple(-e for e in exp))


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions.

    Immutable.  Over the dual-number backend the relation eps^2 = 0 is
    applied on every product, so exponents stay in {0, 1}.
    """

    __slots__ = ("backend", "terms", "_hash")

    def __init__(self, backend: Backend, terms: dict[tuple[int, ...], Fraction]):
        clean = {}
        for exp, c in terms.items():
            if not c:
                continue
            if len(exp) != backend.nvars:
                raise ValueError("exponent arity mismatch")
            if backend.is_dual and exp[0] > 1:
                continue  # eps^2 = 0
            clean[exp] = c if type(c) is Fraction else Fraction(c)
        self.backend = backend
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, backend: Backend, terms: dict[tuple[int, ...], Fraction]) -> "Poly":
        """Internal constructor for already-normalized sparse data."""
        self = object.__new__(cls)
        self.backend = backend
        self.terms = terms
        self._hash = None
        return self

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(backend: Backend) -> "Poly":
        return Poly(backend, {})

    @staticmethod
    def const(backend: Backend, c) -> "Poly":
        return Poly(backend, {(0,) * backend.nvars: Fraction(c)})

    @staticmethod
    def one(backend: Backend) -> "Poly":
        return Poly.const(backend, 1)

    @staticmethod
    def var(backend: Backend, i: int) -> "Poly":
        exp = [0] * backend.nvars
        exp[i] = 1
        return Poly(backend, {tuple(exp): QONE})

    @staticmethod
    def monomial(backend: Backend, exp: tuple[int, ...], c=1) -> "Poly":
        return Poly(backend, {tuple(exp): Fraction(c)})

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        unit = (0,) * self.backend.nvars
        return self.terms == {unit: QONE}

    def is_constant(self) -> bool:
        unit = (0,) * self.backend.nvars
        return all(e == unit for e in self.terms)

    def constant_part(self) -> Fraction:
        return self.terms.get((0,) * self.backend.nvars, QZERO)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def monomials(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for exp in sorted(self.terms, key=_grlex_key):
            yield exp, self.terms[exp]

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Poly"):
        if self.backend != other.backend:
            raise BackendError("backend mismatch: %r vs %r" % (self.backend, other.backend))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            v = terms.get(exp, QZERO) + c
            if v:
                terms[exp] = v
            elif exp in terms:
                del terms[exp]
        return Poly._raw(self.backend, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            v = terms.get(exp, QZERO) - c
            if v:
                terms[exp] = v
            elif exp in terms:
                del terms[exp]
        return Poly._raw(self.backend, terms)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.backend, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        dual = self.backend.is_dual
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                if dual and e1[0] + e2[0] > 1:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(exp, QZERO) + c1 * c2
                if v:
                    terms[exp] = v
                elif exp in terms:
                    del terms[exp]
        return Poly._raw(self.backend, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return Poly.zero(self.backend)
        return Poly._raw(self.backend, {e: c * v for e, v in self.terms.items()})

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to the i-th variable."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = c * exp[i]
        return Poly._raw(self.backend, terms)

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.backend == other.backend and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self.terms.items()))
            self._hash = hash((self.backend, items))
        return self._hash

    # -- display -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.backend.names
        parts = []
        for exp, c in self.monomials():
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


class Derivation:
    """Element of Der(A).

    FreePoly(n): free module on the coordinate derivations, stored as a
    coefficient vector.  DualNum: Der is one-dimensional over Q with
    generator epsd (epsd(eps) = eps) and module relation eps*epsd = 0, so a
    single Fraction suffices.
    """

    __slots__ = ("backend", "coeffs", "_hash")

    def __init__(self, backend: Backend, coeffs):
        self.backend = backend
        if backend.is_dual:
            self.coeffs = (Fraction(coeffs),) if not isinstance(coeffs, tuple) else (Fraction(coeffs[0]),)
        else:
            coeffs = tuple(coeffs)
            if len(coeffs) != backend.nvars:
                raise ValueError("need one coefficient per coordinate derivation")
            self.coeffs = coeffs
        self._hash = None

    @staticmethod
    def zero(backend: Backend) -> "Derivation":
        if backend.is_dual:
            return Derivation(backend, QZERO)
        return Derivation(backend, tuple(Poly.zero(backend) for _ in range(backend.nvars)))

    @staticmethod
    def basis(backend: Backend, i: int) -> "Derivation":
        """The i-th generator: d/dx_i for FreePoly, epsd for DualNum."""
        if backend.is_dual:
            if i != 0:
                raise IndexError("dual-number derivation module has one generator")
            return Derivation(backend, QONE)
        coeffs = [Poly.zero(backend) for _ in range(backend.nvars)]
        coeffs[i] = Poly.one(backend)
        return Derivation(backend, tuple(coeffs))

    def is_zero(self) -> bool:
        if self.backend.is_dual:
            return self.coeffs[0] == 0
        return all(c.is_zero() for c in self.coeffs)

    def __call__(self, a: Poly) -> Poly:
        if a.backend != self.backend:
            raise BackendError("backend mismatch")
        if self.backend.is_dual:
            # epsd sends c0 + c1*eps to c1*eps
            c1 = a.terms.get((1,), QZERO)
            return Poly(self.backend, {(1,): self.coeffs[0] * c1})
        out = Poly.zero(self.backend)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * a.partial(i)
        return out

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.backend.is_dual:
            return Derivation(self.backend, self.coeffs[0] + other.coeffs[0])
        return Derivation(self.backend, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Derivation") -> "Derivation":
        if self.backend.is_dual:
            return Derivation(self.backend, self.coeffs[0] - other.coeffs[0])
        return Derivation(self.backend, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Derivation":
        if self.backend.is_dual:
            return Derivation(self.backend, -self.coeffs[0])
        return Derivation(self.backend, tuple(-c for c in self.coeffs))

    def scale(self, a) -> "Derivation":
        """Module action.  Over DualNum the eps-part of the scalar annihilates."""
        if self.backend.is_dual:
            if isinstance(a, Poly):
                a = a.constant_part()
            return Derivation(self.backend, self.coeffs[0] * Fraction(a))
        if not isinstance(a, Poly):
            a = Poly.const(self.backend, a)
        return Derivation(self.backend, tuple(a * c for c in self.coeffs))

    def commutator(self, other: "Derivation") -> "Derivation":
        if self.backend != other.backend:
            raise BackendError("backend mismatch")
        if self.backend.is_dual:
            # [a*epsd, b*epsd](eps) = ab*eps - ba*eps = 0
            return Derivation.zero(self.backend)
        coeffs = tuple(
            self(other.coeffs[j]) - other(self.coeffs[j])
            for j in range(self.backend.nvars)
        )
        return Derivation(self.backend, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.backend, self.coeffs))
        return self._hash

    def __repr__(self) -> str:
        if self.backend.is_dual:
            return "%s*epsd" % self.coeffs[0]
        names = self.backend.names
        parts = ["(%s)*d/d%s" % (c, n) for c, n in zip(self.coeffs, names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def num_der_generators(backend: Backend) -> int:
    """Rank of the chosen generating set of Der(A)."""
    return 1 if backend.is_dual else backend.nvars


def der_generator_var(backend: Backend, i: int) -> Poly:
    """The algebra generator paired with the i-th derivation generator."""
    return Poly.var(backend, 0 if backend.is_dual else i)


def exponents_of_degree(backend: Backend, total: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of one total degree, in product order; eps^2 = 0 over DualNum.

    Each composition is cut from 0..total at nvars - 1 non-decreasing points,
    and the cuts come in lexicographic order, which is that of the
    compositions.
    """
    n = backend.nvars
    if total < 0 or (backend.is_dual and total > 1):
        return
    if n == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), n - 1):
        yield tuple(map(int.__sub__, cuts + (total,), (0,) + cuts))


class MultiDerivation:
    """Symmetric p-multiderivation of A, stored by values on generator tuples.

    The table maps sorted tuples of generator indices to Poly values;
    evaluation on arbitrary arguments expands each slot by Q-linearity and
    the Leibniz rule (a first-order expansion through formal partials).
    """

    __slots__ = ("backend", "arity", "table", "_hash")

    def __init__(self, backend: Backend, arity: int, table: dict[tuple[int, ...], Poly]):
        if arity < 1:
            raise ValueError("arity must be positive")
        clean = {}
        for gens, val in table.items():
            if len(gens) != arity:
                raise ValueError("generator tuple arity mismatch")
            key = tuple(sorted(gens))
            if not val.is_zero():
                prev = clean.get(key)
                if prev is not None and prev != val:
                    raise ValueError("inconsistent symmetric table")
                clean[key] = val
        self.backend = backend
        self.arity = arity
        self.table = clean
        self._hash = None
        if backend.is_dual:
            # eps * P(eps,...,eps) must vanish: values lie in Q*eps
            for val in clean.values():
                if val.constant_part():
                    raise ValueError("dual-number multiderivation values must be multiples of eps")

    def is_zero(self) -> bool:
        return not self.table

    def __call__(self, *args: Poly) -> Poly:
        if len(args) != self.arity:
            raise ValueError("expected %d arguments" % self.arity)
        for a in args:
            if a.backend != self.backend:
                raise BackendError("backend mismatch")
        return self._eval(list(args))

    def _eval(self, args: list[Poly]) -> Poly:
        # expand the first non-generator slot via partials, recurse
        ngen = num_der_generators(self.backend)
        fixed: list[int] = []
        for k, a in enumerate(args):
            idx = _as_generator_index(a)
            if idx is None:
                out = Poly.zero(self.backend)
                for j in range(ngen):
                    part = a.partial(0 if self.backend.is_dual else j)
                    if part.is_zero():
                        continue
                    sub = args[:k] + [der_generator_var(self.backend, j)] + args[k + 1:]
                    out = out + part * self._eval(sub)
                return out
            fixed.append(idx)
        return self.table.get(tuple(sorted(fixed)), Poly.zero(self.backend))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiDerivation):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.backend, self.arity, tuple(sorted(self.table.items(), key=lambda kv: kv[0]))))
        return self._hash


def _as_generator_index(a: Poly) -> int | None:
    """Index of the variable if a is exactly one generator, else None."""
    if len(a.terms) != 1:
        return None
    (exp, c), = a.terms.items()
    if c != 1 or sum(exp) != 1:
        return None
    return exp.index(1)


def sym_product_of_derivations(ds: list[Derivation]) -> MultiDerivation:
    """Canonical map Sym^p Der(A) -> SDer^p(A) on a factorized element.

    (D_1 v ... v D_p)(a_1,...,a_p) = sum over permutations of prod D_i(a_j).
    Over the dual numbers this map is identically zero for p >= 2.
    """
    backend = ds[0].backend
    p = len(ds)
    ngen = num_der_generators(backend)
    table: dict[tuple[int, ...], Poly] = {}
    for gens in itertools.combinations_with_replacement(range(ngen), p):
        val = Poly.zero(backend)
        args = [der_generator_var(backend, g) for g in gens]
        for perm in itertools.permutations(range(p)):
            term = Poly.one(backend)
            for slot, which in enumerate(perm):
                term = term * ds[which](args[slot])
            val = val + term
        if not val.is_zero():
            table[gens] = val
    return MultiDerivation(backend, p, table)
