"""Exact scalars: sparse multivariate polynomials over Q and their derivations.

Two coefficient algebras are supported: the free polynomial algebra
Q[x_1..x_n] and the dual numbers Q[eps]/(eps^2).  Everything downstream
(modules, brackets, cohomology) is built on the types in this module.

`Poly` keys its terms by exponent tuples; that is the boundary type.  The
int-numerator layer below it (`rothstein`'s kernel, the cochain towers of
`cmaps`, `MetricModule.numerators`) keys a monomial by one packed int
instead (Monagan and Pearce, ISSAC 2007).  Variable x_j owns the
FIELD_BITS-bit field at shift FIELD_BITS * (nvars - 1 - j), so x_1 is the
most significant and packed keys order as exponent tuples do.  The top bit
of each field is a guard: an exponent is at most EXPONENT_LIMIT =
2^(FIELD_BITS - 1) - 1, a product of two monomials is one int add, and a
sum that sets a guard bit has overflowed its field and is refused with a
ModuleError.  Over the dual numbers the guard is the key 2 of eps^2, so
eps^2 = 0 is the same test, and such a product is dropped.  Values are
packed where they enter the layer (`Backend.pack`, `_packed`) and unpacked
where they leave it (`_as_poly`); both directions are memoized per backend.

Both algebras store an element as grouped int numerators {group: {packed
key: int}} over one positive denominator (FLINT's fmpq_poly layout, Hart,
ICMS 2010).  `GroupedElement` is that value type: `RothElement` and
`Cochain` subclass it, and it alone normalises (`_canonical`), adds
(`_grouped_sum`), compares and hashes the format.

Every table that lives across calls (the pack tables here, the bracket and
wedge tables of `cmaps`, the standard structures of `deform`) is a `Memo`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

QZERO = Fraction(0)
QONE = Fraction(1)

FIELD_BITS = 16  # bits per variable in a packed monomial, the top one a guard
EXPONENT_LIMIT = (1 << (FIELD_BITS - 1)) - 1  # the largest exponent a field holds
FIELD_MASK = (1 << FIELD_BITS) - 1
EPS_SQUARED = 2  # the packed key of eps^2 over the dual numbers
MEMO_LIMIT = 1 << 14  # entries per memo table, read on every store


class Memo(OrderedDict):
    """A memo table of at most MEMO_LIMIT entries that drops its oldest first, so a hit is a dict lookup."""

    def remember(self, key, value):
        while self and len(self) >= MEMO_LIMIT:
            self.popitem(last=False)
        self[key] = value
        return value


class BackendError(ValueError):
    """Raised on operations mixing distinct coefficient algebras."""


class ModuleError(ValueError):
    """Raised on inconsistent module data, and on an exponent past EXPONENT_LIMIT."""


class Backend:
    """A coefficient algebra: FreePoly(n) = Q[x_1..x_n] or DualNum = Q[eps]/(eps^2)."""

    __slots__ = ("kind", "names", "nvars", "is_dual", "shifts", "guard", "_hash", "_packs", "_unpacks")

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
        self.is_dual = kind == Backend.DUAL
        # the packed layout of the module docstring: a field per variable, x_1 on top
        self.shifts = tuple(FIELD_BITS * (self.nvars - 1 - j) for j in range(self.nvars))
        self.guard = EPS_SQUARED if self.is_dual else sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        self._hash = hash((kind, self.names))
        self._packs = Memo()  # exponent tuple -> packed key
        self._unpacks = Memo()  # packed key -> exponent tuple

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

    def pack(self, exp: tuple[int, ...]) -> int:
        """The packed key of an exponent tuple; refuses an exponent past EXPONENT_LIMIT."""
        k = self._packs.get(exp)
        if k is None:
            if len(exp) != self.nvars:
                raise ValueError("exponent arity mismatch")
            k = 0
            for j, (e, s) in enumerate(zip(exp, self.shifts)):
                if not 0 <= e <= EXPONENT_LIMIT:
                    raise _field_error(self, j, e)
                k |= e << s
            self._packs.remember(exp, k)
            self._unpacks.remember(k, exp)
        return k

    def unpack(self, k: int) -> tuple[int, ...]:
        """The exponent tuple of a packed key."""
        exp = self._unpacks.get(k)
        if exp is None:
            exp = tuple([k >> s & FIELD_MASK for s in self.shifts])
            self._packs.remember(exp, k)
            self._unpacks.remember(k, exp)
        return exp

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


# -- int numerator sums: {key: int} over one denominator kept beside them -----


def _cleared(flat: dict) -> tuple[dict, int]:
    """Rational values {key: c} as int numerators over one positive denominator:
    (numerators, d).  A sum of ints is returned as it is, over 1."""
    for c in flat.values():
        if type(c) is not int:
            break
    else:
        return flat, 1
    d = lcm(*[c.denominator for c in flat.values()])
    return {k: c.numerator * (d // c.denominator) for k, c in flat.items()}, d


def _quotient(c: int, d: int):
    """c / d as an int when the division is exact, else as a Fraction."""
    q, r = divmod(c, d)
    return Fraction(c, d) if r else q


def _divided(flat: dict, d: int) -> dict:
    """A flat sum of numerators over d as its values, integral ones as ints."""
    return flat if d == 1 else {k: _quotient(c, d) for k, c in flat.items()}


def _axpy(out: dict, v: dict, f: int = 1) -> dict:
    """out += f v, dropping the terms that cancel; returns out."""
    for e, c in v.items():
        s = out.get(e, 0) + f * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _canonical(groups: dict, den: int) -> tuple[dict, int]:
    """Grouped numerators over den > 0 in the form both algebras store: no
    empty group, no zero entry (none is ever kept), gcd of all numerators and
    den 1, so equal elements are stored equally.  groups is taken over."""
    if not all(groups.values()):
        groups = {k: v for k, v in groups.items() if v}
    g = den
    for v in groups.values():
        if g == 1:
            break
        g = gcd(g, *v.values())
    if g > 1:
        groups = {k: {e: c // g for e, c in v.items()} for k, v in groups.items()}
        den //= g
    return groups, den


def _grouped_sum(parts) -> tuple[dict, int]:
    """The sum of the parts (f, den, groups), each f times grouped numerators
    over den, as grouped numerators over the lcm of the dens (not canonical)."""
    den = lcm(*[d for _, d, _ in parts])
    out: dict = {}
    for f, d, groups in parts:
        f *= den // d
        for k, v in groups.items():
            _axpy(out.setdefault(k, {}), v, f)
    return out, den


def _numerators(values: dict) -> tuple[dict, int]:
    """Nonzero rational values {(group, key): c} as grouped numerators over
    one denominator (not canonical)."""
    flat, den = _cleared(values)
    groups: dict = {}
    for (g, e), c in flat.items():
        groups.setdefault(g, {})[e] = c
    return groups, den


def _field_error(backend: Backend, j: int, e: int) -> ModuleError:
    return ModuleError("exponent %d of %s is outside the packed field limit 0..%d (EXPONENT_LIMIT)"
                       % (e, backend.names[j], EXPONENT_LIMIT))


def _overflow(backend: Backend, k: int) -> ModuleError:
    """The error for a product key k that set a guard bit: names the first full field."""
    for j, s in enumerate(backend.shifts):
        if k >> s & FIELD_MASK > EXPONENT_LIMIT:
            return _field_error(backend, j, k >> s & FIELD_MASK)
    raise AssertionError("no guard bit is set")


def _mul_add(out: dict, a: dict, b: dict, backend: Backend, f: int = 1) -> dict:
    """out += f a b for packed sums: a monomial product is one add.  A product
    that sets a guard bit is eps^2 over the dual numbers, dropped, and an
    exponent overflow otherwise, refused.  Returns out."""
    guard = backend.guard
    get = out.get
    for e1, c1 in a.items():
        if f != 1:
            c1 *= f
        for e2, c2 in b.items():
            e = e1 + e2
            if e & guard:
                if backend.is_dual:
                    continue
                raise _overflow(backend, e)
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _partial(a: dict, shift: int) -> dict:
    """The derivative of a packed sum in the variable whose field is at shift
    (the j-th Der generator differentiates in x_j, at `Backend.shifts[j]`)."""
    one = 1 << shift
    return {e - one: c * n for e, c in a.items() if (n := e >> shift & FIELD_MASK)}


def _variables(backend: Backend, a: dict) -> list[int]:
    """The indices j of the variables that occur in the packed sum a."""
    seen = 0
    for e in a:
        seen |= e
    return [j for j, s in enumerate(backend.shifts) if seen >> s & FIELD_MASK]


def _packed(p: "Poly") -> dict:
    """The terms of p as a packed sum {key: coefficient}, integral values maybe
    ints; built once per Poly and shared, so not to be changed."""
    out = p._keys
    if out is None:
        backend = p.backend
        get = backend._packs.get
        out = {}
        for exp, c in p.terms.items():
            k = get(exp)
            out[backend.pack(exp) if k is None else k] = c
        p._keys = out
    return out


def _as_poly(backend: Backend, flat: dict, d: int = 1) -> "Poly":
    """The packed sum of numerators over d as a Poly, each coefficient divided
    once.  Over d = 1 the Poly keeps flat as its packed terms, so flat is not
    to be changed afterwards."""
    get = backend._unpacks.get
    terms = {}
    for k, c in flat.items():
        exp = get(k)
        terms[backend.unpack(k) if exp is None else exp] = (
            c if d == 1 and type(c) is Fraction else Fraction(c, d))
    return Poly._raw(backend, terms, flat if d == 1 else None)


def packed_exponents_of_degree(backend: Backend, total: int) -> list[int]:
    """The packed monomials of one total degree, in the product order of their
    exponent tuples; eps^2 = 0 over DualNum.

    Each composition is cut from 0..total at nvars - 1 non-decreasing points,
    and the cuts come in lexicographic order, which is that of the
    compositions; each exponent, a difference of consecutive cuts, goes
    straight into its field.
    """
    if total < 0 or (backend.is_dual and total > 1):
        return []
    if not backend.nvars:
        return [] if total else [0]
    if total > EXPONENT_LIMIT:
        raise _field_error(backend, 0, total)
    out = []
    for cuts in itertools.combinations_with_replacement(range(total + 1), backend.nvars - 1):
        k = prev = 0
        for c, s in zip(cuts + (total,), backend.shifts):
            k |= (c - prev) << s
            prev = c
        out.append(k)
    return out


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), tuple(-e for e in exp))


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions.

    Immutable.  Over the dual-number backend the relation eps^2 = 0 is
    applied on every product, so exponents stay in {0, 1}.  Products and
    partials run on packed keys (module docstring); `terms` stays keyed by
    tuples.
    """

    __slots__ = ("backend", "terms", "_hash", "_keys")

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
        self._keys = None

    @classmethod
    def _raw(cls, backend: Backend, terms: dict[tuple[int, ...], Fraction], keys=None) -> "Poly":
        """Internal constructor for already-normalized sparse data; keys, when
        given, is the same sum on packed keys (values may be ints)."""
        self = object.__new__(cls)
        self.backend = backend
        self.terms = terms
        self._hash = None
        self._keys = keys
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
        if type(other) is not Poly:  # the ABC check below costs 50x this one
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if not isinstance(other, Poly):
                return NotImplemented
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        return _as_poly(self.backend, _mul_add({}, _packed(self), _packed(other), self.backend))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return Poly.zero(self.backend)
        return Poly._raw(self.backend, {e: c * v for e, v in self.terms.items()})

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to the i-th variable."""
        if not self.terms:
            return self
        return _as_poly(self.backend, _partial(_packed(self), self.backend.shifts[i]))

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


class GroupedElement:
    """An immutable value over a module stored as grouped int numerators
    `_num` = {group: {packed key: int}} over one positive denominator `_den`,
    canonical (`_canonical`).  The base of `RothElement` and `Cochain`: a
    subclass with a grading builds its results in `_like` and shows the
    grading to equality and the hash in `_grade`."""

    __slots__ = ("module", "_num", "_den", "_hash")

    def _set(self, module, num: dict, den: int):
        self.module = module
        self._num, self._den = _canonical(num, den)
        self._hash = None

    def _like(self, num: dict, den: int):
        x = object.__new__(type(self))
        x._set(self.module, num, den)
        return x

    def _grade(self):
        return None

    def _poly(self, group) -> Poly:
        """One group as a Poly, each coefficient divided once."""
        return _as_poly(self.module.backend, self._num.get(group, {}), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def _check(self, other: "GroupedElement"):
        if self.module != other.module:
            raise ModuleError("module mismatch")

    def __add__(self, other):
        self._check(other)
        return self._like(*_grouped_sum([(1, self._den, self._num), (1, other._den, other._num)]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: {e: -c for e, c in v.items()} for k, v in self._num.items()}, self._den)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.module == other.module and self._grade() == other._grade()
                and self._den == other._den and self._num == other._num)

    def __hash__(self) -> int:
        if self._hash is None:
            frozen = tuple(sorted((k, tuple(sorted(v.items()))) for k, v in self._num.items()))
            self._hash = hash((self.module, self._grade(), self._den, frozen))
        return self._hash


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


def der_partials(a: Poly) -> list[tuple[int, Poly]]:
    """(j, da/dg_j) for each nonzero partial of a along the Der generators.

    The generators are d/dx_j over Q[x] and d/deps over the dual numbers, so
    the j-th one differentiates in the j-th variable either way.
    """
    out = []
    for j in range(num_der_generators(a.backend)):
        part = a.partial(j)
        if not part.is_zero():
            out.append((j, part))
    return out


def exponents_of_degree(backend: Backend, total: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of one total degree, in product order; eps^2 = 0 over DualNum."""
    return map(backend.unpack, packed_exponents_of_degree(backend, total))


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
        fixed: list[int] = []
        for k, a in enumerate(args):
            idx = _as_generator_index(a)
            if idx is None:
                out = Poly.zero(self.backend)
                for j, part in der_partials(a):
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
