"""Exact scalars: sparse multivariate polynomials over Q and their derivations.

Two coefficient algebras are supported: the free polynomial algebra
Q[x_1..x_n] and the dual numbers Q[eps]/(eps^2).  Everything downstream
(modules, brackets, cohomology) is built on the types in this module.

Every value keys a monomial by one packed int (Monagan and Pearce, ISSAC
2007).  Variable x_j owns the FIELD_BITS-bit field at shift FIELD_BITS *
(nvars - 1 - j), so x_1 is the most significant and packed keys order as
exponent tuples do.  The top bit of each field is a guard: an exponent is
at most EXPONENT_LIMIT = 2^(FIELD_BITS - 1) - 1, a product of two monomials
is one int add, and a sum that sets a guard bit has overflowed its field
and is refused with a ModuleError.  Over the dual numbers the guard is the
key 2 of eps^2, so eps^2 = 0 is the same test, and such a product is
dropped.  Exponent tuples exist only at the boundary: `Backend.pack`
refuses one outside the fields where a `Poly` is built from tuples, and
`Backend.unpack` makes one where a `terms` view is read.

Every value is stored as int numerators over one positive denominator with
no common factor (FLINT's fmpq_poly layout, Hart, ICMS 2010), so equal
values are stored equally.  A `Poly` is one numerator sum `_num` = {packed
key: int} over `_den`, made by `_as_poly`; a `GroupedElement`, the base of
`RothElement`, `Cochain` and `ModuleElement`, groups such sums {group:
{packed key: int}} over one `_den`, made by `_canonical`.  `_grouped_sum`
adds either, a Poly being one group.  A Poly's numerators enter another
value only past `_require_backend`, which refuses a Poly over another
backend (its packed keys name other variables); `_poly_groups` packs Polys
into groups through it.

Every derivation-like object is stored by its values on the algebra
generators g_j, which are x_j over Q[x] and eps over the dual numbers: a
`MultiDerivation` by {sorted generator tuple: Poly}, a `Derivation` as the
arity-1 case, and a cochain's tower levels (`cmaps`) by the same tuples.
One chain-rule expansion, `generator_expansion`, reads any of them on
other arguments.  The two backends differ in one fact, D_i(g_i) = 1 over
Q[x] and eps over the dual numbers (`_der_unit`).

Every table that lives across calls (the bracket, wedge and preimage
tables of `cmaps`, the standard structures of `deform`) is a `Memo`.
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
    """A memo table of at most MEMO_LIMIT entries that drops its oldest first,
    so a hit is a dict lookup: the bracket, wedge and preimage tables of
    `cmaps` and the standard structures of `deform`."""

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

    __slots__ = ("kind", "names", "nvars", "is_dual", "shifts", "guard", "_hash")

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
        """The packed key of an exponent tuple; refuses an exponent outside 0..EXPONENT_LIMIT."""
        if len(exp) != self.nvars:
            raise ValueError("exponent arity mismatch")
        k = 0
        for j, (e, s) in enumerate(zip(exp, self.shifts)):
            if not 0 <= e <= EXPONENT_LIMIT:
                raise _field_error(self, j, e)
            k |= e << s
        return k

    def unpack(self, k: int) -> tuple[int, ...]:
        """The exponent tuple of a packed key."""
        return tuple([k >> s & FIELD_MASK for s in self.shifts])

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


def _axpy_groups(out: dict, groups: dict, f: int = 1) -> dict:
    """out += f groups for grouped sums, dropping the groups that cancel; returns out."""
    for k, v in groups.items():
        if not _axpy(out.setdefault(k, {}), v, f):
            del out[k]
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
    over den, as grouped numerators over the lcm of the dens (not canonical).
    A Poly p enters as (f, p._den, {group: p._num})."""
    den = lcm(*[d for _, d, _ in parts])
    out: dict = {}
    for f, d, groups in parts:
        _axpy_groups(out, groups, f * (den // d))
    return out, den


def _require_backend(backend: Backend, p: "Poly") -> "Poly":
    """p, refused with BackendError unless it is over backend: the check a
    Poly passes where its numerators enter a value or a product."""
    if p.backend is not backend and p.backend != backend:
        raise BackendError("backend mismatch: %r vs %r" % (backend, p.backend))
    return p


def _poly_groups(backend: Backend, items) -> tuple[dict, int]:
    """The (group, Poly) pairs of items, each Poly over backend, as grouped
    numerators over one denominator (not canonical); a zero Poly adds nothing."""
    parts = []
    for k, p in items:
        if _require_backend(backend, p)._num:
            parts.append((1, p._den, {k: p._num}))
    return _grouped_sum(parts)


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


def _times_monomial(a: dict, exp: int, backend: Backend, f: int = 1) -> dict:
    """f x^exp a for the packed sum a, as a new sum: a key shift, which
    keeps keys distinct, so nothing cancels.  Guard bits act as in `_mul_add`."""
    guard = backend.guard
    out = {}
    for e, c in a.items():
        k = e + exp
        if k & guard:
            if backend.is_dual:
                continue
            raise _overflow(backend, k)
        out[k] = f * c
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


def _as_poly(backend: Backend, num: dict, den: int = 1) -> "Poly":
    """The Poly of the int numerator sum {packed key: int} over den > 0, the
    common factor cancelled; num is taken over, not copied."""
    g = gcd(den, *num.values()) if den > 1 else 1
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    p = object.__new__(Poly)
    p.backend = backend
    p._num = num
    p._den = den
    p._hash = None
    return p


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
    """Sparse polynomial: int numerators `_num` = {packed key: int} over one
    positive denominator `_den`, with no common factor (module docstring).

    Immutable.  Over the dual-number backend the relation eps^2 = 0 is
    applied on every product, so exponents stay in {0, 1}.  `terms` is the
    view {exponent tuple: Fraction}, built on every read.
    """

    __slots__ = ("backend", "_num", "_den", "_hash")

    def __init__(self, backend: Backend, terms: dict[tuple[int, ...], Fraction]):
        """The sum of c x^exp over terms {exponent tuple: rational}; an
        exponent outside 0..EXPONENT_LIMIT raises ModuleError."""
        values = {}
        for exp, c in terms.items():
            if not c:
                continue
            k = backend.pack(exp)
            if backend.is_dual and k > 1:
                continue  # eps^2 = 0
            values[k] = c if type(c) in (int, Fraction) else Fraction(c)
        # each c is in lowest terms, so no factor is common to den and every numerator
        den = lcm(*[c.denominator for c in values.values()])
        self.backend = backend
        self._num = {k: c.numerator * (den // c.denominator) for k, c in values.items()}
        self._den = den
        self._hash = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(backend: Backend) -> "Poly":
        return _as_poly(backend, {})

    @staticmethod
    def const(backend: Backend, c) -> "Poly":
        return Poly(backend, {(0,) * backend.nvars: Fraction(c)})

    @staticmethod
    def one(backend: Backend) -> "Poly":
        return _as_poly(backend, {0: 1})

    @staticmethod
    def var(backend: Backend, i: int) -> "Poly":
        return _as_poly(backend, {1 << backend.shifts[i]: 1})

    @staticmethod
    def monomial(backend: Backend, exp: tuple[int, ...], c=1) -> "Poly":
        return Poly(backend, {tuple(exp): Fraction(c)})

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The polynomial as {exponent tuple: Fraction}, built on every read."""
        unpack, den = self.backend.unpack, self._den
        return {unpack(k): Fraction(c, den) for k, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._den == 1 and self._num == {0: 1}

    def is_constant(self) -> bool:
        return not any(self._num)

    def constant_part(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def total_degree(self) -> int:
        return max((sum(self.backend.unpack(k)) for k in self._num), default=0)

    def monomials(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        terms = self.terms
        for exp in sorted(terms, key=_grlex_key):
            yield exp, terms[exp]

    # -- arithmetic --------------------------------------------------

    def _plus(self, other: "Poly", f: int) -> "Poly":
        """self + f other over the lcm of both denominators."""
        _require_backend(self.backend, other)
        if not other._num:
            return self
        if not self._num and f == 1:
            return other
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        out = dict(self._num) if den == d1 else {e: c * (den // d1) for e, c in self._num.items()}
        return _as_poly(self.backend, _axpy(out, other._num, f * (den // d2)), den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return _as_poly(self.backend, {e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly:  # the ABC check below costs 50x this one
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if not isinstance(other, Poly):
                return NotImplemented
        _require_backend(self.backend, other)
        if not self._num:
            return self
        if not other._num:
            return other
        return _as_poly(self.backend, _mul_add({}, self._num, other._num, self.backend), self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if type(c) not in (int, Fraction):
            c = Fraction(c)
        if not c:
            return Poly.zero(self.backend)
        n = c.numerator
        return _as_poly(self.backend, {e: n * v for e, v in self._num.items()}, self._den * c.denominator)

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to the i-th variable."""
        if not self._num:
            return self
        return _as_poly(self.backend, _partial(self._num, self.backend.shifts[i]), self._den)

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.backend == other.backend and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.backend, self._den, frozenset(self._num.items())))
        return self._hash

    # -- display -----------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
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
    canonical (`_canonical`).  The base of `RothElement`, `Cochain` and
    `ModuleElement`: a subclass with a grading builds its results in `_like`
    and shows the grading to equality and the hash in `_grade`."""

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

    def _times(self, a: dict, d: int):
        """a times the element for the numerator sum a over d: every group times a."""
        backend = self.module.backend
        return self._like({k: _mul_add({}, a, v, backend) for k, v in self._num.items()}, self._den * d)

    def scale(self, a):
        """a times the element, for a rational or a Poly over the module's backend."""
        if not isinstance(a, Poly):
            a = Poly.const(self.module.backend, a)
        return self._times(_require_backend(self.module.backend, a)._num, a._den)

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


def num_der_generators(backend: Backend) -> int:
    """Rank of the chosen generating set of Der(A): one D_j per variable g_j."""
    return backend.nvars


def der_generator_var(backend: Backend, i: int) -> Poly:
    """The algebra generator g_i paired with the i-th derivation generator."""
    return Poly.var(backend, i)


def _der_unit(backend: Backend) -> int:
    """The packed monomial of D_i(g_i): 1 over Q[x], where D_i = d/dx_i, and
    eps over the dual numbers, where the one generator epsd has epsd(eps) =
    eps.  The one fact in which the two backends' derivations differ: a
    derivation's value on g_i is its i-th coordinate times this monomial,
    and every value is a multiple of it (no packed key lies below it)."""
    return 1 if backend.is_dual else 0


def der_partials(a: Poly) -> list[tuple[int, Poly]]:
    """(j, da/dg_j) for each nonzero partial of a along the Der generators.

    The generators are d/dx_j over Q[x] and d/deps over the dual numbers, so
    the j-th one differentiates in the j-th variable either way, and its
    partial is nonzero exactly when that variable occurs in a.
    """
    return [(j, a.partial(j)) for j in _variables(a.backend, a._num)]


def generator_expansion(backend: Backend, args) -> dict[tuple[int, ...], Poly]:
    """{sorted generator tuple: c} with f(a_1..a_p) = sum c f(g_tuple) for
    every symmetric f that is a derivation in each slot: the chain rule
    f(.., a, ..) = sum_j (da/dg_j) f(.., g_j, ..) in every slot, each sorted
    tuple collected once.  No arguments give {(): 1}."""
    if not args:
        return {(): Poly.one(backend)}
    out = {(j,): part for j, part in der_partials(args[0])}
    for a in args[1:]:
        parts = der_partials(a)
        step: dict = {}
        for gens, c in out.items():
            for j, part in parts:
                key = tuple(sorted(gens + (j,)))
                v = c * part
                prev = step.get(key)
                step[key] = v if prev is None else prev + v
        out = {k: v for k, v in step.items() if v._num}
    return out


class MultiDerivation:
    """Symmetric p-multiderivation of A, stored by its values on the algebra
    generators: table maps sorted tuples of generator indices to Polys.
    Every other argument is read through `generator_expansion`.  Over the
    dual numbers every value is a multiple of eps (`_der_unit`)."""

    __slots__ = ("backend", "arity", "table", "_hash")

    def __init__(self, backend: Backend, arity: int, table: dict[tuple[int, ...], Poly]):
        if arity < 1:
            raise ValueError("arity must be positive")
        clean = {}
        for gens, val in table.items():
            if len(gens) != arity:
                raise ValueError("generator tuple arity mismatch")
            key = tuple(sorted(gens))
            if _require_backend(backend, val)._num:
                prev = clean.get(key)
                if prev is not None and prev != val:
                    raise ValueError("inconsistent symmetric table")
                clean[key] = val
        unit = _der_unit(backend)
        if any(k < unit for val in clean.values() for k in val._num):
            # eps * P(eps,...,eps) = P(eps^2, eps, ...) / 2 must vanish
            raise ValueError("dual-number multiderivation values must be multiples of eps")
        self.backend = backend
        self.arity = arity
        self.table = clean
        self._hash = None

    def is_zero(self) -> bool:
        return not self.table

    def __call__(self, *args: Poly) -> Poly:
        if len(args) != self.arity:
            raise ValueError("expected %d arguments" % self.arity)
        for a in args:
            if a.backend != self.backend:
                raise BackendError("backend mismatch")
        out = Poly.zero(self.backend)
        for gens, c in generator_expansion(self.backend, args).items():
            v = self.table.get(gens)
            if v is not None:
                out = out + c * v
        return out

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


class Derivation(MultiDerivation):
    """Element of Der(A): the arity-1 MultiDerivation, stored by its values
    D(g_j) on the algebra generators.

    Its coordinates c_j on the Der generators D_j (d/dx_j over Q[x], epsd
    over the dual numbers) give D(g_j) = c_j D_j(g_j), the unit monomial of
    `_der_unit` times c_j; over the dual numbers eps * (c eps) = 0 makes
    the module relation eps * epsd = 0 hold by itself.
    """

    __slots__ = ()

    def __init__(self, backend: Backend, coeffs):
        """The derivation sum_j c_j D_j of the coordinates coeffs: one per
        generator, or a bare scalar when there is one generator."""
        if isinstance(coeffs, (Poly, int, Fraction)):
            coeffs = (coeffs,)
        coeffs = tuple(coeffs)
        if len(coeffs) != num_der_generators(backend):
            raise ValueError("need one coefficient per coordinate derivation")
        unit = {_der_unit(backend): 1}
        values = []
        for c in coeffs:
            if not isinstance(c, Poly):
                c = Poly.const(backend, c)
            values.append(_as_poly(backend, _mul_add({}, unit, _require_backend(backend, c)._num, backend), c._den))
        super().__init__(backend, 1, {(j,): v for j, v in enumerate(values)})

    @staticmethod
    def from_values(backend: Backend, values) -> "Derivation":
        """The derivation with D(g_j) = values[j]."""
        d = object.__new__(Derivation)
        MultiDerivation.__init__(d, backend, 1, {(j,): v for j, v in enumerate(values)})
        return d

    @staticmethod
    def zero(backend: Backend) -> "Derivation":
        return Derivation.from_values(backend, ())

    @staticmethod
    def basis(backend: Backend, i: int) -> "Derivation":
        """The i-th generator: d/dx_i for FreePoly, epsd for DualNum."""
        ngen = num_der_generators(backend)
        if not 0 <= i < ngen:
            raise IndexError("no derivation generator %d over %r" % (i, backend))
        values = [Poly.zero(backend)] * ngen
        values[i] = _as_poly(backend, {_der_unit(backend): 1})
        return Derivation.from_values(backend, values)

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """The coordinates c_j: each D(g_j) divided by the monomial of `_der_unit`."""
        unit = _der_unit(self.backend)
        return tuple(_as_poly(self.backend, {k - unit: c for k, c in v._num.items()}, v._den)
                     for v in self._values())

    def _of(self, values) -> "Derivation":
        return Derivation.from_values(self.backend, values)

    def _values(self) -> list[Poly]:
        zero = Poly.zero(self.backend)
        return [self.table.get((j,), zero) for j in range(num_der_generators(self.backend))]

    def __add__(self, other: "Derivation") -> "Derivation":
        return self._of([a + b for a, b in zip(self._values(), other._values())])

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self._of([a - b for a, b in zip(self._values(), other._values())])

    def __neg__(self) -> "Derivation":
        return self._of([-v for v in self._values()])

    def scale(self, a) -> "Derivation":
        """Module action; over DualNum the eps-part of the scalar annihilates."""
        if not isinstance(a, Poly):
            a = Poly.const(self.backend, a)
        return self._of([a * v for v in self._values()])

    def commutator(self, other: "Derivation") -> "Derivation":
        """[D1, D2](g_j) = D1(D2 g_j) - D2(D1 g_j)."""
        if self.backend != other.backend:
            raise BackendError("backend mismatch")
        return self._of([self(b) - other(a) for a, b in zip(self._values(), other._values())])

    def __repr__(self) -> str:
        if self.backend.is_dual:
            return "%s*epsd" % self.coeffs[0]
        names = self.backend.names
        parts = ["(%s)*d/d%s" % (c, n) for c, n in zip(self.coeffs, names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def sym_product_of_derivations(ds: list[Derivation]) -> MultiDerivation:
    """Canonical map Sym^p Der(A) -> SDer^p(A) on a factorized element.

    (D_1 v ... v D_p)(g_1,...,g_p) = sum over permutations of prod D_i(g_j),
    read from the stored values.  Over the dual numbers this map is
    identically zero for p >= 2, as eps^2 = 0.
    """
    backend = ds[0].backend
    p = len(ds)
    values = [d._values() for d in ds]
    table: dict[tuple[int, ...], Poly] = {}
    for gens in itertools.combinations_with_replacement(range(num_der_generators(backend)), p):
        val = Poly.zero(backend)
        for perm in itertools.permutations(range(p)):
            term = Poly.one(backend)
            for slot, which in enumerate(perm):
                term = term * values[which][gens[slot]]
            val = val + term
        table[gens] = val
    return MultiDerivation(backend, p, table)
