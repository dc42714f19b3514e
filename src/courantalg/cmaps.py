"""The complex of quasi-Courant brackets with its bracket and wedge product.

A degree-r cochain is stored through its full symbol tower: for each level p
with 2p <= r, a table of scalar values

    levels[p][(g_1 <= ... <= g_p), (b_1, ..., b_{r-2p})]

holding pi^(p) applied to the algebra generators g_i, evaluated on module
basis elements and paired into the coefficient algebra (the degree-(r-2p)
multilinear form).  Level 0 is the form of the raw multilinear map, level 1
its symbol, level p+1 the symbol of level p.  A level is read on other
algebra arguments by the chain rule in each slot (`poly.generator_expansion`),
as every derivation-like object is.  Evaluation on arguments with
polynomial coefficients reduces slot by slot from the right: the last slot
is linear over the algebra, and an adjacent swap at slot i costs the
correction

    omega(..., y_i, y_{i+1}, ...) + omega(..., y_{i+1}, y_i, ...)
        = sigma(remaining args)(<y_i, y_{i+1}>),

which consumes one level of the tower.  This makes elements with genuinely
second-order symbols (nonzero level 2 over vanishing levels 0 and 1)
representable; the quartic built from a symmetric biderivation over the dual
numbers is the motivating case.

Insertion i_x C is the primitive of the complex: a basis element re-keys
the stored tables, and any other Q-term of x is read from the tower through
the slot reduction above.  A scalar brackets as a generator slice and a
module element as an insertion ([C, x] = i_x C).  From degree 2 on, the
bracket and the wedge are transported through the Poisson isomorphism
J_nabla0 of `symbol_map` onto the connection-side kernel,

    [a, b] = J{J^-1 a, J^-1 b},    a ^ b = J(J^-1 a ^ J^-1 b),

for one reference metric connection nabla0 per module
(`MetricModule.reference_connection`).  `_PREIMAGES` keeps the peeled
preimage of each operand and each transported result with the preimage it
was built from, so a nested bracket peels only its inputs.  An operand that
is no J-image (the quartic over the dual numbers, or a table that passes
the swap check but fails the complex's identities) keeps the graded Leibniz
recursion over basis insertions and generator slices (`_recursive_bracket`,
`_recursive_wedge`), which is also the oracle the tests hold the transport
to.

The tower is fraction-free: one table {(gens, args): {exp: int}} of int
numerators over one positive denominator per cochain, kept canonical, so
equal cochains have equal tables: a `Cochain` is a `poly.GroupedElement`,
as a `RothElement` is, and holds nothing else.  Each reading operation
passes `_eval_mono` a memo dict of its own and drops it when it returns.
exp is a packed monomial (see `poly`): the unit is 0, a product of
monomials is one add, and the (exp, basis index) arguments of `_eval_mono`
and its memo keys are pairs of ints.  With
G the least common denominator of the gram, a level-p evaluation is over
den * G^(L-p), L = degree // 2: each swap correction multiplies by one gram
entry.  `Poly` is the boundary type,
built only where a value leaves: `levels`, `omega`, `eval_level`,
`__call__`, `symbol`, `scalar_part` and `module_part`.  A Poly keeps the
same packed numerators over its own denominator, so where one enters (the
constructor, `from_module_element`, `scale`, evaluation arguments) its
numerators are summed as they are.
"""

from __future__ import annotations

import itertools
from math import lcm

from .modules import MetricModule, ModuleElement, ModuleError, inner
from .poly import (
    Backend,
    Derivation,
    GroupedElement,
    Memo,
    Poly,
    _as_poly,
    _axpy,
    _der_unit,
    _grouped_sum,
    _mul_add,
    _partial,
    _times_monomial,
    der_generator_var,
    generator_expansion,
    num_der_generators,
    packed_exponents_of_degree,
)
from .rothstein import ModuleMap, RothElement, roth_bracket

LevelTable = dict[tuple[tuple[int, ...], tuple[int, ...]], Poly]  # one level of the `levels` view


def _q_terms(x: ModuleElement) -> tuple[dict, int]:
    """x as its Q-terms {(packed exponent, basis index): int} over one denominator."""
    nums, d = _grouped_sum([(1, c._den, {b: c._num}) for b, c in enumerate(x.coeffs) if c._num])
    return {(e, b): k for b, v in nums.items() for e, k in v.items()}, d


def _expanded(args) -> tuple[list, int]:
    """Module arguments expanded by Q-linearity: one (margs, k) for each choice
    of a Q-term k_i x^e_i e_b_i of every argument, margs the (e_i, b_i) and k
    the product of the k_i, and the product of the arguments' denominators."""
    cleared = [_q_terms(x) for x in args]
    den = 1
    for _, d in cleared:
        den *= d
    combos = []
    for combo in itertools.product(*[terms.items() for terms, _ in cleared]):
        k = 1
        for _, q in combo:
            k *= q
        combos.append((tuple(m for m, _ in combo), k))
    return combos, den


class Cochain(GroupedElement):
    """Degree-r element of the quasi-Courant complex; zero cochains of all degrees are equal."""

    __slots__ = ("degree",)

    def __init__(self, module: MetricModule, degree: int, levels: dict[int, LevelTable]):
        """The cochain with the given Poly-valued tower levels."""
        if degree < 0:
            levels = {}
        for p, table in levels.items():
            if 2 * p > degree:
                raise ValueError("tower level %d too high for degree %d" % (p, degree))
            if any(len(gens) != p or len(args) != degree - 2 * p for gens, args in table):
                raise ValueError("malformed tower key")
        self.degree = degree
        self._set(module, *_grouped_sum([(1, v._den, {key: v._num}) for table in levels.values()
                                         for key, v in table.items()]))

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_numerators(module: MetricModule, degree: int, num: dict, den: int) -> "Cochain":
        """The cochain with tower entries {(gens, args): {exp: int}} over den > 0,
        made canonical; num is taken over, not copied."""
        c = object.__new__(Cochain)
        c.degree = degree
        c._set(module, num, den)
        return c

    @staticmethod
    def zero(module: MetricModule, degree: int) -> "Cochain":
        return Cochain.from_numerators(module, degree, {}, 1)

    @staticmethod
    def scalar(module: MetricModule, a: Poly) -> "Cochain":
        return Cochain(module, 0, {0: {((), ()): a}})

    @staticmethod
    def from_module_element(x: ModuleElement) -> "Cochain":
        """The form <x, .>: for x over d, entries over d * G."""
        module = x.module
        gram, G = module.numerators()[:2]
        terms, d = _q_terms(x)
        num: dict = {}
        for (e, a), k in terms.items():
            for b, g in enumerate(gram[a]):
                if g:
                    _mul_add(num.setdefault(((), (b,)), {}), {e: k}, g, module.backend)
        return Cochain.from_numerators(module, 1, num, d * G)

    @staticmethod
    def from_tables(module: MetricModule, degree: int, value_table, symbol_table=None) -> "Cochain":
        """Degree 2 or 3 element from a value table on basis tuples plus its symbol.

        value_table maps (r-1)-tuples of basis indices to ModuleElements;
        symbol_table maps (r-2)-tuples to Derivations.  Degrees up to 3 carry
        no higher tower levels, so these tables are the complete data.
        """
        if degree not in (2, 3):
            raise ValueError("table constructor supports degrees 2 and 3")
        lvl0: LevelTable = {}
        for key in itertools.product(range(module.rank), repeat=degree - 1):
            val = value_table.get(tuple(key))
            if val is None:
                continue
            for b in range(module.rank):
                lvl0[((), tuple(key) + (b,))] = inner(val, module.basis(b))
        symbol_table = symbol_table or {}
        lvl1: LevelTable = {  # the values D(g_j) of each symbol
            (gens, key): v for key in itertools.product(range(module.rank), repeat=degree - 2)
            if key in symbol_table for gens, v in symbol_table[key].table.items()}
        return Cochain(module, degree, {0: lvl0, 1: lvl1})

    @staticmethod
    def from_callable(module: MetricModule, degree: int, fn) -> "Cochain":
        """Degree 2 or 3 element from an evaluation callable, symbol inferred.

        fn takes degree-1 ModuleElements and returns a ModuleElement.  The
        symbol is reconstructed through the fullness witness (every algebra
        element a equals <a x, y> for the witness pair) and must be verified
        afterwards by the caller.
        """
        if degree not in (2, 3):
            raise ValueError("callable constructor supports degrees 2 and 3")
        backend = module.backend
        (wx, wy), = module.fullness_witness()
        value_table = {
            key: fn(*[module.basis(b) for b in key])
            for key in itertools.product(range(module.rank), repeat=degree - 1)
        }
        symbol_table = {}
        for key in itertools.product(range(module.rank), repeat=degree - 2):
            values = []
            for j in range(num_der_generators(backend)):
                gx = wx.scale(der_generator_var(backend, j))
                if degree == 2:
                    values.append(inner(fn(gx), wy) + inner(gx, fn(wy)))
                else:
                    values.append(inner(fn(gx, wy) + fn(wy, gx), module.basis(key[0])))
            symbol_table[key] = Derivation.from_values(backend, values)
        return Cochain.from_tables(module, degree, value_table, symbol_table)

    # -- structural ------------------------------------------------------

    @property
    def levels(self) -> dict[int, LevelTable]:
        """The tower as {p: {(gens, args): Poly}}, built on every read."""
        out: dict = {}
        for gens, args in self._num:
            out.setdefault(len(gens), {})[gens, args] = self._poly((gens, args))
        return out

    def _like(self, num: dict, den: int) -> "Cochain":
        return Cochain.from_numerators(self.module, self.degree, num, den)

    def _grade(self):
        return self.degree if self._num else None  # the zero element regardless of nominal degree

    def __repr__(self) -> str:
        return "Cochain(degree=%d, %d tower entries)" % (self.degree, len(self._num))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Cochain"):
        super()._check(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))

    def scale(self, a) -> "Cochain":
        """Module action of the coefficient algebra (multiplies every level)."""
        if not isinstance(a, Poly):
            a = Poly.const(self.module.backend, a)
        return _times(self, a._num, a._den)

    # -- evaluation --------------------------------------------------------

    def _eval_mono(self, p: int, gens: tuple[int, ...], margs, memo: dict) -> dict:
        """Level p on (packed monomial, basis index) arguments, as int
        numerators over den * G^(degree // 2 - p); the result is shared, not
        to be changed.  memo holds the values read so far: the reading
        operation that passes it makes it and drops it when it returns.

        The last argument x^e e_a that is not a basis element moves to the
        last slot, where the form is linear over the algebra, past the t
        basis elements e_b after it: the i-th swap costs the correction
        (-1)^i sigma(the other arguments)(<x^e e_a, e_b>), one level up the
        tower, and the moved value is multiplied by (-1)^t x^e.
        """
        gram, G = self.module.numerators()[:2]
        idx = len(margs) - 1
        while idx >= 0 and not margs[idx][0]:
            idx -= 1
        if idx < 0:  # basis elements only: a stored entry, read without the memo
            out = self._num.get((gens, tuple([b for _, b in margs])), {})
            if out and G != 1:
                f = G ** (self.degree // 2 - p)
                out = {e: f * c for e, c in out.items()}
            return out
        key = (gens, margs)
        hit = memo.get(key)
        if hit is not None:
            return hit
        backend = self.module.backend
        exp, a = margs[idx]
        head, tail = margs[:idx], margs[idx + 1:]
        moved = self._eval_mono(p, gens, head + tail + ((0, a),), memo)
        out = _times_monomial(moved, exp, backend, -1 if len(tail) % 2 else 1)
        for i, (_, b) in enumerate(tail):
            if gram[a][b]:
                ip = _times_monomial(gram[a][b], exp, backend, -1 if i % 2 else 1)
                self._apply_symbol(p, gens, ip, head + tail[:i] + tail[i + 1:], out, memo)
        memo[key] = out
        return out

    def _apply_symbol(self, p: int, gens: tuple[int, ...], a: dict, margs, out: dict, memo: dict) -> dict:
        """out += sigma of the level-p form applied to a, i.e. one level up the
        tower; a is a numerator sum over G.  Returns out."""
        backend = self.module.backend
        for j, shift in enumerate(backend.shifts):
            part = _partial(a, shift)
            if part:
                _mul_add(out, part, self._eval_mono(p + 1, tuple(sorted(gens + (j,))), margs, memo), backend)
        return out

    def eval_level(self, p: int, gen_args, mod_args) -> Poly:
        """Level-p value on general algebra and module arguments."""
        if len(mod_args) != self.degree - 2 * p:
            raise ValueError("expected %d module arguments" % (self.degree - 2 * p))
        if len(gen_args) != p:
            raise ValueError("expected %d algebra arguments" % p)
        return self._eval_sder(gen_args, mod_args, {})

    def _eval_sder(self, gen_args, mod_args, memo: dict) -> Poly:
        """Level len(gen_args) on algebra and module arguments.  The algebra
        arguments expand by the chain rule into sorted generator tuples
        (`generator_expansion`), each read once; the module arguments expand
        by Q-linearity into (monomial, basis index) probes read by
        `_eval_mono` with the memo of the calling operation."""
        backend = self.module.backend
        p = len(gen_args)
        expansion = generator_expansion(backend, gen_args)
        lift = lcm(*[c._den for c in expansion.values()])
        combos, d = _expanded(mod_args)
        out: dict = {}
        for gens, c in expansion.items():
            level: dict = {}
            for margs, k in combos:
                _axpy(level, self._eval_mono(p, gens, margs, memo), k)
            _mul_add(out, c._num, level, backend, lift // c._den)
        den = d * self._den * self.module.numerators()[1] ** (self.degree // 2 - p) * lift
        return _as_poly(backend, out, den)

    def omega(self, args) -> Poly:
        """The degree-r multilinear form <C(x_1..x_{r-1}), x_r>."""
        return self.eval_level(0, (), tuple(args))

    def _value_terms(self, margs, memo: dict) -> dict:
        """The raw map on r-1 (packed monomial, basis index) arguments, as
        Q-terms over den * G^(degree // 2) * H: its level-0 values against
        each basis element, read by `_eval_mono`, raised by the inverse gram."""
        module = self.module
        return module.raise_terms({c: self._eval_mono(0, (), margs + ((0, c),), memo)
                                   for c in range(module.rank)})

    def __call__(self, *args: ModuleElement) -> ModuleElement:
        """The raw multilinear map on r-1 module arguments.  Each argument is
        expanded into its Q-terms once, and the map is Q-linear in each, so
        the value sums `_value_terms` over the product of the expansions,
        with one `_eval_mono` memo per call."""
        if self.degree < 1:
            raise ValueError("degree-0 elements take no arguments")
        if len(args) != self.degree - 1:
            raise ValueError("expected %d arguments" % (self.degree - 1))
        module, memo = self.module, {}
        _, G, _, H = module.numerators()
        combos, d = _expanded(args)
        out: dict = {}
        for margs, k in combos:
            _axpy(out, self._value_terms(margs, memo), k)
        return module.element_of_terms(out, d * self._den * G ** (self.degree // 2) * H)

    def scalar_part(self) -> Poly:
        if self.degree != 0:
            raise ValueError("not a degree-0 element")
        return self._poly(((), ()))

    def module_part(self) -> ModuleElement:
        if self.degree != 1:
            raise ValueError("not a degree-1 element")
        return self.module.element_of_terms(*_raised(self))

    def symbol(self, args) -> Derivation:
        """The symbol on r-2 module arguments: the Derivation whose values on
        the algebra generators are the level-1 values."""
        if self.degree < 2:
            raise ValueError("degree >= 2 required")
        backend = self.module.backend
        return Derivation.from_values(backend, [self.eval_level(1, (der_generator_var(backend, j),), tuple(args))
                                                for j in range(num_der_generators(backend))])


# -- slices and insertion ---------------------------------------------------


def _raised(c: Cochain) -> tuple[dict, int]:
    """The module part of a degree-1 cochain as Q-terms over one denominator."""
    vals = {args[0]: v for (_, args), v in c._num.items()}
    return c.module.raise_terms(vals), c._den * c.module.numerators()[3]


def _times(c: Cochain, a: dict, d: int) -> Cochain:
    """a C for the numerator sum a over d."""
    backend = c.module.backend
    num = {k: _mul_add({}, a, v, backend) for k, v in c._num.items()}
    return Cochain.from_numerators(c.module, c.degree, num, c._den * d)


def generator_slice(c: Cochain, j: int) -> Cochain:
    """[C, g_j] for the j-th algebra generator: one tower level consumed."""
    num = {}
    for (gens, args), v in c._num.items():
        if j in gens:  # never below degree 2, where every entry is on level 0
            rest = list(gens)
            rest.remove(j)
            num[tuple(rest), args] = v
    return Cochain.from_numerators(c.module, c.degree - 2, num, c._den)


def bracket_scalar(c: Cochain, a: Poly) -> Cochain:
    """[C, a]: the derivation-in-a slice of the tower."""
    return _bracket_scalar(c, a._num, a._den)


def _bracket_scalar(c: Cochain, a: dict, d: int) -> Cochain:
    """[C, a] = sum_j (da/dg_j) [C, g_j] for the numerator sum a over d."""
    out = Cochain.zero(c.module, c.degree - 2)
    for j, shift in enumerate(c.module.backend.shifts):
        out = out + _times(generator_slice(c, j), _partial(a, shift), d)
    return out


def insert(c: Cochain, x: ModuleElement) -> Cochain:
    """i_x C: insertion into the first argument (degree >= 2 only)."""
    if c.degree < 2:
        raise ValueError("insertion needs degree >= 2")
    if x.module != c.module:
        raise ModuleError("module mismatch")
    return _insert_terms(c, *_q_terms(x))


def _insert_terms(c: Cochain, terms: dict, d: int) -> Cochain:
    """i_x C in any degree for x with Q-terms {(packed exponent, a): int}
    over d: the primitive of the complex, Q-linear in x.

    A term k e_a of x re-keys the stored entries whose first argument is a;
    a term k x^e e_a with x^e not the unit reads every entry of the result
    from the tower, with x^e e_a in the first slot, through `_eval_mono`;
    then the result is over d * den * G^(degree // 2).
    """
    module = c.module
    degree = c.degree - 1
    ngen = num_der_generators(module.backend)
    G = module.numerators()[1]
    lift = G ** (c.degree // 2) if any(e for e, _ in terms) else 1
    num: dict = {}
    memo: dict = {}
    for (e, a), k in terms.items():
        if not e:
            for (gens, args), v in c._num.items():
                if args and args[0] == a:
                    _axpy(num.setdefault((gens, args[1:]), {}), v, k * lift)
            continue
        for p in range(degree // 2 + 1):
            f = k * G ** p
            for gens in itertools.combinations_with_replacement(range(ngen), p):
                for bargs in itertools.product(range(module.rank), repeat=degree - 2 * p):
                    v = c._eval_mono(p, gens, ((e, a),) + tuple((0, b) for b in bargs), memo)
                    if v:
                        _axpy(num.setdefault((gens, bargs), {}), v, f)
    return Cochain.from_numerators(module, degree, num, d * c._den * lift)


def _tabulate(module: MetricModule, degree: int, entries_at) -> Cochain:
    """The cochain of the given degree with the tower entries entries_at yields.

    For each level p and sorted generator tuple, entries_at receives the
    generator variables and returns the map from basis-index tuples to the
    level-p entries, or None when all of them vanish.
    """
    backend = module.backend
    ngen = num_der_generators(backend)
    levels: dict[int, LevelTable] = {}
    for p in range(degree // 2 + 1):
        table = levels[p] = {}
        for gens in itertools.combinations_with_replacement(range(ngen), p):
            entry = entries_at(tuple(der_generator_var(backend, j) for j in gens))
            if entry is None:
                continue
            for bargs in itertools.product(range(module.rank), repeat=degree - 2 * p):
                table[(gens, bargs)] = entry(bargs)
    return Cochain(module, degree, levels)


# -- bracket and wedge ------------------------------------------------------

DEGREE_CAP = 8  # table sizes grow as rank^(r-1); results above this degree refused

_BRACKET_CACHE = Memo()
_WEDGE_CACHE = Memo()
_PREIMAGES = Memo()  # cochain -> its J-preimage under the reference connection, or _NON_MEMBER
_NON_MEMBER = object()


def _check_degree_cap(result_degree: int, what: str):
    if result_degree > DEGREE_CAP:
        raise ValueError(
            "%s of result degree %d exceeds the %d cap" % (what, result_degree, DEGREE_CAP)
        )


def _preimage(c: Cochain, conn) -> RothElement | None:
    """J^-1 c under the reference connection conn of c's module, peeled on
    the first read and kept in `_PREIMAGES`; None when c is no J-image."""
    hit = _PREIMAGES.get(c)
    if hit is None:
        from .symbol_map import _peel  # symbol_map builds on Cochain

        phi, certificate = _peel(c, conn)
        hit = _PREIMAGES.remember(c, _NON_MEMBER if certificate is not None else phi)
    return None if hit is _NON_MEMBER else hit


def _transported(product, a: Cochain, b: Cochain, degree: int) -> Cochain | None:
    """J(product(J^-1 a, J^-1 b, conn)) for J of the module's reference
    connection conn, as a cochain of the given degree (J of 0 has degree 0),
    or None when a or b is no J-image.  The result is remembered with its
    preimage, so a later product built on it peels nothing."""
    conn = a.module.reference_connection()
    phi = _preimage(a, conn)
    psi = None if phi is None else _preimage(b, conn)
    if psi is None:
        return None
    chi = product(phi, psi, conn)
    if chi.is_zero():
        return Cochain.zero(a.module, degree)
    from .symbol_map import apply_J  # symbol_map builds on Cochain

    out = apply_J(chi, conn)
    _PREIMAGES.remember(out, chi)
    return out


def _negated(c: Cochain) -> Cochain:
    """-c, remembered with -phi as its preimage when phi is c's."""
    out = -c
    phi = _PREIMAGES.get(c)
    if phi is not None and phi is not _NON_MEMBER:
        _PREIMAGES.remember(out, -phi)
    return out


def cbracket(a: Cochain, b: Cochain) -> Cochain:
    """The graded bracket [a, b] of degree -2.

    A scalar or a module element takes its one-step formula (`_one_step`).
    From degree 2 on, the bracket is transported through the Poisson
    isomorphism J of the module's reference connection:
    [a, b] = J{J^-1 a, J^-1 b}.  An operand that is no J-image (the quartic
    over the dual numbers) takes the insertion recursion
    `_recursive_bracket`, which is also the oracle of the transport.
    """
    if a.module != b.module:
        raise ModuleError("module mismatch")
    r, s = a.degree, b.degree
    n = r + s - 2
    if a.is_zero() or b.is_zero():
        return Cochain.zero(a.module, n)
    _check_degree_cap(n, "bracket")
    if r > s:
        out = cbracket(b, a)
        return out if (r * s) % 2 else _negated(out)
    key = (a, b)
    hit = _BRACKET_CACHE.get(key)
    if hit is not None:
        return hit
    out = _one_step(a, b) if r < 2 else _transported(roth_bracket, a, b, n)
    if out is None:
        out = _recursive_bracket(a, b, {})
    return _BRACKET_CACHE.remember(key, out)


def _one_step(a: Cochain, b: Cochain) -> Cochain:
    """[a, b] for a of degree 0, the scalar slice, or 1, the insertion [b, x] = i_x b."""
    if a.degree == 0:
        return -_bracket_scalar(b, a._num[(), ()], a._den)
    out = _insert_terms(b, *_raised(a))
    return -out if b.degree % 2 == 0 else out


def _recursive_bracket(a: Cochain, b: Cochain, memo: dict) -> Cochain:
    """[a, b] by the graded Leibniz recursion alone, the sub-brackets of one
    call kept in memo: the route of an operand that is no J-image, and the
    oracle the tests hold the transport to."""
    r, s = a.degree, b.degree
    if a.is_zero() or b.is_zero():
        return Cochain.zero(a.module, r + s - 2)
    if r > s:
        out = _recursive_bracket(b, a, memo)
        return out if (r * s) % 2 else -out
    out = memo.get((a, b))
    if out is None:
        if r < 2:
            out = _one_step(a, b)
        else:
            out = _by_insertion(lambda x, y: _recursive_bracket(x, y, memo), a, b, r + s - 2)
        memo[a, b] = out
    return out


def _by_insertion(op, a: Cochain, b: Cochain, n: int) -> Cochain:
    """op(a, b) of degree n by the graded Leibniz rule; op is the bracket or the wedge.

    Level 0 stacks the basis insertions
    i_{e_k} op(a, b) = (-1)^|b| op(i_{e_k} a, b) + op(a, i_{e_k} b),
    where each i_{e_k} re-keys stored entries; the higher levels come from
    the generator slices.
    """
    sign = -1 if b.degree % 2 else 1
    parts = []
    for k in range(a.module.rank):
        e_k = {(0, k): 1}
        for f, c in ((sign, op(_insert_terms(a, e_k, 1), b)), (1, op(a, _insert_terms(b, e_k, 1)))):
            parts.append((f, c._den, {((), (k,) + args): v for (gens, args), v in c._num.items() if not gens}))
    return _compose_from_slices(op, a, b, n, parts)


def _compose_from_slices(op, a: Cochain, b: Cochain, degree: int, parts: list) -> Cochain:
    """op(a, b) of the given degree, the sum of the parts (sign, den, entries)
    that make its level 0 and of its generator slices.

    The bracket of op(a, b) with the j-th algebra generator is
    op(slice_j a, b) + op(a, slice_j b); level p >= 1 stacks level p-1 of
    those slices.
    """
    if degree >= 2:
        for j in range(num_der_generators(a.module.backend)):
            for c in (op(generator_slice(a, j), b), op(a, generator_slice(b, j))):
                # an entry led by a generator below j is counted by that generator
                parts.append((1, c._den, {(tuple(sorted((j,) + gens)), args): v
                                          for (gens, args), v in c._num.items() if not gens or gens[0] >= j}))
    return Cochain.from_numerators(a.module, degree, *_grouped_sum(parts))


def cwedge(a: Cochain, b: Cochain) -> Cochain:
    """Associative graded-commutative product.

    A scalar side multiplies the tower.  Otherwise the wedge is transported
    through J of the module's reference connection, a ^ b = J(J^-1 a ^ J^-1 b),
    as `cbracket` is; an operand that is no J-image takes the insertion
    recursion `_recursive_wedge`.
    """
    if a.module != b.module:
        raise ModuleError("module mismatch")
    r, s = a.degree, b.degree
    n = r + s
    if a.is_zero() or b.is_zero():
        return Cochain.zero(a.module, n)
    if r == 0:
        return _times(b, a._num[(), ()], a._den)
    if s == 0:
        return _times(a, b._num[(), ()], b._den)
    _check_degree_cap(n, "wedge")
    key = (a, b)
    hit = _WEDGE_CACHE.get(key)
    if hit is not None:
        return hit
    out = _transported(lambda phi, psi, conn: phi.wedge(psi), a, b, n)
    if out is None:
        out = _recursive_wedge(a, b, {})
    return _WEDGE_CACHE.remember(key, out)


def _recursive_wedge(a: Cochain, b: Cochain, memo: dict) -> Cochain:
    """a ^ b by the graded Leibniz recursion alone, as `_recursive_bracket`."""
    if a.is_zero() or b.is_zero() or a.degree == 0 or b.degree == 0:
        return cwedge(a, b)  # no transport: the zero or the tower times the scalar
    out = memo.get((a, b))
    if out is None:
        out = memo[a, b] = _by_insertion(lambda x, y: _recursive_wedge(x, y, memo), a, b, a.degree + b.degree)
    return out


def _shuffles(p: int, q: int):
    """(p,q)-shuffles of range(p+q) as (sign, block1, block2)."""
    universe = list(range(p + q))
    for block1 in itertools.combinations(universe, p):
        block2 = tuple(i for i in universe if i not in block1)
        inversions = sum(1 for i in block1 for j in block2 if i > j)
        yield (-1 if inversions % 2 else 1), block1, block2


def cwedge_shuffle(a: Cochain, b: Cochain) -> Cochain:
    """Wedge through the closed shuffle formula for the level-0 table.

    Higher tower levels are assembled through the generator slices exactly
    as in the recursive mode, so the two modes differing on any level-0
    entry is the cross-check.
    """
    if a.module != b.module:
        raise ModuleError("module mismatch")
    r, s = a.degree, b.degree
    if r == 0 or s == 0 or a.is_zero() or b.is_zero():
        return cwedge(a, b)
    backend = a.module.backend
    n = r + s
    _check_degree_cap(n, "wedge")
    sign_rs = -1 if (r * s) % 2 else 1
    firsts = [(sign_rs * sgn, blk1, blk2, a._num, b._num) for sgn, blk1, blk2 in _shuffles(r, s - 1)]
    firsts += [(sgn, blk1, blk2, b._num, a._num) for sgn, blk1, blk2 in _shuffles(s, r - 1)]
    lvl0: dict = {}
    for args in itertools.product(range(a.module.rank), repeat=n):
        total: dict = {}
        for sgn, blk1, blk2, left, right in firsts:
            w1 = left.get(((), tuple(args[i] for i in blk1)))
            if w1 is None:
                continue
            w2 = right.get(((), tuple(args[i] for i in blk2) + (args[-1],)))
            if w2 is not None:
                _mul_add(total, w1, w2, backend, sgn)
        if total:
            lvl0[(), args] = total
    return _compose_from_slices(cwedge, a, b, n, [(1, a._den * b._den, lvl0)])


def cmap_wedge(a: Cochain, b: Cochain, mode: str = "recursive") -> Cochain:
    if mode == "recursive":
        return cwedge(a, b)
    if mode == "shuffle":
        return cwedge_shuffle(a, b)
    raise ValueError("mode must be recursive or shuffle")


# -- verification -----------------------------------------------------------


def _probe_keys(backend: Backend, rank: int, depth: int):
    """(packed exponent, basis index) of each probe x^e e_b, in the order of `probe_elements`."""
    if depth < 0:
        raise ValueError("probe depth must be nonnegative, got %d" % depth)
    for total in range(depth + 1):
        for exp in packed_exponents_of_degree(backend, total):
            for b in range(rank):
                yield exp, b


def probe_elements(module: MetricModule, depth: int):
    """Basis elements times every monomial of total degree <= depth (the unit first)."""
    backend = module.backend
    return [module.basis(b).scale(_as_poly(backend, {exp: 1}))
            for exp, b in _probe_keys(backend, module.rank, depth)]


def _probe_pairing(module: MetricModule, u, v) -> dict:
    """<x^e1 e_a, x^e2 e_b> for probe keys u = (e1, a), v = (e2, b), as numerators over G."""
    return _times_monomial(module.numerators()[0][u[1]][v[1]], u[0] + v[0], module.backend)


def default_verify_depth(c: Cochain) -> int:
    backend = c.module.backend
    maxdeg = max((sum(backend.unpack(e)) for v in c._num.values() for e in v), default=0)
    return 2 * (maxdeg + 1)


def cmap_verify(c: Cochain, depth: int | None = None, *, memo: dict | None = None) -> tuple[bool, dict]:
    """Check the two defining identities on all bounded-degree probe tuples.

    For every probe tuple y and adjacent position i, the swap identity
    omega(y) + omega(y swapped at i) = sigma(rest)(<y_i, y_{i+1}>) must hold;
    the i = r-1 instance is the derivation identity of the symbol against the
    inner product.  Probes are monomials x^e e_b, so omega is a call-local
    table of level-0 `_eval_mono` values, one per probe tuple, and both sides
    are numerators over den * G^(r // 2).  (y, i) and (y swapped at i, i) are
    one identity, and the second comes first in product order, so only
    y_i <= y_{i+1} is checked: the first violation is unchanged.  memo is the
    `_eval_mono` memo, fresh unless the caller reads c again.  Returns
    (ok, report).
    """
    if depth is None:
        depth = default_verify_depth(c)
    report = {"bound": depth, "violation": None}
    r = c.degree
    if r < 2:
        return True, report
    module = c.module
    backend = module.backend
    keys = list(_probe_keys(backend, module.rank, depth))
    omega: dict = {}
    partials: dict = {}
    memo = {} if memo is None else memo
    for y in itertools.product(range(len(keys)), repeat=r):
        for i in range(r - 1):
            a, b = y[i], y[i + 1]
            if a > b:
                continue
            if (a, b) not in partials:
                ip = _probe_pairing(module, keys[a], keys[b])
                partials[a, b] = [(j, part) for j, s in enumerate(backend.shifts) if (part := _partial(ip, s))]
            rest = tuple(keys[k] for k in y[:i] + y[i + 2:])
            rhs: dict = {}
            for g, part in partials[a, b]:
                _mul_add(rhs, part, c._eval_mono(1, (g,), rest, memo), backend)
            swapped = y[:i] + (b, a) + y[i + 2:]
            for t in (y, swapped):
                if t not in omega:
                    omega[t] = c._eval_mono(0, (), tuple(keys[k] for k in t), memo)
            if _axpy(dict(omega[y]), omega[swapped]) != rhs:
                probes = probe_elements(module, depth)
                report["violation"] = (
                    "swap identity fails at position %d on %s" % (i + 1, [repr(probes[k]) for k in y])
                )
                return False, report
    return True, report


# -- forms and the symbol tower ----------------------------------------------


class CochainForm:
    """The multilinear-form picture of a cochain (same tower, scalar values)."""

    __slots__ = ("cochain",)

    def __init__(self, cochain: Cochain):
        self.cochain = cochain

    @property
    def degree(self) -> int:
        return self.cochain.degree

    def __call__(self, *args: ModuleElement) -> Poly:
        return self.cochain.omega(args)

    def __eq__(self, other):
        if not isinstance(other, CochainForm):
            return NotImplemented
        return self.cochain == other.cochain


def to_form(c: Cochain) -> CochainForm:
    return CochainForm(c)


def from_form(form: CochainForm) -> Cochain:
    """Back to the map picture.  Nothing is checked: the form is linear over the
    algebra in its last slot by construction, as `_eval_mono` multiplies the
    value on a last argument x^e e_b by x^e."""
    return form.cochain


class SymbolTower:
    """The sequence pi^(0), pi^(1), ... of iterated symbols of a form."""

    __slots__ = ("cochain", "max_level")

    def __init__(self, cochain: Cochain):
        self.cochain = cochain
        self.max_level = cochain.degree // 2 if cochain.module.backend.nvars else 0

    def level(self, p: int) -> LevelTable:
        return self.cochain.levels.get(p, {})

    def delta(self, p: int, gen_args) -> Cochain:
        """The level-p slice as a cochain of degree r - 2p."""
        out = self.cochain
        for a in gen_args:
            out = bracket_scalar(out, a)
        return out


def symbol_tower(form: CochainForm, depth: int = 1) -> SymbolTower:
    """Build and verify the tower of iterated symbols.

    Checks, for each consecutive pair of levels and all probes bounded by
    depth, that level p+1 applied to <u, v> reproduces the symmetrized
    double insertion into level p, and that each level is symmetric with
    derivation slots.  Raises on inconsistency.  The probes u, v are
    monomials x^e e_b, so the first check compares numerators over
    den * G^(r // 2 - p) read by `_eval_mono`, as `cmap_verify` does.
    Levels are symmetric by their sorted generator keys, and read by the
    chain rule in every slot, so the derivation check fails only on a
    stored value that is no multiple of D_i(g_i): over the dual numbers, a
    level p >= 1 entry with a constant term.
    """
    c = form.cochain
    module = c.module
    backend = module.backend
    ngen = num_der_generators(backend)
    tower = SymbolTower(c)
    keys = list(_probe_keys(backend, module.rank, depth))
    units = [(0, b) for b in range(module.rank)]
    memo: dict = {}
    for p in range(0, c.degree // 2):
        nargs = c.degree - 2 * p
        if nargs < 2:
            break
        for gens in itertools.combinations_with_replacement(range(ngen), p):
            for u, v in itertools.product(keys, repeat=2):
                ip = _probe_pairing(module, u, v)
                for zargs in itertools.product(units, repeat=nargs - 2):
                    lhs = c._apply_symbol(p, gens, ip, zargs, {}, memo)
                    rhs = _axpy(dict(c._eval_mono(p, gens, (u, v) + zargs, memo)),
                                c._eval_mono(p, gens, (v, u) + zargs, memo))
                    if lhs != rhs:
                        raise ValueError(
                            "symbol extraction inconsistent at level %d" % (p + 1)
                        )
    # each level p >= 1 must be a derivation in every slot.  Every argument is
    # read by the chain rule, so this is a condition on the stored values
    # L(g_j, ...): they are multiples of D_i(g_i) (`_der_unit`), as over the
    # dual numbers 0 = L(eps^2, ...) = 2 eps L(eps, ...)
    unit = _der_unit(backend)
    bad = [len(gens) for (gens, _), v in c._num.items() if gens and any(k < unit for k in v)]
    if bad:
        raise ValueError("level %d is not a derivation in slot 0" % min(bad))
    return tower


# -- push forward -------------------------------------------------------------


def cmap_pushforward(c: Cochain, gmap: ModuleMap) -> Cochain:
    """Transport along an isometric bijection over an algebra isomorphism."""
    if not gmap.is_isometric():
        raise ModuleError("push forward requires an isometric module map")
    src, dst = gmap.source, gmap.target
    if c.module != src:
        raise ModuleError("module mismatch")
    g = gmap.algebra_map
    ginv = g.inverse()
    pre_basis = [gmap.left_inverse(dst.basis(b)) for b in range(dst.rank)]
    memo: dict = {}

    def entries_at(gvars):
        src_gvars = tuple(ginv(v) for v in gvars)
        return lambda bargs: g(c._eval_sder(src_gvars, tuple(pre_basis[b] for b in bargs), memo))

    return _tabulate(dst, c.degree, entries_at)


def quartic_from_biderivation(module: MetricModule, P) -> Cochain:
    """The degree-4 element C(x, y, z) = P(x, z) y on a rank-1 module.

    P is a symmetric biderivation of the coefficient algebra; the module must
    be A itself with the multiplication pairing.  Value and symbol tables
    vanish on basis tuples; the entire content sits in the second tower
    level, where pi^(2)(a, b) = P(a, b).  Over the dual numbers this is the
    standard element outside the image of the symbol calculus.
    """
    if module.rank != 1 or not module.gram[0][0].is_one():
        raise ModuleError("biderivation quartic lives on A itself with the product pairing")
    backend = module.backend
    ngen = num_der_generators(backend)
    lvl2: LevelTable = {}
    for gens in itertools.combinations_with_replacement(range(ngen), 2):
        gvars = [der_generator_var(backend, j) for j in gens]
        val = P(gvars[0], gvars[1])
        if not val.is_zero():
            lvl2[(tuple(gens), ())] = val
    return Cochain(module, 4, {2: lvl2})


# -- spec-facing aliases -------------------------------------------------------


def cmap_eval(c: Cochain, args) -> ModuleElement:
    return c(*args)


def cmap_bracket(a: Cochain, b: Cochain) -> Cochain:
    return cbracket(a, b)
