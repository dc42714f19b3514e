"""Courant structures, their verification, deformation differential and cohomology.

A structure is a degree-3 element m with [m, m] = 0, kept in both pictures:
as a cochain and as its preimage Theta in the connection-based algebra.  The
deformation differential is delta = {Theta, .} on the connection side, with
[m, .] as the cross-checking route.  delta is the Hamiltonian derivation Q
of Theta (Roytenberg, math/0203110): its values on all generators are built
once per structure, and delta g = sum_v Q(v) (d->/dv g) follows by Leibniz,
in the kernel `roth_bracket` runs on, on int numerators over one
denominator; a block entry is divided once, on its way out, and an element
leaves as numerators.  Q is odd, so Q^2 = [Q, Q] / 2 is an even derivation,
and its values on the generators are built with those of Q: delta^2 on a
basis monomial is one Leibniz expansion of that table, which divides
nothing, and for a Courant structure the table is empty, so the delta^2
check applies no Q at all.  Block ranks come from fraction-free elimination
on int rows (`linalg.rank`).  The graded blocks are cut by an internal
polynomial degree (a variable counts +1, a derivation generator -1, module
basis elements carry the module's declared internal degrees).

The blocks H^{r,d} exist exactly when Q keeps the bidegree of every
generator: Q(v) has degree |v| + 1 and the internal degree of v, so that by
Leibniz Q maps each block (r, d) into (r + 1, d).  That is read once off the
Q table, whatever the window; `delta_block`, `delta_squared_witness` (so
`delta_squared_is_zero`) and `cohomology_dims` raise ModuleError naming the
first term that breaks it.  Over the dual numbers a Theta of internal
degree 0 with a Der factor breaks it: epsd(eps) = eps, yet eps counts +1
and epsd -1.  Such structures have no cohomology table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .cmaps import Cochain, _expanded, cbracket, cmap_verify, probe_elements
from .modules import Connection, MetricModule, ModuleElement, ModuleError, inner
from .poly import (
    Backend,
    Derivation,
    Memo,
    Poly,
    _axpy_groups,
    _divided,
    _mul_add,
    _partial,
    packed_exponents_of_degree,
)
from .rothstein import (
    AlgebraMap,
    ModuleMap,
    RothElement,
    _apply_derivation,
    _hamiltonian,
    generators,
    graded_monomials,
    roth_bracket,
)
from .symbol_map import apply_J, invert_J_deg3


class CourantStructure:
    """Degree-3 element with vanishing self-bracket, in both pictures."""

    __slots__ = ("module", "connection", "cochain", "theta", "_q")

    def __init__(self, module: MetricModule, connection: Connection, cochain: Cochain, theta: RothElement):
        self.module = module
        self.connection = connection
        self.cochain = cochain
        self.theta = theta
        self._q = None  # the generator table of Q = {Theta, .}, built on first use

    @property
    def anchor(self) -> tuple[Derivation, ...]:
        """The symbol of the structure on each basis element, read on every access."""
        return tuple(self.cochain.symbol((x,)) for x in self.module.basis_elements())

    @staticmethod
    def from_cochain(m: Cochain, conn: Connection, check: bool = True) -> "CourantStructure":
        return CourantStructure._from_both(m, invert_J_deg3(m, conn), conn, check)

    @staticmethod
    def from_theta(theta: RothElement, conn: Connection, check: bool = True) -> "CourantStructure":
        return CourantStructure._from_both(apply_J(theta, conn), theta, conn, check)

    @staticmethod
    def _from_both(m: Cochain, theta: RothElement, conn: Connection, check: bool) -> "CourantStructure":
        cs = CourantStructure(theta.module, conn, m, theta)
        if check:
            ok, report = verify_courant(m)
            if not ok:
                raise ValueError("not a Courant structure: %s" % report)
        return cs

    def bracket(self, x: ModuleElement, y: ModuleElement) -> ModuleElement:
        return derived_bracket(self, x, y)


# -- constructors ---------------------------------------------------------------


def standard_module(n: int) -> MetricModule:
    """A^{2n} with the hyperbolic pairing of the e-block against the f-block."""
    backend = Backend.free(n)
    rank = 2 * n
    zero = Poly.zero(backend)
    one = Poly.one(backend)
    gram = [[zero] * rank for _ in range(rank)]
    for i in range(n):
        gram[i][n + i] = one
        gram[n + i][i] = one
    names = tuple("e%d" % (i + 1) for i in range(n)) + tuple("f%d" % (i + 1) for i in range(n))
    internal = (-1,) * n + (1,) * n
    return MetricModule(backend, gram, names=names, internal_degrees=internal)


_STANDARD = Memo()


def make_standard_courant(n: int) -> CourantStructure:
    """The structure whose derived bracket is the Dorfman bracket on A^{2n}.

    Basis e_i plays the coordinate vector field, f_i the coordinate one-form;
    the generator is -sum_i D_i ^ f_i, whose anchor on e_i is +D_i.  The
    structure is immutable, so it is built and verified once per n.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    hit = _STANDARD.get(n)
    if hit is not None:
        return hit
    module = standard_module(n)
    conn = Connection.flat(module)
    theta = RothElement(
        module,
        {((i,), (n + i,)): Poly.const(module.backend, -1) for i in range(n)},
    )
    return _STANDARD.remember(n, CourantStructure.from_theta(theta, conn, check=True))


def make_quadratic_lie(structure_constants, gram) -> CourantStructure:
    """Lie algebra over Q with an invariant inner product, as a Courant structure.

    structure_constants[i][j] is the coefficient vector of the bracket of the
    i-th and j-th basis elements; the anchor vanishes.  Rejects non-invariant
    grams and non-Jacobi tables.
    """
    backend = Backend.free(0)
    rank = len(gram)
    gram_p = [[Poly.const(backend, v) if not isinstance(v, Poly) else v for v in row] for row in gram]
    module = MetricModule(backend, gram_p)
    csts = {}
    for i in range(rank):
        for j in range(rank):
            vec = structure_constants[i][j]
            csts[(i, j)] = ModuleElement(
                module, [Poly.const(backend, v) if not isinstance(v, Poly) else v for v in vec]
            )
    for i in range(rank):
        for j in range(rank):
            if csts[(i, j)] != -csts[(j, i)]:
                raise ValueError("structure constants must be antisymmetric")
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                lhs = inner(csts[(i, j)], module.basis(k))
                rhs = -inner(module.basis(j), csts[(i, k)])
                if lhs != rhs:
                    raise ValueError("gram is not invariant under the bracket")
    m = Cochain.from_tables(module, 3, csts, symbol_table=None)
    ok, report = verify_courant(m)
    if not ok:
        raise ValueError("bracket table fails the structure equations: %s" % report)
    return CourantStructure.from_cochain(m, Connection.flat(module), check=False)


# -- verification ----------------------------------------------------------------


def jacobi_identity_holds(m: Cochain, probes, *, memo: dict | None = None) -> tuple[bool, str | None]:
    """m(x, m(y, z)) = m(m(x, y), z) + m(y, m(x, z)) on the probe set.

    m is Q-bilinear, so every value is assembled from a table of m on pairs
    of monomial elements (x^e1 e_a, x^e2 e_b), each entry the pair read
    `Cochain._value_terms` that `Cochain.__call__` sums, made at most once
    per call.  Elements are compared as their numerators {a: {exp: int}}.
    The table holds int numerators over one denominator and each probe
    enters as its numerators, over its own, so both sides of an identity are
    numerators over the same denominator: they are compared undivided.  memo is the `_eval_mono` memo, fresh unless the
    caller has read m already.  A failure names the first triple and the
    first nonzero Q-term of lhs - rhs, by basis element and then monomial
    (`_jacobi_witness`).
    """
    if m.degree != 3:
        raise ValueError("the Jacobi check needs a degree-3 element, got degree %d" % m.degree)
    module = m.module
    table: dict = {}
    memo = {} if memo is None else memo

    def bilinear(u: dict, v: dict, out: dict | None = None) -> dict:
        out = {} if out is None else out
        for margs, k in _expanded((u, v)):
            value = table.get(margs)
            if value is None:
                value = table[margs] = m._value_terms(margs, memo)
            _axpy_groups(out, value, k)
        return out

    probes = list(probes)
    module.require(*probes)
    terms = [x._num for x in probes]
    pairs = {(j, k): bilinear(terms[j], terms[k])
             for j, k in itertools.product(range(len(terms)), repeat=2)}
    for i, j, k in itertools.product(range(len(terms)), repeat=3):
        lhs = bilinear(terms[i], pairs[j, k])
        rhs = bilinear(terms[j], pairs[i, k], bilinear(pairs[i, j], terms[k]))
        if lhs != rhs:
            # a table value is over D = den * G * H, so each side is over D^2 times the probe denominators
            D = m._den * module.numerators()[1] * module.numerators()[3]
            diff = _axpy_groups(lhs, rhs, -1)
            a = min(diff)
            exp = min(diff[a])  # packed exponents sort as exponent tuples do
            value = Fraction(diff[a][exp], D * D * probes[i]._den * probes[j]._den * probes[k]._den)
            return False, _jacobi_witness(probes[i], probes[j], probes[k], a, module.backend.unpack(exp), value)
    return True, None


def _jacobi_witness(x, y, z, a: int, exp: tuple, value: Fraction) -> str:
    """The failure message of the Jacobi check on (x, y, z), whose lhs - rhs
    has the given value on the monomial exp times the basis element e_a."""
    module = x.module
    return "Jacobi fails on (%r, %r, %r): lhs - rhs is first nonzero on %s, monomial %s, value %s" % (
        x, y, z, module.names[a], Poly.monomial(module.backend, exp), value)


def _first_entry(c: Cochain) -> str:
    """The first nonzero tower entry of c, sorted by level, generators and arguments."""
    levels = c.levels
    p = min(levels)
    gens, args = min(levels[p])
    return "[m, m] != 0 at level %d, generators %s, arguments (%s): %s" % (
        p, gens, ", ".join(c.module.names[b] for b in args), levels[p][gens, args])


def verify_courant(m: Cochain, depth: int = 1) -> tuple[bool, dict]:
    """Two independent routes to the same verdict.

    The evaluation route checks the structure axioms (Jacobi plus the two
    inner-product compatibilities, which coincide with the complex's defining
    identities).  The bracket route checks membership plus [m, m] = 0, and a
    nonzero [m, m] is witnessed by its first tower entry in sorted order.  The
    report carries both verdicts; they must agree.  Both routes read level 0
    of m through one `_eval_mono` memo, so each value is computed once.
    """
    report: dict = {}
    memo: dict = {}
    valid, vreport = cmap_verify(m, depth=depth, memo=memo)
    probes = probe_elements(m.module, depth)
    if valid:
        jac_ok, jac_msg = jacobi_identity_holds(m, probes, memo=memo)
    else:
        jac_ok, jac_msg = False, "not a complex element: %s" % vreport["violation"]
    axiom_route = valid and jac_ok
    report["axiom_route"] = axiom_route
    report["axiom_detail"] = jac_msg if not axiom_route else None
    if valid:
        self_bracket = cbracket(m, m)
        bracket_route = self_bracket.is_zero()
        report["bracket_detail"] = None if bracket_route else _first_entry(self_bracket)
    else:
        bracket_route = False
        report["bracket_detail"] = "not a complex element: %s" % vreport["violation"]
    report["bracket_route"] = bracket_route
    report["probe_bound"] = depth
    report["agree"] = axiom_route == bracket_route
    return axiom_route and bracket_route, report


def derived_bracket(cs: CourantStructure, x: ModuleElement, y: ModuleElement) -> ModuleElement:
    """[[x, m], y] = i_y i_x m, which is m(x, y): one pair read of m
    (`Cochain.__call__`), with no bracket computed or cached."""
    return cs.cochain(x, y)


def dorfman_bracket(module: MetricModule, n: int, u: ModuleElement, v: ModuleElement) -> ModuleElement:
    """Independent evaluator: [X + xi, Y + eta] = [X, Y] + L_X eta - i_Y d xi.

    Components: [X,Y]^i = X(Y^i) - Y(X^i); (L_X eta)_i = X(eta_i) +
    eta_j d_i X^j; (i_Y d xi)_i = Y^j (d_j xi_i - d_i xi_j).  Every term is
    a u-coefficient times a v-coefficient, so the sums run on the numerators
    of u and v over the product of their denominators, over the nonzero
    coefficients only; it reads no cochain.
    """
    backend = module.backend
    shifts = backend.shifts
    U = [u._num.get(a, {}) for a in range(2 * n)]
    V = [v._num.get(a, {}) for a in range(2 * n)]
    X, xi, Y, eta = U[:n], U[n:], V[:n], V[n:]
    out: list = [{} for _ in range(2 * n)]
    vec, form = out[:n], out[n:]

    def add(target: dict, a: dict, b: dict, shift: int, f: int = 1):
        if b:  # target += f a d(b), d the derivative at shift
            _mul_add(target, a, _partial(b, shift), backend, f)

    for j, s in enumerate(shifts[:n]):
        for i in range(n):
            if X[j]:  # X(Y^i) and X(eta_i), with eta_j d_i X^j
                add(vec[i], X[j], Y[i], s)
                add(form[i], X[j], eta[i], s)
                if eta[j]:
                    add(form[i], eta[j], X[j], shifts[i])
            if Y[j]:  # -Y(X^i) and -Y^j (d_j xi_i - d_i xi_j)
                add(vec[i], Y[j], X[i], s, -1)
                add(form[i], Y[j], xi[i], s, -1)
                add(form[i], Y[j], xi[j], shifts[i])
    return ModuleElement.from_numerators(module, dict(enumerate(out)), u._den * v._den)


def verify_morphism(cs1: CourantStructure, cs2: CourantStructure,
                    phi: AlgebraMap, psi: ModuleMap, depth: int = 1) -> tuple[bool, dict]:
    """The five morphism conditions on bounded probes.

    report["failed"] names the failed conditions; report["witnesses"] maps
    each to its first failing probe, in loop order, with both sides.
    """
    backend1 = cs1.module.backend
    probes1 = probe_elements(cs1.module, depth)
    gen_polys = [Poly.var(backend1, i) for i in range(backend1.nvars)] or [Poly.one(backend1)]
    pairs = list(itertools.product(probes1, repeat=2))
    # (name, probe labels, probes in loop order, the two sides on a probe)
    conditions = [
        ("(i) algebra morphism", ("a", "b"), itertools.product(gen_polys, repeat=2),
         lambda a, b: (phi(a * b), phi(a) * phi(b))),
        ("(ii) module semilinearity", ("a", "x"), itertools.product(gen_polys, probes1),
         lambda a, x: (psi(x.scale(a)), psi(x).scale(phi(a)))),
        ("(iii) bracket preservation", ("x", "y"), pairs,
         lambda x, y: (psi(derived_bracket(cs1, x, y)), derived_bracket(cs2, psi(x), psi(y)))),
        ("(iv) anchor action", ("x", "a"), itertools.product(probes1, gen_polys),
         lambda x, a: (phi(cs1.cochain.symbol((x,))(a)), cs2.cochain.symbol((psi(x),))(phi(a)))),
        ("(v) inner product", ("x", "y"), pairs,
         lambda x, y: (phi(inner(x, y)), inner(psi(x), psi(y)))),
    ]
    failed, witnesses = [], {}
    for name, labels, probes, sides in conditions:
        for probe in probes:
            lhs, rhs = sides(*probe)
            if lhs != rhs:
                failed.append(name)
                witnesses[name] = "%s: %s != %s" % (
                    ", ".join("%s = %s" % kv for kv in zip(labels, probe)), lhs, rhs)
                break
    report = {"probe_bound": depth, "failed": failed, "witnesses": witnesses}
    return not failed, report


# -- the deformation differential and cohomology -----------------------------------


def _q_table(cs: CourantStructure) -> tuple[dict, int, tuple | None, dict]:
    """Q(v) = {Theta, v} on each generator v (keyed as in `rothstein.generators`)
    with a nonzero value, as int numerators over one denominator, and what is
    read off it: (table, d, leak, squares).

    leak is the first term (exp, sym, ext) of some Q(v) whose degree is not
    |v| + 1 or whose internal degree is not that of v, or None when Q keeps
    every generator's bidegree, which is when the blocks exist
    (`_require_blocks`).  Q is an odd derivation, so Q^2 = [Q, Q] / 2 is an
    even one, fixed by its values on the generators: squares holds the
    nonzero Q(Q(v)) over d^2, empty for every Courant structure.  Built on
    first use and kept on the immutable structure."""
    if cs._q is None:
        module = cs.module
        backend = module.backend
        q, d = _hamiltonian(cs.theta._num, cs.theta._den, cs.connection, generators(module))
        leak = next(((backend.unpack(e), sym, ext)
                     for (kind, i), value in q.items() for (sym, ext), terms in value.items() for e in terms
                     if 2 * len(sym) + len(ext) != kind + 1
                     or internal_degree_of_term(module, backend.unpack(e), sym, ext)
                     != (1 if kind == 0 else -1 if kind == 2 else module.internal_degrees[i])), None)
        squares = {}
        for v, value in q.items():
            image = {key: terms for key, terms in _apply_derivation(q, value, backend).items() if terms}
            if image:
                squares[v] = image
        cs._q = (q, d, leak, squares)
    return cs._q


def _require_blocks(cs: CourantStructure) -> None:
    """Raise ModuleError unless Q keeps every generator's bidegree, naming the
    first term that leaves it (`_q_table`)."""
    leak = _q_table(cs)[2]
    if leak is not None:
        raise ModuleError("differential leaves the internal-degree block: %s" % (leak,))


def _apply_q(cs: CourantStructure, terms: dict, den: int) -> tuple[dict, int]:
    """Q on a grouped sum {(sym, ext): {packed exponent: int}} of numerators
    over den, by Leibniz: the image's numerators and its denominator, den
    times that of the Q table (1 for an integral Theta on a flat connection)."""
    q, d_q = _q_table(cs)[:2]
    return _apply_derivation(q, terms, cs.module.backend), d_q * den


def deformation_differential(cs: CourantStructure, c):
    """delta = {Theta, .} on the connection side, [m, .] on the complex side."""
    if isinstance(c, RothElement):
        cs.theta._check(c)
        return RothElement.from_numerators(c.module, *_apply_q(cs, c._num, c._den))
    if isinstance(c, Cochain):
        return cbracket(cs.cochain, c)
    raise TypeError("expected a graded element")


def internal_degree_of_term(module: MetricModule, exp, sym, ext) -> int:
    d = sum(exp) - len(sym)
    for a in ext:
        d += module.internal_degrees[a]
    return d


def enumerate_chain_basis(module: MetricModule, r: int, d: int):
    """Monomials (exp, sym, ext) of the degree-r bucket with internal degree d
    (a finite set), exp packed, sorted: packed keys sort as exponent tuples."""
    def exponents(sym, ext):
        need = d + len(sym) - sum(module.internal_degrees[a] for a in ext)
        return packed_exponents_of_degree(module.backend, need)

    return sorted(graded_monomials(module, r, exponents))


class GradedComplexBlock:
    """delta restricted to one (cohomological degree, internal degree) block."""

    __slots__ = ("r", "d", "source_basis", "target_basis", "matrix")

    def __init__(self, r, d, source_basis, target_basis, matrix):
        self.r = r
        self.d = d
        self.source_basis = source_basis
        self.target_basis = target_basis
        self.matrix = matrix  # one {source column: value} row per target monomial


def delta_block(cs: CourantStructure, r: int, d: int) -> GradedComplexBlock:
    """The exact matrix of the differential from block (r, d) into (r+1, d);
    the bases are the packed monomials of `enumerate_chain_basis`.  Q keeps
    the bidegree of every generator (`_require_blocks`), so every image
    monomial is a target basis element."""
    _require_blocks(cs)
    module = cs.module
    src = enumerate_chain_basis(module, r, d)
    dst = enumerate_chain_basis(module, r + 1, d)
    index = {key: i for i, key in enumerate(dst)}
    matrix = [{} for _ in dst]
    for col, (exp, sym, ext) in enumerate(src):
        image, den = _apply_q(cs, {(sym, ext): {exp: 1}}, 1)
        for (isym, iext), group in image.items():
            for e, v in _divided(group, den).items():
                matrix[index[e, isym, iext]][col] = v  # an int where integral, else a Fraction
    return GradedComplexBlock(r, d, src, dst, matrix)


def cohomology_dims(cs: CourantStructure, r_range, d_range) -> dict:
    """dim H^{r,d} = null(delta^{r,d}) - rank(delta^{r-1,d}), all exact.
    A structure whose Q leaves the blocks is rejected before any block,
    even on an empty window (`_require_blocks`)."""
    _require_blocks(cs)
    r_range = list(r_range)  # walked once per d, so a one-shot iterator is kept
    ranked: dict[tuple[int, int], tuple[int, int]] = {}

    def chain_dim_and_rank(r, d):
        # each block is built and ranked once, then read as rank_out and rank_in
        if (r, d) not in ranked:
            blk = delta_block(cs, r, d)
            rk = linalg.rank(blk.matrix) if blk.matrix and blk.source_basis else 0
            ranked[(r, d)] = (len(blk.source_basis), rk)
        return ranked[(r, d)]

    results = {}
    for d in d_range:
        for r in r_range:
            nsrc, rk = chain_dim_and_rank(r, d)
            prev_rank = chain_dim_and_rank(r - 1, d)[1] if r >= 1 else 0
            results[(r, d)] = {
                "dim": nsrc - rk - prev_rank,
                "chain_dim": nsrc,
                "rank_out": rk,
                "rank_in": prev_rank,
            }
    return results


def delta_squared_witness(cs: CourantStructure, r: int, d: int) -> tuple[RothElement, RothElement] | None:
    """None when Q(Q(x)) = 0 for every basis monomial x of block (r, d), else
    the first such x in basis order with its nonzero Q(Q(x)), both exact
    elements; no block is built.

    Q(Q(x)) is read from the generator table of Q^2 (`_q_table`) by one
    Leibniz expansion, which divides nothing.  When that table is empty, as
    for every Courant structure, the verdict needs no Q at all; the basis is
    still enumerated, so a block past the exponent limit raises as
    `delta_block` does.  A structure whose Q leaves the blocks raises as
    there too (`_require_blocks`).
    """
    _require_blocks(cs)
    _, d_q, _, squares = _q_table(cs)
    module = cs.module
    basis = enumerate_chain_basis(module, r, d)
    if not squares:
        return None
    for exp, sym, ext in basis:
        x = {(sym, ext): {exp: 1}}
        image = _apply_derivation(squares, x, module.backend)
        if any(image.values()):
            return RothElement.from_numerators(module, x, 1), RothElement.from_numerators(module, image, d_q * d_q)
    return None


def delta_squared_is_zero(cs: CourantStructure, r: int, d: int) -> bool:
    """Q(Q(x)) = 0 for every basis monomial x of block (r, d)."""
    return delta_squared_witness(cs, r, d) is None


def lie_algebra_center_dim(structure_constants) -> int:
    """Kernel of z -> [z, .] from the structure constants; the H^1 oracle."""
    rank_e = len(structure_constants)
    rows = []
    for j in range(rank_e):
        for k in range(rank_e):
            rows.append({i: Fraction(structure_constants[i][j][k]) for i in range(rank_e)})
    return len(linalg.nullspace(rows, rank_e))


# -- deformations -------------------------------------------------------------------


class DeformationSeries:
    """Coefficients m_1..m_k of a formal deformation of the structure."""

    __slots__ = ("structure", "coefficients")

    def __init__(self, structure: CourantStructure, coefficients):
        self.structure = structure
        self.coefficients = list(coefficients)
        for c in self.coefficients:
            if not isinstance(c, RothElement):
                raise TypeError("series coefficients live on the connection side")
            if not c.is_zero() and c.degrees() != {3}:
                raise ValueError("series coefficients must be homogeneous of degree 3")

    @property
    def order(self) -> int:
        return len(self.coefficients)


def mc_residuals(series: DeformationSeries) -> list[RothElement]:
    """For each order j <= k: 2 delta(m_j) + sum_{i<j} {m_i, m_{j-i}}."""
    cs = series.structure
    conn = cs.connection
    ms = series.coefficients
    out = []
    for j in range(1, len(ms) + 1):
        res = deformation_differential(cs, ms[j - 1]).scale(2)
        for i in range(1, j):
            res = res + roth_bracket(ms[i - 1], ms[j - i - 1], conn)
        out.append(res)
    return out


def first_failing_order(residuals: list[RothElement]) -> int | None:
    """The first order whose residual (as `mc_residuals` lists them) is nonzero, or None."""
    return next((j for j, res in enumerate(residuals, start=1) if not res.is_zero()), None)


def failing_relation(residuals: list[RothElement]) -> str | None:
    """None when every residual (as `mc_residuals` lists them) vanishes, else
    the first failing order and the first nonzero term of its residual, by
    (sym, ext) and then monomial, with its exact coefficient."""
    order = first_failing_order(residuals)
    if order is None:
        return None
    res = residuals[order - 1]
    key = min(res._num)
    e = min(res._num[key])  # packed exponents sort as exponent tuples do
    term = RothElement.from_numerators(res.module, {key: {e: res._num[key][e]}}, res._den)
    return "at order %d, first nonzero term %r" % (order, term)


def mc_series_valid(series: DeformationSeries):
    bad_order = first_failing_order(mc_residuals(series))
    return bad_order is None, bad_order


def mc_obstruction(series: DeformationSeries) -> tuple[RothElement, bool]:
    """The degree-4 element sum_{i=1}^{k} {m_i, m_{k+1-i}} and its cocycle flag."""
    cs = series.structure
    ms = series.coefficients
    obs = RothElement.zero(cs.module)
    for i in range(1, len(ms) + 1):
        obs = obs + roth_bracket(ms[i - 1], ms[-i], cs.connection)
    return obs, deformation_differential(cs, obs).is_zero()


def mc_accepts(series: DeformationSeries, obs: RothElement, candidate: RothElement) -> bool:
    """2 delta(m_{k+1}) = -obs, for obs the obstruction of the series."""
    return (deformation_differential(series.structure, candidate).scale(2) + obs).is_zero()


def mc_extend(series: DeformationSeries, candidate: RothElement) -> bool:
    """Order k+1 acceptance: 2 delta(m_{k+1}) = -obstruction.  A series that
    fails its own relations is rejected with its first failing term
    (`failing_relation`)."""
    failure = failing_relation(mc_residuals(series))
    if failure is not None:
        raise ValueError("input series fails its relations " + failure)
    return mc_accepts(series, mc_obstruction(series)[0], candidate)


def mc_bruteforce_orders(series: DeformationSeries, candidate: RothElement) -> list[bool]:
    """Vanishing of each t-coefficient of {m_t, m_t} through order k+1.

    m_t = Theta + m_1 t + ... + m_{k+1} t^{k+1}; the j-th coefficient is
    sum_{i=0}^{j} {m_i, m_{j-i}} with m_0 = Theta.
    """
    cs = series.structure
    conn = cs.connection
    ms = [cs.theta] + series.coefficients + [candidate]
    k1 = len(ms) - 1
    out = []
    for j in range(1, k1 + 1):
        coeff = RothElement.zero(cs.module)
        for i in range(0, j + 1):
            if i <= k1 and j - i <= k1:
                coeff = coeff + roth_bracket(ms[i], ms[j - i], conn)
        out.append(coeff.is_zero())
    return out
