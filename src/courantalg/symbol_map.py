"""The Poisson monomorphism from the connection-based algebra into the complex.

J sends a scalar to itself, a module element to itself, and a derivation D to
the degree-2 element -nabla_D, extended multiplicatively over the wedge.  Its
tower tables come from nested brackets: level p of the image on generators
g_1..g_p and basis arguments b_1..b_q is the scalar

    {...{{...{phi, x_{g_1}}, ...}, x_{g_p}}, e_{b_1}}, ...}, e_{b_q}}

with x_g the algebra generator paired with D_g (eps over the dual numbers).
The entries share their prefixes, so `apply_J` walks the prefix tree once:
each node's children are read off one Hamiltonian Q_node (`rothstein`'s
kernel) built on the next generators, and the leaves are the entries.

The image is generated in degrees 0, 1, 2; degrees 2 and 3 are inverted in
closed form, and membership in higher degrees is decided by an exact linear
solve over Q against a coefficient-degree truncation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .cmaps import Cochain, generator_slice
from .modules import Connection, MetricModule, ModuleElement, ModuleError, inner, raise_exterior
from .poly import (
    Poly,
    _grouped_sum,
    _numerators,
    exponents_of_degree,
    num_der_generators,
    packed_exponents_of_degree,
)
from .rothstein import (
    RothElement,
    _hamiltonian,
    graded_monomials,
    nested_bracket_with_scalars,
)


def apply_J(phi: RothElement, conn: Connection) -> Cochain:
    """Image of a homogeneous element, with its full tower, in one
    depth-first walk of the bracket prefix tree.

    A node is a nested bracket of phi, kept as a grouped sum on packed
    monomials, as the kernel keeps it.  Its children are
    its brackets with the next generators, all read off one Hamiltonian
    Q_node: the basis elements e_b, and, while no e_b has been taken yet and
    the degree is at least 2, the scalar generators x_j with j at least the
    last generator of the node's tuple.  A leaf has degree 0 and is the
    tower entry.  `_hamiltonian` returns only the nonzero children, so a
    subtree whose entries all vanish is never entered.  Nodes hold int
    numerators; each carries its denominator, which gains the connection's
    denominator per level, and the leaves go to the cochain as they are,
    over the lcm of their denominators.
    """
    module = phi.module
    if conn.module != module:
        raise ModuleError("connection lives on a different module")
    backend = module.backend
    degree = phi.degree()
    ngen = num_der_generators(backend)  # over the dual numbers the one D pairs with eps = x_0
    basis = [(1, b) for b in range(module.rank)]
    leaves = []  # (1, denominator, {(gens, bargs): {packed exponent: numerator}})

    def walk(node: dict, d: int, gens: tuple, bargs: tuple):
        left = degree - 2 * len(gens) - len(bargs)
        if not left:
            leaves.append((1, d, {(gens, bargs): node[(), ()]}))
            return
        nexts = basis
        if left >= 2 and not bargs:
            nexts = basis + [(0, j) for j in range(gens[-1] if gens else 0, ngen)]
        children, d_child = _hamiltonian(node, d, conn, nexts)
        for (kind, i), child in children.items():
            if kind:
                walk(child, d_child, gens, bargs + (i,))
            else:
                walk(child, d_child, gens + (i,), bargs)

    if phi._num:
        walk(phi._num, phi._den, (), ())
    return Cochain.from_numerators(module, degree, *_grouped_sum(leaves))


def invert_J_deg2(c: Cochain, conn: Connection) -> RothElement:
    """Preimage of a degree-2 element: a bivector part plus minus the symbol.

    The bivector pairs against x ^ y as <nabla_{sigma} x - C(x), y>; the
    derivation part is minus the symbol of C (the image of a derivation D has
    symbol -D).  Verified by an exact round trip.
    """
    module = c.module
    if c.is_zero():
        return RothElement.zero(module)
    if c.degree != 2:
        raise ValueError("degree-2 inversion only")
    sigma = c.symbol(())
    basis = module.basis_elements()
    values = [c(x) for x in basis]
    pairing = {
        (a, b): inner(conn.nabla(sigma, basis[a]) - values[a], basis[b])
        for a, b in itertools.product(range(module.rank), repeat=2)
    }
    xi = raise_exterior(module, 2, pairing)
    phi = RothElement.from_lambda2(module, xi) - RothElement.from_derivation(module, sigma)
    if apply_J(phi, conn) != c:
        raise ValueError("degree-2 inversion round trip failed")
    return phi


def derivation_tail(c: Cochain) -> list[ModuleElement]:
    """For degree 3: the module elements v_j with [C, a] = sum_j da/dg_j v_j."""
    if c.degree != 3:
        raise ValueError("derivation tail extraction expects degree 3")
    module = c.module
    backend = module.backend
    out = []
    for j in range(num_der_generators(backend)):
        sliced = generator_slice(c, j)
        x = sliced.module_part() if not sliced.is_zero() else module.zero()
        if backend.is_dual:
            # the slice equals eps * u; lift off the eps factor
            coeffs = []
            for poly in x.coeffs:
                if poly.terms.get((0,), 0) != 0:
                    raise ValueError("dual-number derivation tail must be a multiple of eps")
                coeffs.append(Poly.const(backend, poly.terms.get((1,), Fraction(0))))
            x = ModuleElement(module, coeffs)
        out.append(x)
    return out


def invert_J_deg3(c: Cochain, conn: Connection) -> RothElement:
    """Preimage of a degree-3 element: trivector part minus the Der-wedge part."""
    module = c.module
    if c.is_zero():
        return RothElement.zero(module)
    if c.degree != 3:
        raise ValueError("degree-3 inversion only")
    backend = module.backend
    tails = derivation_tail(c)
    der_part = RothElement.zero(module)
    for j, v in enumerate(tails):
        if v.is_zero():
            continue
        der_part = der_part + RothElement.monomial(module, (j,), ()).wedge(
            RothElement.from_module_element(v)
        )
    t_elem = c + apply_J(der_part, conn) if not der_part.is_zero() else c
    # the remainder must be a pure trivector: symbol-free and alternating
    for j in range(num_der_generators(backend)):
        if not generator_slice(t_elem, j).is_zero():
            raise ValueError("degree-3 remainder has a residual symbol; invalid input")
    basis = module.basis_elements()
    minus_theta = {
        idx: -t_elem.omega(tuple(basis[b] for b in idx))
        for idx in itertools.product(range(module.rank), repeat=3)
    }
    xi = raise_exterior(module, 3, minus_theta)
    phi = RothElement(module, {((), key): val for key, val in xi.items()}) - der_part
    if apply_J(phi, conn) != c:
        raise ValueError("degree-3 inversion round trip failed")
    return phi


def invert_J(c: Cochain, conn: Connection) -> RothElement:
    """Closed-form preimage of an element of degree 0 to 3 under J.

    Degrees 0 and 1 are their own preimages; degrees 2 and 3 are inverted by
    `invert_J_deg2` and `invert_J_deg3`.  Raises ValueError above degree 3.
    """
    if c.degree > 3:
        raise ValueError("closed-form inversion stops at degree 3, got degree %d" % c.degree)
    if c.degree == 3:
        return invert_J_deg3(c, conn)
    if c.degree == 2:
        return invert_J_deg2(c, conn)
    if c.degree == 1:
        return RothElement.from_module_element(c.module_part())
    return RothElement.from_scalar(c.module, c.scalar_part())


# -- membership in the image ----------------------------------------------------


def _roth_monomial_basis(module: MetricModule, degree: int, cap: int) -> list:
    """Monomial basis (exp, sym, ext) of the degree bucket with coefficient degree <= cap."""
    backend = module.backend

    def exponents(sym, ext):
        return (exp for total in range(cap + 1) for exp in packed_exponents_of_degree(backend, total))

    return list(graded_monomials(module, degree, exponents))


def _flatten(c: Cochain, coords: dict) -> dict[tuple, Fraction]:
    """The entries of c by coordinate key, each new key given the next coordinate."""
    vec = {}
    for p, table in c.levels.items():
        for (gens, args), poly in table.items():
            for exp, frac in poly.terms.items():
                key = (p, gens, args, exp)
                coords.setdefault(key, len(coords))
                vec[key] = frac
    return vec


def chat_membership(c: Cochain, conn: Connection, cap: int | None = None) -> dict:
    """Decide whether c lies in the image of J; exact linear algebra over Q.

    Degrees <= 3 use the closed-form inversions (always members).  Higher
    degrees solve J(phi) = c over the monomial basis with coefficient degree
    <= cap.  Over the dual numbers the spaces are finite so the answer is
    conclusive; over free polynomials the report carries the cap.
    """
    module = c.module
    degree = c.degree
    if cap is None:
        cap = 2
        for table in c.levels.values():
            for v in table.values():
                cap = max(cap, v.total_degree() + 1)
    # over the dual numbers a coefficient has degree <= 1, so a cap >= 1 spans them all
    conclusive = module.backend.is_dual and cap >= 1
    if degree <= 3:
        return {"member": True, "preimage": invert_J(c, conn), "cap": cap, "conclusive": True}
    basis = _roth_monomial_basis(module, degree, cap)
    images = [apply_J(RothElement.from_numerators(module, {(sym, ext): {exp: 1}}, 1), conn)
              for exp, sym, ext in basis]
    coords: dict[tuple, int] = {}
    target_vec = _flatten(c, coords)
    image_vecs = [_flatten(im, coords) for im in images]
    rows = [{} for _ in coords]  # column len(basis) holds the target
    for j, vec in enumerate(image_vecs + [target_vec]):
        for key, frac in vec.items():
            rows[coords[key]][j] = frac
    if not basis:
        nz = next(iter(target_vec), None)
        if nz is None:
            return {"member": True, "preimage": RothElement.zero(module), "cap": cap,
                    "conclusive": True}
        return {"member": False, "cap": cap, "conclusive": conclusive,
                "certificate": {"coordinate": _coord_name(module, nz), "residual": str(target_vec[nz]),
                                "reason": "no candidate monomials in the image"}}
    sol, witness = linalg.solve(rows, len(basis))
    if sol is None:
        return {
            "member": False,
            "cap": cap,
            "conclusive": conclusive,
            "certificate": {
                "residual_row": [str(v) for v in witness],
                "coordinate": _coord_name(module, _first_target_coord(target_vec, coords)),
                "reason": "eliminated system contains 0 = 1",
            },
        }
    phi = RothElement.from_numerators(module, *_numerators(
        {((sym, ext), exp): v for v, (exp, sym, ext) in zip(sol, basis) if v}))
    if apply_J(phi, conn) != c:
        raise AssertionError("membership solve produced a non-preimage")
    return {"member": True, "preimage": phi, "cap": cap, "conclusive": True}


def _first_target_coord(target_vec, coords):
    return min(target_vec, key=coords.__getitem__)


def _coord_name(module: MetricModule, key) -> str:
    p, gens, args, exp = key
    return "level %d, generators %s, basis args %s, monomial %s" % (
        p,
        list(gens),
        [module.names[a] for a in args],
        str(Poly.monomial(module.backend, exp)),
    )


def lambda_check(phi: RothElement, conn: Connection, cap: int = 2) -> bool:
    """Probe injectivity of the nested-scalar-bracket map on phi.

    For each symmetric degree p >= 1 present in phi, the p-fold bracket with
    algebra monomials of degree <= cap is evaluated and projected onto the
    symmetric-degree-zero part.  Returns False when phi has a nonzero
    Der-part that every probe annihilates (an injectivity failure, which the
    dual numbers exhibit).
    """
    backend = phi.module.backend
    monos = [Poly.monomial(backend, e) for t in range(1, cap + 1) for e in exponents_of_degree(backend, t)]
    present = sorted({len(sym) for (sym, ext) in phi._num if sym})
    for p in present:
        for probe in itertools.combinations_with_replacement(monos, p):
            val = nested_bracket_with_scalars(phi, list(probe), conn)
            if any(not sym for (sym, ext) in val._num):
                break
        else:
            return False
    return True
