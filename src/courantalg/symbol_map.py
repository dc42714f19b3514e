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

J is inverted in every degree by one recursion, the symbol calculus of a
degree-2 symplectic manifold (Roytenberg, math/0203110).  The brackets with
x_g strip one D_g each and see no connection, so level p of J(phi) depends
only on the Sym^p part of phi, through the gram: it is that part's top
symbol.  Over Q[x] every top symbol that is alternating in its arguments is
reached; over the dual numbers D(eps) = eps, so a level-1 symbol must be a
multiple of eps and a level-2 or higher one is never reached.  `_peel`
reads the Sym^p part off the top level of the remainder, subtracts its
J-image and goes down one level; an entry the subtraction leaves is an
exact witness of non-membership, and a remainder of 0 proves membership.
`invert_J`, `invert_J_deg2`, `invert_J_deg3` and `chat_membership` are its
entry points.

J_nabla is a morphism of graded Poisson algebras for every metric
connection nabla, so `cmaps` computes the bracket and the wedge of the
complex from degree 2 on through it: `_peel` under the module's reference
connection gives the preimages, the connection-side kernel takes the
product, and `apply_J` maps it back.  `cmaps` imports this module inside
those calls, since this module builds on `Cochain`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .cmaps import Cochain
from .modules import Connection, MetricModule, ModuleError
from .poly import Poly, _grouped_sum, _mul_add, der_generator_var, num_der_generators
from .rothstein import RothElement, _hamiltonian, nested_bracket_with_scalars


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


def _peeled(level: dict, p: int, q: int, den: int, module: MetricModule) -> tuple[dict, int]:
    """The part of Sym^p(Der A) (x) Lambda^q(E) whose J-image has the given
    top level {(gens, args): {exp: int}} over den, as grouped numerators.

    On level p, J puts (-1)^p prod m_i! on c D_{g_1}..D_{g_p} (x) e^B, with
    m_i the multiplicities of the g_i, and (-1)^(q(q-1)/2) <e^B, e_{b_1} ^ ..
    ^ e_{b_q}> on the arguments, so raising the q slots through the inverse
    gram leaves the coefficient on increasing arguments.  Over the dual
    numbers D(eps) = eps puts a factor eps on the level too, lifted off here;
    for p >= 2 that J-image is 0.  Entries that are no such image are
    dropped, so subtracting J of the result leaves them as the witness.
    """
    backend = module.backend
    inv, H = module.numerators()[2:]
    for i in range(q):
        raised: dict = {}
        for (gens, args), v in level.items():
            for a in range(module.rank):
                if inv[args[i]][a]:
                    _mul_add(raised.setdefault((gens, args[:i] + (a,) + args[i + 1:]), {}),
                             v, inv[args[i]][a], backend)
        level = raised
    sign = (-1) ** (p + q * (q - 1) // 2)
    parts = []
    for (gens, args), v in level.items():
        if any(args[i] >= args[i + 1] for i in range(q - 1)):
            continue
        if backend.is_dual and p:
            v = {0: v[1]} if 1 in v else {}  # lift off the eps of D(eps) = eps
        if v:
            parts.append((sign, prod(map(factorial, Counter(gens).values())), {(gens, args): v}))
    num, d = _grouped_sum(parts)
    return num, den * H ** q * d


def _peel(c: Cochain, conn: Connection) -> tuple[RothElement | None, dict | None]:
    """(phi, None) with J(phi) = c, or (None, certificate) for a non-member.

    From the top tower level down: level p of J(phi) is the gram contraction
    of the Sym^p part of phi alone, so that part is read off level p of the
    remainder (`_peeled`) and its J-image subtracted, which clears level p
    exactly when the level was an image.  The first entry left there, in
    sorted order, is an exact witness; a remainder of 0 proves membership.
    """
    module = c.module
    rem, phi = c, RothElement.zero(module)
    for p in range(c.degree // 2, -1, -1):
        level = {key: v for key, v in rem._num.items() if len(key[0]) == p}
        if not level:
            continue
        num, den = _peeled(level, p, c.degree - 2 * p, rem._den, module)
        if num:
            phi_p = RothElement.from_numerators(module, num, den)
            rem, phi = rem - apply_J(phi_p, conn), phi + phi_p
        left = sorted(key for key in rem._num if len(key[0]) == p)
        if left:
            (gens, args), v = left[0], rem._num[left[0]]
            exp = min(v)  # packed keys sort as exponent tuples do
            return None, {
                "coordinate": _coord_name(module, (p, gens, args, module.backend.unpack(exp))),
                "residual": str(Fraction(v[exp], rem._den)),
                "reason": "level %d of the remainder is not the J-image of a Sym^%d part" % (p, p),
            }
    return phi, None


def invert_J(c: Cochain, conn: Connection) -> RothElement:
    """The preimage of c under J, in any degree, by peeling the top symbol.

    Raises ValueError when c has none; in degrees <= 3 J is onto the
    complex, so there that means c is no element of the complex.
    """
    phi, certificate = _peel(c, conn)
    if certificate is not None:
        raise ValueError("no preimage under J: %s, residual %s"
                         % (certificate["coordinate"], certificate["residual"]))
    return phi


def invert_J_deg2(c: Cochain, conn: Connection) -> RothElement:
    """`invert_J` on a degree-2 element: a bivector part minus the symbol."""
    if c.degree != 2 and not c.is_zero():  # the zero image carries degree 0
        raise ValueError("degree-2 inversion only")
    return invert_J(c, conn)


def invert_J_deg3(c: Cochain, conn: Connection) -> RothElement:
    """`invert_J` on a degree-3 element: a trivector part plus a Der-wedge part."""
    if c.degree != 3 and not c.is_zero():  # the zero image carries degree 0
        raise ValueError("degree-3 inversion only")
    return invert_J(c, conn)


# -- membership in the image ----------------------------------------------------


def chat_membership(c: Cochain, conn: Connection) -> dict:
    """Decide whether c lies in the image of J, in any degree, on either backend.

    The verdict is always conclusive: a member comes with its preimage, a
    non-member with the exact certificate of `_peel` (the level, generators,
    basis arguments and monomial of the first entry no preimage reaches, and
    its residual).
    """
    phi, certificate = _peel(c, conn)
    if certificate is not None:
        return {"member": False, "conclusive": True, "certificate": certificate}
    return {"member": True, "conclusive": True, "preimage": phi}


def _coord_name(module: MetricModule, key) -> str:
    p, gens, args, exp = key
    return "level %d, generators %s, basis args %s, monomial %s" % (
        p,
        list(gens),
        [module.names[a] for a in args],
        str(Poly.monomial(module.backend, exp)),
    )


def lambda_check(phi: RothElement, conn: Connection) -> bool:
    """Probe injectivity of the nested-scalar-bracket map on phi.

    For each symmetric degree p >= 1 present in phi, the p-fold bracket with
    the algebra generators x_g is evaluated and projected onto the
    symmetric-degree-zero part, which is the Sym^p part of phi read on
    D_{g_1}..D_{g_p}.  Other monomial probes decide nothing more: over
    Q[x] the generators already read every Sym^p coefficient, and over the
    dual numbers eps is the only monomial.  Returns False when phi has a
    nonzero Der-part that every probe annihilates (an injectivity failure,
    which the dual numbers exhibit).
    """
    backend = phi.module.backend
    gens = [der_generator_var(backend, j) for j in range(num_der_generators(backend))]
    present = sorted({len(sym) for (sym, ext) in phi._num if sym})
    for p in present:
        for probe in itertools.combinations_with_replacement(gens, p):
            val = nested_bracket_with_scalars(phi, list(probe), conn)
            if any(not sym for (sym, ext) in val._num):
                break
        else:
            return False
    return True
