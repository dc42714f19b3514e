"""Reference oracle for the connection layer: every value as Polys, one
coordinate at a time.

`courantalg.modules` computes the covariant derivative, the metric check,
`metrize`, the curvature bivector and the change-of-connection tensor on
int numerators, through one metric defect and one skew raise.  This oracle
takes the textbook routes instead: inner products of Poly coordinates
against the gram, the metric condition on each pair of basis elements, and
a k-form raised slot by slot through the inverse gram (`raise_exterior`).
Its curvature is read twice, through the raise and back through the
determinant pairing on the exterior square (`lambda2_pair`), and the two
must agree on every pair of basis elements.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from courantalg import Connection, Derivation, MetricModule, ModuleElement, ModuleError, Poly, RothElement
from courantalg.poly import num_der_generators


def inner(module: MetricModule, x: ModuleElement, y: ModuleElement) -> Poly:
    """sum_ab x_a <e_a, e_b> y_b on the Poly coordinates."""
    out = Poly.zero(module.backend)
    for a, xa in enumerate(x.coeffs):
        for b, yb in enumerate(y.coeffs):
            out = out + xa * module.gram[a][b] * yb
    return out


def raise_form(module: MetricModule, values) -> ModuleElement:
    """The element v with <v, e_b> = values[b]: v_a = sum_b values[b] ginv[b][a]."""
    zero = Poly.zero(module.backend)
    return ModuleElement(module, [sum((values[b] * module.gram_inv[b][a] for b in range(module.rank)), zero)
                                  for a in range(module.rank)])


def lambda2_pair(module: MetricModule, xi: dict[tuple[int, int], Poly], x: ModuleElement, y: ModuleElement) -> Poly:
    """<xi, x ^ y> with the determinant pairing on the exterior square."""
    out = Poly.zero(module.backend)
    for (a, b), c in xi.items():
        ea, eb = module.basis(a), module.basis(b)
        out = out + c * (inner(module, ea, x) * inner(module, eb, y) - inner(module, ea, y) * inner(module, eb, x))
    return out


def raise_exterior(module: MetricModule, k: int, form) -> dict[tuple[int, ...], Poly]:
    """The xi in Lambda^k E with <xi, e_I> = form[I] for increasing I.

    form maps every k-tuple of basis indices to the value of an alternating
    A-multilinear map; it is rejected unless each adjacent swap flips its
    sign.  Raising happens slotwise through the inverse gram.
    """
    m = module.rank
    ginv = module.gram_inv
    for src, val in form.items():
        for i in range(k - 1):
            if form[src[:i] + (src[i + 1], src[i]) + src[i + 2:]] != -val:
                raise ModuleError("form to raise is not alternating")
    out: dict[tuple[int, ...], Poly] = {}
    for target in itertools.combinations(range(m), k):
        s = Poly.zero(module.backend)
        for src in itertools.product(range(m), repeat=k):
            val = form[src]
            if val.is_zero():
                continue
            for b, a in zip(src, target):
                val = val * ginv[b][a]
            s = s + val
        if not s.is_zero():
            out[target] = s
    return out


def nabla_gen(conn: Connection, i: int, x: ModuleElement) -> ModuleElement:
    """sum_a x_a gamma[i][a] + D_i(x_a) e_a, one coordinate at a time."""
    module = conn.module
    d = Derivation.basis(module.backend, i)
    out = module.zero()
    for a, c in enumerate(x.coeffs):
        if not c.is_zero():
            out = out + conn.gamma[i][a].scale(c) + module.basis(a).scale(d(c))
    return out


def is_metric(conn: Connection) -> bool:
    """D_i <e_a, e_b> = <nabla_i e_a, e_b> + <e_a, nabla_i e_b> for every i and a <= b."""
    module = conn.module
    for i in range(num_der_generators(module.backend)):
        d = Derivation.basis(module.backend, i)
        for a in range(module.rank):
            for b in range(a, module.rank):
                rhs = inner(module, conn.gamma[i][a], module.basis(b)) + inner(module, module.basis(a), conn.gamma[i][b])
                if d(module.gram[a][b]) != rhs:
                    return False
    return True


def metrize(conn: Connection) -> Connection:
    """<nabla'_D e_a, e_b> = (1/2)(<nabla_D e_a, e_b> - <e_a, nabla_D e_b> + D<e_a, e_b>),
    solved back through the inverse gram."""
    module = conn.module
    half = Fraction(1, 2)
    gamma = []
    for i in range(num_der_generators(module.backend)):
        d = Derivation.basis(module.backend, i)
        row = []
        for a in range(module.rank):
            ea = module.basis(a)
            vals = [(inner(module, conn.gamma[i][a], module.basis(b)) - inner(module, ea, conn.gamma[i][b])
                     + d(module.gram[a][b])).scale(half) for b in range(module.rank)]
            row.append(raise_form(module, vals))
        gamma.append(row)
    return Connection(module, gamma)


def _raise_operator(module: MetricModule, images) -> dict[tuple[int, int], Poly]:
    """The bivector xi with <xi, e_a ^ e_b> = <A e_a, e_b>, A the operator
    with A e_a = images[a]; rejected unless that form is alternating."""
    pairing = {(a, b): inner(module, images[a], module.basis(b))
               for a, b in itertools.product(range(module.rank), repeat=2)}
    return raise_exterior(module, 2, pairing)


def curvature_table(conn: Connection) -> dict[tuple[int, int], dict[tuple[int, int], Poly]]:
    """r(D_i, D_j) for i < j from R e_a = nabla_i nabla_j e_a - nabla_j nabla_i e_a,
    raised, then paired back: lambda2_pair must reproduce <R e_a, e_b>."""
    if not is_metric(conn):
        raise ModuleError("curvature in bivector form needs a metric connection")
    module = conn.module
    table = {}
    for i, j in itertools.combinations(range(num_der_generators(module.backend)), 2):
        op = [nabla_gen(conn, i, nabla_gen(conn, j, e)) - nabla_gen(conn, j, nabla_gen(conn, i, e))
              for e in module.basis_elements()]
        xi = _raise_operator(module, op)
        for a, b in itertools.product(range(module.rank), repeat=2):
            expected = inner(module, op[a], module.basis(b))
            assert lambda2_pair(module, xi, module.basis(a), module.basis(b)) == expected, (i, j, a, b)
        if xi:
            table[i, j] = xi
    return table


def t_table(source: Connection, target: Connection) -> list[dict[tuple[int, int], Poly]]:
    """t(D_i) with <t(D_i), e_a ^ e_b> = <(nabla - nabla')_i e_a, e_b>, one per generator."""
    module = source.module
    return [_raise_operator(module, [x - y for x, y in zip(source.gamma[i], target.gamma[i])])
            for i in range(num_der_generators(module.backend))]


def apply_t(table, phi: RothElement) -> RothElement:
    """t(D_{i1} ... D_{ip} (x) e_A) = sum_m D_{i1} ..^m.. D_{ip} t(D_{im}) (x) e_A; t(D_i) is even."""
    module = phi.module
    out = RothElement.zero(module)
    for (sym, ext), c in phi.terms.items():
        for m, i in enumerate(sym):
            rest = RothElement.monomial(module, sym[:m] + sym[m + 1:], ext, c)
            out = out + rest.wedge(RothElement.from_lambda2(module, table[i]))
    return out
