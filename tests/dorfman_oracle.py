"""Reference oracle for the Dorfman bracket: the formula on `Poly` objects.

[X + xi, Y + eta] = [X, Y] + L_X eta - i_Y d xi on A^{2n}, the first n
coefficients a vector field and the last n a one-form, summed term by term
as polynomials.  `courantalg.deform.dorfman_bracket` sums the same terms on
int numerators and must return exactly this element.
"""

from __future__ import annotations

from courantalg.modules import MetricModule, ModuleElement
from courantalg.poly import Poly


def dorfman_bracket(module: MetricModule, n: int, u: ModuleElement, v: ModuleElement) -> ModuleElement:
    """Components: [X,Y]^i = X(Y^i) - Y(X^i); (L_X eta)_i = X(eta_i) +
    eta_j d_i X^j; (i_Y d xi)_i = Y^j (d_j xi_i - d_i xi_j)."""
    backend = module.backend
    X, xi = u.coeffs[:n], u.coeffs[n:]
    Y, eta = v.coeffs[:n], v.coeffs[n:]

    def apply_field(F, a: Poly) -> Poly:
        out = Poly.zero(backend)
        for j in range(n):
            out = out + F[j] * a.partial(j)
        return out

    vec = [apply_field(X, Y[i]) - apply_field(Y, X[i]) for i in range(n)]
    form = []
    for i in range(n):
        lie = apply_field(X, eta[i])
        for j in range(n):
            lie = lie + eta[j] * X[j].partial(i)
        contraction = Poly.zero(backend)
        for j in range(n):
            contraction = contraction + Y[j] * (xi[i].partial(j) - xi[j].partial(i))
        form.append(lie - contraction)
    return ModuleElement(module, vec + form)
