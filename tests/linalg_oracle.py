"""Reference oracles for `courantalg.linalg`: dense Gauss-Jordan over Q, and
the cofactor determinant and adjugate of a Poly matrix.

`rref` eliminates a dense list-of-lists matrix column by column, taking the
first nonzero entry at or below the current row as the pivot.  The reduced
row echelon form of a matrix is unique, so `courantalg.linalg.echelon` must
return the same pivots and the same rows; `nullspace` and `solve` read off
the kernel basis and one solution exactly as the library did with it.

`poly_det` expands along the first row, O(r!) products, and `poly_inverse`
divides the adjugate of cofactors by a unit determinant: the gram inverse
that `linalg.unit_inverse` must reproduce.  `numerators` groups a gram and
its inverse into int numerators over their least common denominators, the
layout of `MetricModule.numerators`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from courantalg.poly import Poly

QZERO, QONE = Fraction(0), Fraction(1)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy); returns (matrix, pivot column list)."""
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis, one vector per free column in increasing order."""
    if not rows:
        return [[QONE if j == i else QZERO for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [QZERO] * ncols
        v[fc] = QONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """The solution that is zero on every free column, or (None, the 0 = 1 row)."""
    n = len(rows[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None, red[pivots.index(n)]
    x = [QZERO] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x, None


def poly_det(m: list[list[Poly]]) -> Poly:
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    det = Poly.zero(m[0][0].backend)
    for j, v in enumerate(m[0]):
        if not v.is_zero():
            term = v * poly_det([row[:j] + row[j + 1:] for row in m[1:]])
            det = det + (term if j % 2 == 0 else -term)
    return det


def reciprocal(u: Poly) -> Poly:
    """1/c0 over Q[x..], 1/c0 - (c1/c0^2) eps over the dual numbers; ZeroDivisionError off the units."""
    backend = u.backend
    c0 = u.terms.get((0,) * backend.nvars, QZERO)
    if c0 == 0 or (not backend.is_dual and not u.is_constant()):
        raise ZeroDivisionError("not a unit: %s" % u)
    if backend.is_dual:
        return Poly(backend, {(0,): 1 / c0, (1,): -u.terms.get((1,), QZERO) / (c0 * c0)})
    return Poly.const(backend, 1 / c0)


def poly_inverse(m: list[list[Poly]]) -> list[list[Poly]]:
    """The adjugate of cofactors over a unit determinant."""
    n = len(m)
    det_inv = reciprocal(poly_det(m))
    if n == 1:
        return [[det_inv]]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = poly_det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
            row.append((-cof if (i + j) % 2 else cof) * det_inv)
        out.append(row)
    return out


def packed(p: Poly) -> dict:
    """The terms of p keyed by packed exponent, read from its tuple view."""
    return {p.backend.pack(e): c for e, c in p.terms.items()}


def numerators(gram: list[list[Poly]], inverse: list[list[Poly]]) -> tuple[list, int, list, int]:
    """(gram, G, inv, H) as int numerator sums {packed exponent: int}, inv from the inverse."""
    out = []
    for matrix in (gram, inverse):
        d = lcm(*[c.denominator for row in matrix for v in row for c in v.terms.values()])
        out += [[[{e: int(c * d) for e, c in packed(v).items()} for v in row] for row in matrix], d]
    return tuple(out)
