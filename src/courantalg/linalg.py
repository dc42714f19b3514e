"""Exact linear algebra over Q, plus inverses of unit-determinant Poly matrices."""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, QONE, QZERO


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


def rank(rows: list[list[Fraction]]) -> int:
    if not rows or not rows[0]:
        return 0
    return len(rref(rows)[1])


def nullspace(rows: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the kernel of the matrix (columns = unknowns)."""
    if not rows:
        n = ncols or 0
        return [[QONE if j == i else QZERO for j in range(n)] for i in range(n)]
    n = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [QZERO] * n
        v[fc] = QONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """One solution of A x = b, or (None, witness_row) if inconsistent.

    The witness row is the row of the eliminated augmented matrix whose pivot
    sits in the right-hand column: zero on every unknown and nonzero on the
    right, an unsatisfiable 0 = c equation.
    """
    if not rows:
        nonzero = [Fraction(v) for v in rhs if v]
        return (None, nonzero[:1]) if nonzero else ([], None)
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if n in pivots:
        return None, red[pivots.index(n)]
    x = [QZERO] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x, None


# -- Poly matrices -----------------------------------------------------


def poly_matmul(a: list[list[Poly]], b: list[list[Poly]]) -> list[list[Poly]]:
    backend = a[0][0].backend
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = Poly.zero(backend)
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def poly_det(m: list[list[Poly]]) -> Poly:
    """Determinant by cofactor expansion; fine at the ranks used here."""
    n = len(m)
    backend = m[0][0].backend
    if n == 1:
        return m[0][0]
    det = Poly.zero(backend)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * poly_det(minor)
        det = det + (term if j % 2 == 0 else -term)
    return det


def poly_unit_inverse(u: Poly) -> Poly:
    """Inverse of a unit of the coefficient algebra.

    FreePoly units are the nonzero rationals; DualNum units are c0 + c1*eps
    with c0 != 0, inverted as 1/c0 - (c1/c0^2)*eps.
    """
    backend = u.backend
    if backend.is_dual:
        c0 = u.terms.get((0,), QZERO)
        c1 = u.terms.get((1,), QZERO)
        if c0 == 0:
            raise ZeroDivisionError("not a unit: %s" % u)
        return Poly(backend, {(0,): 1 / c0, (1,): -c1 / (c0 * c0)})
    if not u.is_constant() or u.is_zero():
        raise ZeroDivisionError("not a unit: %s" % u)
    return Poly.const(backend, 1 / u.constant_part())


def poly_matrix_inverse(m: list[list[Poly]]) -> list[list[Poly]]:
    """Inverse via the adjugate; requires the determinant to be a unit."""
    n = len(m)
    det = poly_det(m)
    det_inv = poly_unit_inverse(det)
    if n == 1:
        return [[det_inv]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j]
            cof = poly_det(minor)
            if (i + j) % 2:
                cof = -cof
            row.append(cof * det_inv)
        adj.append(row)
    return adj
