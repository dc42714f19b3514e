"""Exact sparse linear algebra over Q, plus inverses of unit-determinant Poly matrices."""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, QONE, QZERO


def echelon(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse {column: value} rows, keyed by pivot column.

    Rows are taken shortest first.  Each is cleared of the pivot columns found
    so far (the stored rows are fully reduced, so one pass suffices), pivots
    on its lowest column and is normalized; that column is then cleared from
    the earlier pivot rows.  The result is the unique reduced echelon form of
    the row space, whatever the row order.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in sorted(rows, key=len):
        row = {c: Fraction(v) for c, v in row.items() if v}
        for c in [c for c in row if c in pivots]:
            _subtract(row, row[c], pivots[c])
        if not row:
            continue
        pc = min(row)
        inv = 1 / row[pc]
        row = {c: v * inv for c, v in row.items()}
        for other in pivots.values():
            if pc in other:
                _subtract(other, other[pc], row)
        pivots[pc] = row
    return pivots


def _subtract(row: dict, f: Fraction, pivot_row: dict) -> None:
    """row -= f * pivot_row, in place, dropping the entries that cancel."""
    for c, v in pivot_row.items():
        w = row.get(c, QZERO) - f * v
        if w:
            row[c] = w
        else:
            del row[c]


def rank(rows: list[dict[int, Fraction]]) -> int:
    return len(echelon(rows))


def nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the kernel of the matrix (columns = unknowns)."""
    pivots = echelon(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [QZERO] * ncols
        v[fc] = QONE
        for pc, row in pivots.items():
            v[pc] = -row.get(fc, QZERO)
        basis.append(v)
    return basis


def solve(rows: list[dict[int, Fraction]], ncols: int):
    """One solution of A x = b, or (None, witness_row) if inconsistent.

    Column ncols of the rows holds the right-hand side b.  The witness row
    is the dense row of the reduced system whose pivot sits in the
    right-hand column: zero on every unknown and nonzero on the right, an
    unsatisfiable 0 = c equation.
    """
    pivots = echelon(rows)
    if ncols in pivots:
        return None, [pivots[ncols].get(c, QZERO) for c in range(ncols + 1)]
    x = [QZERO] * ncols
    for pc, row in pivots.items():
        x[pc] = row.get(ncols, QZERO)
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
