"""Exact sparse linear algebra over Q, and the inverse of a unit-determinant
matrix over either coefficient algebra by Faddeev-LeVerrier on int numerators."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .poly import QONE, QZERO, Backend, _axpy, _mul_add


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


# -- gram inversion ----------------------------------------------------


def unit_inverse(rows: list[dict], den: int, backend: Backend) -> tuple[dict, list | None, int]:
    """Determinant and inverse of a square matrix A = B / den, by the
    Faddeev-LeVerrier recurrence (Faddeev and Sominsky, 1949) on B.

    rows[i] maps each column j of a nonzero entry of row i of B to that
    entry, a packed int sum {key: int}.  With M_1 = I, c_k = -tr(B M_k) / k
    and M_(k+1) = B M_k + c_k I, det B = (-1)^n c_n and adj B = (-1)^(n-1)
    M_n: n sparse products, and each division by k is exact (the c_k are the
    coefficients of the characteristic polynomial of B, int sums again), so
    it holds in any commutative Q-algebra.  Returns (det B, inv, H) with
    inv[i][j] H times the (i, j) entry of A^-1 = den adj B / det B, as a
    packed int sum over the least common denominator H.  A unit det B is a
    nonzero rational c0, or c0 + c1 eps with c0 != 0 over the dual numbers,
    inverted as (c0 - c1 eps) / c0^2; for any other det B, inv is None.
    """
    n = len(rows)
    m = [{i: {0: 1}} for i in range(n)]
    for k in range(1, n + 1):
        trace: dict = {}
        for i, row in enumerate(rows):
            for t, v in row.items():
                if w := m[t].get(i):
                    _mul_add(trace, v, w, backend)
        c = {e: -s // k for e, s in trace.items()}
        if k == n:
            break
        product = []
        for i, row in enumerate(rows):
            out: dict = {}
            for t, v in row.items():
                for j, w in m[t].items():
                    _mul_add(out.setdefault(j, {}), v, w, backend)
            _axpy(out.setdefault(i, {}), c)
            product.append({j: w for j, w in out.items() if w})
        m = product
    sign = -1 if n % 2 else 1
    det = {e: sign * s for e, s in c.items()}
    c0 = det.get(0)
    if not c0 or (len(det) > 1 and not backend.is_dual):
        return det, None, 1
    conj = {e: s if e == 0 else -s for e, s in det.items()}
    inv = [[_mul_add({}, row[j], conj, backend, -sign * den) if j in row else {} for j in range(n)]
           for row in m]
    h = c0 * c0
    g = gcd(h, *[s for row in inv for v in row for s in v.values()])
    if g > 1:
        inv = [[{e: s // g for e, s in v.items()} for v in row] for row in inv]
    return det, inv, h // g
