"""Exact sparse linear algebra over Q by fraction-free elimination on int rows,
and the inverse of a unit-determinant matrix over either coefficient algebra
by Faddeev-LeVerrier on int numerators.

A row is a sparse {column: value} dict of ints or Fractions.  Elimination
runs on int rows (Bareiss, Math. Comp. 22, 1968): a row with Fraction
entries is scaled by the lcm of their denominators once, on entry, and every
row is kept primitive (the gcd of its entries divided out, its leading entry
positive), which bounds the entries on the cohomology blocks.  `rank` counts
the pivots of the forward elimination; `echelon` back-substitutes them into
the unique reduced row echelon form over Q, which `nullspace` and `solve`
read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import QONE, QZERO, Backend, _axpy, _mul_add


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """row divided by the gcd of its entries, signed so that its entry in the
    leading column lead is positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _cancel(row: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """a row - b p, which has no entry in column c (a / b = p[c] / row[c] in
    lowest terms), dropping the entries that cancel; row may be reused."""
    g = gcd(p[c], row[c])
    a, b = p[c] // g, row[c] // g
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in p.items():
        w = row.get(k, 0) - b * v
        if w:
            row[k] = w
        else:
            del row[k]
    return row


def _pivot_rows(rows: list[dict]) -> dict[int, dict[int, int]]:
    """Forward elimination: primitive int rows keyed by their leading column.

    Rows are taken shortest first and cleared to int numerators once.  While
    a stored row shares a row's leading column, the row becomes the primitive
    part of a row - b stored, which cancels that column (a / b the ratio of
    the two leading entries in lowest terms); a row that keeps a new leading
    column is stored, one that vanishes is dropped."""
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        if not row:
            continue
        den = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        while row:
            pc = min(row)
            row = _primitive(row, pc)
            p = pivots.get(pc)
            if p is None:
                pivots[pc] = row
                break
            row = _cancel(row, p, pc)
    return pivots


def rank(rows: list[dict[int, Fraction]]) -> int:
    return len(_pivot_rows(rows))


def echelon(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse {column: value} rows, keyed by pivot column.

    The pivot rows of the forward elimination are cleared of the later pivot
    columns from the last pivot up, still on int rows (each cleared row is
    primitive again), and divided by their pivot once, at the end.  The
    result is the unique reduced echelon form of the row space, whatever the
    row order.
    """
    pivots = _pivot_rows(rows)
    reduced: dict[int, dict[int, int]] = {}
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        for c in [c for c in row if c in reduced]:
            row = _cancel(row, reduced[c], c)
            row = _primitive(row, pc)
        reduced[pc] = row
    return {pc: {c: Fraction(v, row[pc]) for c, v in row.items()} for pc, row in reduced.items()}


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
