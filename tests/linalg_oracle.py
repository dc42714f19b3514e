"""Reference oracle for the sparse elimination: dense Gauss-Jordan over Q.

`rref` eliminates a dense list-of-lists matrix column by column, taking the
first nonzero entry at or below the current row as the pivot.  The reduced
row echelon form of a matrix is unique, so `courantalg.linalg.echelon` must
return the same pivots and the same rows; `nullspace` and `solve` read off
the kernel basis and one solution exactly as the library did with it.
"""

from __future__ import annotations

from fractions import Fraction

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
