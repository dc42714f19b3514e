"""Properties of the exact linear algebra over Q that hold for any elimination.

Nothing here compares against rref: each check reads only rank, nullspace
and solve, so it keeps holding when the elimination behind them changes.
"""

import random
from fractions import Fraction

import pytest

from courantalg import linalg


def _random_matrix(rng, nrows, ncols, density=0.5):
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _product(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def _sparse(rows, rhs=None):
    """{column: value} rows; a right-hand side goes into the column after the last."""
    out = [{j: v for j, v in enumerate(row) if v} for row in rows]
    for row, b in zip(out, rhs or []):
        row[len(rows[0])] = b
    return out


def _apply(rows, x):
    return [sum((v * xj for v, xj in zip(row, x)), Fraction(0)) for row in rows]


def _structured():
    """Identity, zero, repeated rows, a Vandermonde block and low-rank products."""
    rng = random.Random(5)
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    vander = [[Fraction(x) ** k for k in range(4)] for x in (-1, 0, 2, 3, 5)]
    repeated = [[Fraction(1), Fraction(2), Fraction(-3)]] * 3
    low_rank = [_product(_random_matrix(rng, m, k, 1.0), _random_matrix(rng, k, n, 1.0))
                for m, k, n in [(5, 2, 6), (6, 3, 4), (4, 1, 4)]]
    return [eye, [[Fraction(0)] * 3 for _ in range(2)], vander, repeated] + low_rank


def _random():
    rng = random.Random(11)
    return [_random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), rng.choice((0.2, 0.5, 0.9)))
            for _ in range(60)]


MATRICES = _structured() + _random()


@pytest.mark.parametrize("rows", MATRICES)
def test_rank_nullity(rows):
    ncols = len(rows[0])
    kernel = linalg.nullspace(_sparse(rows), ncols)
    assert linalg.rank(_sparse(rows)) + len(kernel) == ncols
    for v in kernel:
        assert len(v) == ncols and any(v)
        assert not any(_apply(rows, v))


def test_nullspace_of_no_equations_is_everything():
    assert linalg.nullspace([], ncols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("rows", MATRICES)
def test_solve_consistent_rhs(rows):
    rng = random.Random(len(rows) * 31 + len(rows[0]))
    x0 = [Fraction(rng.randint(-3, 3)) for _ in rows[0]]
    b = _apply(rows, x0)
    x, witness = linalg.solve(_sparse(rows, b), len(rows[0]))
    assert witness is None
    assert _apply(rows, x) == b


@pytest.mark.parametrize("rows", MATRICES)
def test_solve_inconsistent_rhs_has_a_witness(rows):
    # a combination of the rows whose right-hand side is off by one eliminates to 0 = 1
    rng = random.Random(len(rows) * 17 + len(rows[0]))
    ncols = len(rows[0])
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
    weights = [Fraction(rng.randint(-2, 2)) for _ in rows]
    combo = [sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0)) for j in range(ncols)]
    b = _apply(rows, x0)
    x, witness = linalg.solve(_sparse(rows + [combo], b + [_apply([weights], b)[0] + 1]), ncols)
    assert x is None
    assert len(witness) == ncols + 1
    assert not any(witness[:ncols]) and witness[ncols] != 0
