"""The int-row elimination against the Gauss-Jordan oracles over Fraction.

The reduced row echelon form is unique, so `linalg.echelon` must give the
oracle's pivots and rows exactly, on any row order; `nullspace` and `solve`
(witness included) must give the answers read off the oracle's form, and
`rank` the oracle's number of pivots.  The sparse oracle, checked against
the dense one here, ranks every block of the n = 3 cohomology window.
"""

import itertools
import random
from fractions import Fraction

import pytest

import linalg_oracle as oracle
from courantalg import linalg, make_standard_courant
from courantalg.deform import delta_block
from test_deform import _standard_unchecked, so3_structure
from test_linalg import MATRICES, _product, _random_matrix, _sparse


def _seeded():
    rng = random.Random(23)
    out = []
    for _ in range(40):
        m, n, k = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 4)
        if rng.random() < 0.5:
            out.append(_random_matrix(rng, m, n, rng.choice((0.1, 0.3, 0.7))))
        else:  # low rank: an m x k times k x n product, with sparse factors
            out.append(_product(_random_matrix(rng, m, k, 0.6), _random_matrix(rng, k, n, 0.6)))
    return out


def _blocks():
    windows = [(make_standard_courant(1), range(0, 7), range(-3, 4)),
               (make_standard_courant(2), range(0, 4), range(-2, 1)),
               (so3_structure(), range(0, 8), range(-3, 4))]
    out = []
    for cs, rs, ds in windows:
        for r, d in itertools.product(rs, ds):
            blk = delta_block(cs, r, d)
            if blk.source_basis and blk.target_basis:
                out.append([[row.get(j, Fraction(0)) for j in range(len(blk.source_basis))]
                            for row in blk.matrix])
    return out


DENSE = MATRICES + _seeded() + _blocks()


def _oracle_echelon(rows):
    red, pivots = oracle.rref(rows)
    return {pc: {j: v for j, v in enumerate(red[r]) if v} for r, pc in enumerate(pivots)}


@pytest.mark.parametrize("rows", DENSE)
def test_echelon_equals_dense_rref(rows):
    expected = _oracle_echelon(rows)
    got = linalg.echelon(_sparse(rows))
    assert sorted(got) == sorted(expected)
    assert got == expected
    assert linalg.rank(_sparse(rows)) == len(expected)
    assert oracle.sparse_echelon(_sparse(rows)) == expected
    shuffled = _sparse(rows)
    random.Random(len(rows)).shuffle(shuffled)
    assert linalg.echelon(shuffled) == expected


@pytest.mark.parametrize("rows", DENSE)
def test_nullspace_and_solve_equal_the_oracle(rows):
    ncols = len(rows[0])
    assert linalg.nullspace(_sparse(rows), ncols) == oracle.nullspace(rows, ncols)
    rng = random.Random(ncols * 7 + len(rows))
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
    b = [sum((v * x for v, x in zip(row, x0)), Fraction(0)) for row in rows]
    assert linalg.solve(_sparse(rows, b), ncols) == oracle.solve(rows, b)
    # the sum of all rows with its right-hand side off by one eliminates to 0 = 1
    total = [sum(col, Fraction(0)) for col in zip(*rows)]
    x, witness = oracle.solve(rows + [total], b + [sum(b) + 1])
    assert x is None
    assert linalg.solve(_sparse(rows + [total], b + [sum(b) + 1]), ncols) == (None, witness)


def test_rank_on_mixed_int_and_fraction_rows():
    # ints beside Fractions of large, coprime denominators, and zero entries kept in the rows
    rng = random.Random(29)
    for _ in range(60):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [{j: rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-99, 99), rng.choice((7, 11, 97, 1024)))))
                 for j in range(n) if rng.random() < 0.6} for _ in range(m)]
        rows += [{j: 3 * v for j, v in row.items()} for row in rows[:rng.randint(0, 2)]]
        expected = oracle.sparse_echelon(rows)
        assert linalg.rank(rows) == len(expected)
        assert linalg.echelon(rows) == expected


def test_rank_and_echelon_on_the_standard_n3_window():
    cs = _standard_unchecked(3)
    ranked = 0
    for r, d in itertools.product(range(0, 7), range(-2, 3)):
        rows = delta_block(cs, r, d).matrix
        expected = oracle.sparse_echelon(rows)
        assert linalg.rank(rows) == len(expected)
        assert linalg.echelon(rows) == expected
        ranked += bool(expected)
    assert ranked == 31  # blocks of nonzero rank
