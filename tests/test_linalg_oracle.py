"""The sparse elimination against the dense Gauss-Jordan oracle.

The reduced row echelon form is unique, so `linalg.echelon` must give the
oracle's pivots and rows exactly, on any row order; `nullspace` and `solve`
(witness included) must give the answers read off the oracle's form.
"""

import itertools
import random
from fractions import Fraction

import pytest

import linalg_oracle as oracle
from courantalg import linalg, make_standard_courant
from courantalg.deform import delta_block
from test_deform import so3_structure
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
