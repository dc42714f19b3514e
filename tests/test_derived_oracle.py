"""The derived bracket against the two-bracket oracle.

`derived_bracket` reads m once on the pair (x, y); `derived_oracle` brackets
<x, .> with m and the result with <y, .> through `cbracket`.  They must
agree exactly on so(3), on the standard structures n = 1..3 on every probe
pair and on seeded multi-term elements with fractional coefficients, and on
J-images of seeded degree-3 Theta over a non-constant gram and over the dual
numbers.  The identity [[x, m], y] = m(x, y) holds for every degree-3
cochain, so those Theta need not satisfy {Theta, Theta} = 0.
"""

import itertools
import random

import pytest

import derived_oracle as oracle
from courantalg import (
    CourantStructure,
    cmaps,
    derived_bracket,
    make_quadratic_lie,
    make_standard_courant,
)
from courantalg.cmaps import probe_elements

from conftest import (
    curved_connection,
    fractional_element,
    gram_denominator_contexts,
    oracle_contexts,
    random_roth,
    so3_constants,
)


def _agree(cs, pairs):
    for x, y in pairs:
        assert derived_bracket(cs, x, y) == oracle.derived_bracket(cs.cochain, x, y), (x, y)


def test_so3():
    cs = make_quadratic_lie(so3_constants(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rng = random.Random(5)
    elements = list(cs.module.basis_elements()) + [fractional_element(rng, cs.module, 0) for _ in range(4)]
    _agree(cs, itertools.product(elements, repeat=2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_structures_on_every_probe_pair(n):
    cs = make_standard_courant(n)
    _agree(cs, itertools.product(probe_elements(cs.module, 1), repeat=2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_structures_on_fractional_elements(n):
    cs = make_standard_courant(n)
    rng = random.Random(100 + n)
    elements = [fractional_element(rng, cs.module, 2) for _ in range(6)]
    _agree(cs, itertools.product(elements, repeat=2))


def _j_image_structure(module, conn, seed: int) -> CourantStructure:
    rng = random.Random(seed)
    theta = random_roth(rng, module, 3, density=1.0)
    assert not theta.is_zero()
    return CourantStructure.from_theta(theta, conn, check=False)


@pytest.mark.parametrize("name", ["unimodular-free1", "thirds-dual"])
def test_j_images_over_a_non_constant_gram_and_the_dual_numbers(name):
    (module, conn), = [(M, conn) for label, M, conn in gram_denominator_contexts() if label == name]
    cs = _j_image_structure(module, conn, seed=61)
    rng = random.Random(62)
    elements = list(module.basis_elements()) + [fractional_element(rng, module, 2) for _ in range(4)]
    _agree(cs, itertools.product(elements, repeat=2))


def test_j_images_over_the_oracle_contexts():
    for k, (module, conn) in enumerate(oracle_contexts()):
        cs = _j_image_structure(module, conn, seed=70 + k)
        rng = random.Random(80 + k)
        elements = [fractional_element(rng, module, 1) for _ in range(3)]
        _agree(cs, itertools.product(elements, repeat=2))


def test_derived_bracket_caches_nothing():
    module = make_standard_courant(2).module
    cs = _j_image_structure(module, curved_connection(module, seed=90), seed=91)
    rng = random.Random(92)
    x, y = fractional_element(rng, module, 2), fractional_element(rng, module, 2)
    brackets, preimages = list(cmaps._BRACKET_CACHE), list(cmaps._PREIMAGES)
    value = derived_bracket(cs, x, y)
    assert list(cmaps._BRACKET_CACHE) == brackets
    assert list(cmaps._PREIMAGES) == preimages
    assert value == cs.cochain(x, y)
