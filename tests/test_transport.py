"""The bracket and the wedge transported through J against the insertion recursion.

From degree 2 on, `cbracket` computes J{J^-1 a, J^-1 b} and `cwedge`
J(J^-1 a ^ J^-1 b), for J of the module's reference connection.  The
oracles are the routes the transport replaced:

- `_by_insertion(cbracket, a, b, n)`: the graded Leibniz rule one level
  down (basis insertions for level 0, generator slices above), with the
  lower-degree brackets it needs taken from `cbracket` itself;
- `cwedge_shuffle`: the closed shuffle formula for level 0 of the wedge,
  up to degree 6 (it enumerates rank^n argument tuples), and above that
  `_by_insertion(cwedge, a, b, n)`;
- `_recursive_bracket` and `_recursive_wedge`: the whole recursion, which
  never transports, on the lower degrees where it runs in well under a
  second.

Every context of `oracle_contexts`, `denominator_contexts` and
`gram_denominator_contexts` is covered, over Q[x1..xn] and the dual numbers,
for every result degree up to `DEGREE_CAP`; the operands are J-images under
each context's own connection, which is not the reference one.
"""

from __future__ import annotations

import itertools
import random

import pytest

from courantalg import Backend, Cochain, MetricModule, MultiDerivation, Poly, RothElement, apply_J, cmaps, symbol_map
from courantalg.cmaps import (
    DEGREE_CAP,
    _by_insertion,
    _recursive_bracket,
    _recursive_wedge,
    cbracket,
    cwedge,
    cwedge_shuffle,
    quartic_from_biderivation,
)

from conftest import (
    curved_connection,
    denominator_contexts,
    gram_denominator_contexts,
    oracle_contexts,
    random_roth,
)

CONTEXTS = {
    **{"oracle-%d-%s%d" % (i, M.backend.kind, M.backend.nvars): (M, conn)
       for i, (M, conn) in enumerate(oracle_contexts())},
    **{"denominators-%s%d" % (M.backend.kind, M.backend.nvars): (M, conn) for M, conn in denominator_contexts()},
    **{name: (M, conn) for name, M, conn in gram_denominator_contexts()},
}

# one balanced pair per result degree, and the lopsided ones up to degree 5
BRACKET_PAIRS = sorted({(n // 2 + 1, n + 1 - n // 2) for n in range(2, DEGREE_CAP + 1)}
                       | {(2, s) for s in range(2, 6)})
WEDGE_PAIRS = sorted({(n // 2, n - n // 2) for n in range(2, DEGREE_CAP + 1)}
                     | {(1, s) for s in range(1, 6)})
SHUFFLE_CAP = 6  # the shuffle formula enumerates rank^n argument tuples
RECURSION_CAP = 5  # result degrees on which the whole recursion is cheap


@pytest.fixture(autouse=True)
def fresh_tables(monkeypatch):
    """Empty bracket, wedge and preimage tables, so every product is computed."""
    for name in ("_BRACKET_CACHE", "_WEDGE_CACHE", "_PREIMAGES"):
        monkeypatch.setattr(cmaps, name, cmaps.Memo())


def _image(rng: random.Random, M, conn, degree: int) -> Cochain | None:
    """A nonzero J-image of the given degree, or None when the degree has none."""
    for _ in range(20):
        phi = random_roth(rng, M, degree, coeff_deg=1, density=0.5)
        if not phi.is_zero():
            return apply_J(phi, conn)
    return None


def _operands(name: str, pairs):
    M, conn = CONTEXTS[name]
    rng = random.Random(sum(map(ord, name)))
    for r, s in pairs:
        a, b = _image(rng, M, conn, r), _image(rng, M, conn, s)
        if a is not None and b is not None:
            yield r, s, a, b


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_transported_bracket_obeys_the_insertion_recursion(name):
    checked = 0
    for r, s, a, b in _operands(name, BRACKET_PAIRS):
        n = r + s - 2
        got = cbracket(a, b)
        assert got.degree == n
        assert got == _by_insertion(cbracket, a, b, n), (r, s)
        assert cbracket(b, a) == (got if (r * s) % 2 else -got)
        if n <= RECURSION_CAP:
            assert got == _recursive_bracket(a, b, {}), (r, s)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_transported_wedge_equals_the_shuffle_and_the_recursion(name):
    checked = 0
    for r, s, a, b in _operands(name, WEDGE_PAIRS):
        n = r + s
        got = cwedge(a, b)
        assert got.degree == n
        assert got == _by_insertion(cwedge, a, b, n), (r, s)
        assert cwedge(b, a) == (-got if (r * s) % 2 else got)
        if n <= SHUFFLE_CAP:
            assert got == cwedge_shuffle(a, b), (r, s)
        if n <= RECURSION_CAP:
            assert got == _recursive_wedge(a, b, {}), (r, s)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_zero_operands_and_zero_results_keep_their_degree(name):
    """[a, a] = 0 in even degree and a ^ a = 0 in odd degree; J of 0 would
    have degree 0, so adding a nonzero element of the right degree is the check."""
    M, conn = CONTEXTS[name]
    rng = random.Random(7)
    for r in (2, 3, 4):
        a = _image(rng, M, conn, r)
        if a is None:
            continue
        for out, n in ((cbracket(a, a), 2 * r - 2), (cwedge(a, a), 2 * r), (cbracket(a, a.scale(3)), 2 * r - 2),
                       (cbracket(Cochain.zero(M, 3), a), r + 1), (cwedge(a, Cochain.zero(M, 2)), r + 2)):
            if out.is_zero():
                assert out.degree == n
                other = _image(rng, M, conn, n)
                if other is not None:
                    assert out + other == other
        # the zero results the identities above force
        assert (r % 2 == 1) or cbracket(a, a).is_zero()
        assert (r % 2 == 0) or cwedge(a, a).is_zero()


def _dual_quartic():
    D = Backend.dual()
    M = MetricModule(D, [[Poly.one(D)]])
    return M, quartic_from_biderivation(M, MultiDerivation(D, 2, {(0, 0): Poly.var(D, 0)}))


def test_a_non_member_takes_the_recursion(monkeypatch):
    """The dual quartic is no J-image: its peel gives a certificate, it is kept
    as a non-member, and its products are the recursion's, computed without a
    transported product."""
    M, quartic = _dual_quartic()
    rng = random.Random(11)
    members = [_image(rng, M, curved_connection(M, seed=5), d) for d in (1, 2, 3)]
    expected = {(op, d): rec(quartic, c, {}) for d, c in enumerate(members, 1)
                for op, rec in (("bracket", _recursive_bracket), ("wedge", _recursive_wedge))}

    def refused(*args):
        raise AssertionError("a non-member must not be transported")

    monkeypatch.setattr(cmaps, "roth_bracket", refused)
    monkeypatch.setattr(RothElement, "wedge", refused)
    for d, c in enumerate(members, 1):
        if d >= 2:
            assert cbracket(quartic, c) == expected["bracket", d]
            assert cbracket(c, quartic) == -expected["bracket", d]  # 4 d is even
        assert cwedge(quartic, c) == expected["wedge", d]
    assert cmaps._PREIMAGES[quartic] is cmaps._NON_MEMBER
    assert cbracket(quartic, quartic).is_zero() and cbracket(quartic, quartic).degree == 6
    assert any(not v.is_zero() for v in expected.values())


def test_a_transported_result_is_not_peeled_again(monkeypatch):
    """cb(a, cb(b, c)): the inner result is stored with its preimage, so
    only the three inputs are peeled."""
    M, conn = CONTEXTS["denominators-free2"]
    rng = random.Random(13)
    a, b, c = (_image(rng, M, conn, d) for d in (2, 3, 2))
    peeled = []
    real = symbol_map._peel
    monkeypatch.setattr(symbol_map, "_peel", lambda x, conn: peeled.append(x) or real(x, conn))
    inner = cbracket(b, c)
    outer = cbracket(a, inner)
    assert not outer.is_zero()
    assert sorted(map(id, peeled)) == sorted(map(id, (a, b, c)))
    assert cmaps._PREIMAGES[inner] is not cmaps._NON_MEMBER
    assert apply_J(cmaps._PREIMAGES[inner], M.reference_connection()) == inner


def test_every_context_reaches_the_degree_cap():
    """The pair lists reach DEGREE_CAP, and the reference connection is
    flat exactly when the gram is constant."""
    assert max(r + s - 2 for r, s in BRACKET_PAIRS) == DEGREE_CAP
    assert max(r + s for r, s in WEDGE_PAIRS) == DEGREE_CAP
    for M, _ in CONTEXTS.values():
        ref = M.reference_connection()
        assert ref is M.reference_connection() and ref.is_metric()
        constant = all(v.is_constant() for v in itertools.chain.from_iterable(M.gram))
        assert constant == all(v.is_zero() for row in ref.gamma for v in row)
