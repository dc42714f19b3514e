"""The table-driven symbol-tower check against the per-level oracle loop.

`symbol_tower` must pass or fail exactly where the oracle does, at the same
level and with the same leading words, and the generator tuple and probes
its message names must break the swap identity under the oracle at the
position it names.
"""

import ast
import itertools
import random

import pytest

from courantalg import Backend, Cochain, MetricModule, MultiDerivation, Poly, apply_J, make_standard_courant
from courantalg.cmaps import probe_elements, quartic_from_biderivation, symbol_tower
from courantalg.modules import Connection

from conftest import curved_connection, random_poly, random_roth
from symbol_tower_oracle import swap_holds, symbol_tower_verdict
from test_cmap_verify_oracle import _mutant
from test_cmaps import _random_tower

WITNESS = " on generators "


def _same_verdict(c: Cochain, depth: int) -> str | None:
    """The oracle's verdict, asserted equal to the library's; a named witness
    is checked to break the identity under the oracle."""
    expected = symbol_tower_verdict(c, depth)
    try:
        assert symbol_tower(c, depth) == c.levels
        got = None
    except ValueError as ex:
        got = str(ex)
    assert (got if got is None else got.split(WITNESS)[0]) == expected
    if got is not None and WITNESS in got:
        gens, rest = got.split(WITNESS)[1].split(" and probes ")
        probes, position = rest.split(" at position ")
        by_repr = {repr(x): x for x in probe_elements(c.module, depth)}
        args = [by_repr[r] for r in ast.literal_eval(probes)]
        assert not swap_holds(c, ast.literal_eval(gens), args, int(position) - 1)
    return expected


def _module(backend: Backend, rank: int) -> MetricModule:
    one, zero = Poly.one(backend), Poly.zero(backend)
    return MetricModule(backend, [[one if a == b else zero for b in range(rank)] for a in range(rank)])


@pytest.mark.parametrize("kind", ["free1", "free2", "dual"])
def test_symbol_tower_matches_oracle_on_seeded_towers(kind):
    # per rank, degree and depth: a J-image (passes), a one-entry mutant of it
    # and a random tower, each given the oracle's verdict
    backend = Backend.dual() if kind == "dual" else Backend.free(int(kind[-1]))
    rng = random.Random(71)
    verdicts = []
    for rank, degree, depth in itertools.product((1, 2), (2, 3, 4, 5), (0, 1)):
        module = _module(backend, rank)
        conn = curved_connection(module, seed=rank * 10 + degree) if backend.nvars else Connection.flat(module)
        image = apply_J(random_roth(rng, module, degree), conn)
        assert _same_verdict(image, depth) is None
        value = Poly.zero(backend)
        while value.is_zero():
            value = random_poly(rng, backend, 1)
        verdicts.append(_same_verdict(_mutant(image, rng, value), depth))
        verdicts.append(_same_verdict(_random_tower(rng, module, degree), depth))
        if degree == 4 and depth == 0:
            # on basis probes level 0 reads no level-1 entry, so a level-1 entry
            # that is not alternating in its two slots fails at level 2 only
            levels = {p: dict(t) for p, t in image.levels.items()}
            table = levels.setdefault(1, {})
            table[(0,), (0, 0)] = table.get(((0,), (0, 0)), Poly.zero(backend)) + value
            verdicts.append(_same_verdict(Cochain(module, 4, levels), depth))
    failures = [v for v in verdicts if v is not None]
    assert len(failures) >= 10
    assert len({v.split(" at level ")[0] for v in failures}) >= (2 if kind == "dual" else 1)
    assert len({v for v in failures if v.startswith("symbol")}) >= 2  # more than one failing level


def test_symbol_tower_matches_oracle_on_quartics():
    D = Backend.dual()
    eps, one = Poly.var(D, 0), Poly.one(D)
    module = MetricModule(D, [[one]])
    quartic = quartic_from_biderivation(module, MultiDerivation(D, 2, {(0, 0): eps}))
    rng = random.Random(73)
    verdicts = []
    for depth in (0, 1):
        assert _same_verdict(quartic, depth) is None
        for _ in range(10):
            value = one.scale(rng.randint(-2, 2)) + eps.scale(rng.choice([-1, 1, 2]))
            verdicts.append(_same_verdict(_mutant(quartic, rng, value), depth))
    assert verdicts.count(None) < len(verdicts)


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_tower_matches_oracle_on_standard_structures(n):
    m = make_standard_courant(n).cochain
    assert _same_verdict(m, 1) is None
    rng = random.Random(75 + n)
    x = Poly.var(m.module.backend, 0)
    failures = [_same_verdict(_mutant(m, rng, x), 1) for _ in range(4)]
    assert any(failures)


def test_symbol_tower_names_a_curved_witness():
    # a level-1 entry changed on J of a curved structure over Q[x, y]: the
    # message names the generator tuple and the probes, which break the identity
    module = _module(Backend.free(2), 2)
    conn = curved_connection(module, seed=5)
    c = apply_J(random_roth(random.Random(77), module, 4), conn)
    levels = {p: dict(t) for p, t in c.levels.items()}
    key = ((1,), (0, 1))
    levels[1][key] = levels[1].get(key, Poly.zero(module.backend)) + Poly.var(module.backend, 0)
    broken = Cochain(module, 4, levels)
    with pytest.raises(ValueError, match=r"symbol extraction inconsistent at level \d on generators \[\d*\] and probes"):
        symbol_tower(broken)
    assert _same_verdict(broken, 1).startswith("symbol extraction inconsistent")
