"""The table-driven complex-membership check against the full-loop oracle.

`cmap_verify` must return the oracle's (ok, report) exactly, the first
violation's message included, on passing elements and on mutants that fail;
it reads level 0 only through `_eval_mono`, once per probe tuple, and never
takes the general-argument path (`omega`, `eval_level`).
"""

import itertools
import random
from fractions import Fraction

import pytest

import cmap_verify_oracle as oracle
from courantalg import Backend, Cochain, MetricModule, MultiDerivation, Poly, apply_J, make_standard_courant
from courantalg.cmaps import cmap_verify, probe_elements, quartic_from_biderivation

from conftest import curved_connection, hyperbolic_module, random_poly, random_roth
from test_deform import so3_structure, so3_sum_structure
from test_jacobi_oracle import _scaled_so3


def _same_verdict(c: Cochain, depth=None) -> tuple[bool, dict]:
    expected = oracle.cmap_verify(c, depth)
    assert cmap_verify(c, depth) == expected
    return expected


def _mutant(c: Cochain, rng: random.Random, value) -> Cochain:
    """c with value added to one tower entry, level and key drawn by rng."""
    module = c.module
    ngen = 1 if module.backend.is_dual else module.backend.nvars
    p = rng.choice([p for p in range(c.degree // 2 + 1) if p == 0 or ngen])
    gens = rng.choice(list(itertools.combinations_with_replacement(range(ngen), p)))
    args = tuple(rng.randrange(module.rank) for _ in range(c.degree - 2 * p))
    levels = {q: dict(t) for q, t in c.levels.items()}
    table = levels.setdefault(p, {})
    table[gens, args] = table.get((gens, args), Poly.zero(module.backend)) + value
    return Cochain(module, c.degree, levels)


PASSING = {
    "so3": (lambda: so3_structure().cochain, None),
    "so3 scaled by 2": (lambda: _scaled_so3(2), None),
    "so3 scaled by -1/3": (lambda: _scaled_so3(Fraction(-1, 3)), None),
    "so3 + so3": (lambda: so3_sum_structure().cochain, None),
    "standard n=1 default depth": (lambda: make_standard_courant(1).cochain, None),
    **{"standard n=%d" % n: (lambda n=n: make_standard_courant(n).cochain, 1) for n in (1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(PASSING))
def test_cmap_verify_matches_oracle_on_courant_structures(name):
    build, depth = PASSING[name]
    assert _same_verdict(build(), depth)[0]


def test_cmap_verify_matches_oracle_on_so3_mutants():
    """The 100 seeded level-0 mutants of acceptance criterion 3."""
    so3 = so3_structure().cochain
    backend = so3.module.backend
    rng = random.Random(103)
    mutations = 0
    while mutations < 100:
        levels = {p: dict(t) for p, t in so3.levels.items()}
        key = rng.choice(sorted(set(itertools.product([()], itertools.product(range(3), repeat=3)))))
        delta = Poly.const(backend, rng.choice([1, -1, 2, Fraction(1, 2)]))
        levels[0][key] = levels[0].get(key, Poly.zero(backend)) + delta
        mutated = Cochain(so3.module, 3, levels)
        if mutated == so3:
            continue
        mutations += 1
        assert not _same_verdict(mutated)[0]


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_cmap_verify_matches_oracle_on_biderivation_quartics(depth):
    D = Backend.dual()
    eps, one = Poly.var(D, 0), Poly.one(D)
    module = MetricModule(D, [[one]])
    rng = random.Random(50 + depth)
    verdicts = []
    for scale in (1, -2, Fraction(1, 3)):
        quartic = quartic_from_biderivation(module, MultiDerivation(D, 2, {(0, 0): eps.scale(scale)}))
        verdicts.append(_same_verdict(quartic, depth)[0])
        for _ in range(20):
            value = one.scale(rng.randint(-2, 2)) + eps.scale(rng.choice([-1, 1, 2, Fraction(1, 2)]))
            verdicts.append(_same_verdict(_mutant(quartic, rng, value), depth)[0])
    assert verdicts[0] and verdicts.count(False) >= 10


def test_cmap_verify_matches_oracle_on_curved_j_images():
    """J of seeded degree-3 elements over Q[x, y]^4 with a curved connection, and mutants."""
    module = hyperbolic_module(2, 2)
    conn = curved_connection(module, seed=11)
    rng = random.Random(61)
    failures = []
    for _ in range(3):
        m = apply_J(random_roth(rng, module, 3, coeff_deg=1), conn)
        assert _same_verdict(m, 1)[0]  # J lands in the complex
        for _ in range(4):
            value = Poly.zero(module.backend)
            while value.is_zero():
                value = random_poly(rng, module.backend, 1)
            ok, report = _same_verdict(_mutant(m, rng, value), 1)
            if not ok:
                failures.append(report["violation"])
    assert len(failures) >= 4
    probes = probe_elements(module, 1)
    first = "swap identity fails at position 1 on %s" % ([repr(probes[0])] * 3)
    assert any(msg != first for msg in failures)  # witnesses past the first tuple are compared


def test_cmap_verify_reads_level_zero_once_per_probe_tuple(monkeypatch):
    m = make_standard_courant(2).cochain
    m = Cochain(m.module, m.degree, m.levels)  # an empty evaluation memo
    depth, level0, forbidden = [0], [], []
    real_eval_mono = Cochain._eval_mono

    def counting_eval_mono(self, p, gens, margs):
        if depth[0] == 0 and p == 0:
            level0.append(margs)
        depth[0] += 1
        try:
            return real_eval_mono(self, p, gens, margs)
        finally:
            depth[0] -= 1

    def refuse(name):
        def call(self, *args):
            forbidden.append(name)
        return call

    monkeypatch.setattr(Cochain, "_eval_mono", counting_eval_mono)
    monkeypatch.setattr(Cochain, "omega", refuse("omega"))
    monkeypatch.setattr(Cochain, "eval_level", refuse("eval_level"))
    assert cmap_verify(m, depth=1)[0]
    assert forbidden == []
    probes = len(probe_elements(m.module, 1))
    assert level0 and len(set(level0)) == len(level0) <= probes ** 3
