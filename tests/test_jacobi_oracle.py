"""The table-assembled Jacobi check against the triple-loop oracle.

`jacobi_identity_holds` must return the oracle's (ok, message) exactly, the
first failing triple included, on passing structures and on complex elements
that fail Jacobi; it reads m from the tower only on pairs of monomial
elements, each pair at most once per call.
"""

import itertools
import random
from fractions import Fraction

import pytest

import jacobi_oracle as oracle
from courantalg import (
    Backend,
    Cochain,
    Connection,
    MetricModule,
    ModuleElement,
    Poly,
    apply_J,
    make_quadratic_lie,
    make_standard_courant,
)
from courantalg.cmaps import cmap_verify, probe_elements
from courantalg.deform import jacobi_identity_holds, standard_module, verify_courant
from courantalg.modules import inner

from conftest import random_roth, so3_constants
from test_deform import so3_structure


def _antisymmetric_table(seed: int, rank: int = 5) -> Cochain:
    """Seeded totally antisymmetric constants c_ijk with the identity gram."""
    rng = random.Random(seed)
    backend = Backend.free(0)
    module = MetricModule(backend, [[Poly.const(backend, int(i == j)) for j in range(rank)]
                                    for i in range(rank)])
    c = {}
    for triple in itertools.combinations(range(rank), 3):
        v = rng.randint(-2, 2)
        for perm, sign in zip(itertools.permutations(triple), (1, -1, -1, 1, 1, -1)):
            c[perm] = sign * v
    values = {(i, j): ModuleElement(module, [Poly.const(backend, c.get((i, j, k), 0))
                                             for k in range(rank)])
              for i in range(rank) for j in range(rank)}
    return Cochain.from_tables(module, 3, values, symbol_table=None)


def _random_standard_rank4(seed: int) -> Cochain:
    """J of a seeded degree-3 element over Q[x, y]^4: a complex element, generically not Courant."""
    module = standard_module(2)
    theta = random_roth(random.Random(seed), module, 3, coeff_deg=1)
    return apply_J(theta, Connection.flat(module))


def _scaled_so3(scale) -> Cochain:
    consts = [[[scale * v for v in row] for row in plane] for plane in so3_constants()]
    return make_quadratic_lie(consts, [[int(i == j) for j in range(3)] for i in range(3)]).cochain


PASSING = {
    "so3": lambda: so3_structure().cochain,
    "so3 scaled by 2": lambda: _scaled_so3(2),
    "so3 scaled by -1/3": lambda: _scaled_so3(Fraction(-1, 3)),
    "standard n=1": lambda: make_standard_courant(1).cochain,
    "standard n=2": lambda: make_standard_courant(2).cochain,
}

FAILING = {
    **{"rank-5 antisymmetric seed %d" % s: (lambda s=s: _antisymmetric_table(s)) for s in range(4)},
    **{"J of random rank-4 seed %d" % s: (lambda s=s: _random_standard_rank4(s)) for s in range(4)},
}


@pytest.mark.parametrize("name", sorted(PASSING))
def test_jacobi_matches_oracle_on_courant_structures(name):
    m = PASSING[name]()
    probes = probe_elements(m.module, 1)
    assert jacobi_identity_holds(m, probes) == oracle.jacobi_identity_holds(m, probes) == (True, None)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_jacobi_matches_oracle_witness_on_failing_complex_elements(name):
    m = FAILING[name]()
    probes = probe_elements(m.module, 1)
    assert cmap_verify(m, depth=1)[0]  # in the complex, so only Jacobi can fail
    expected = oracle.jacobi_identity_holds(m, probes)
    assert not expected[0]
    first = "Jacobi fails on (%r, %r, %r)" % (probes[0], probes[0], probes[0])
    assert expected[1] != first  # the witness is a later triple, so the order is tested
    assert jacobi_identity_holds(m, probes) == expected


def test_jacobi_evaluates_each_monomial_pair_once(monkeypatch):
    m = make_standard_courant(2).cochain
    probes = probe_elements(m.module, 1)
    calls = []
    depth = [0]
    real_eval_mono = Cochain._eval_mono

    def recording_eval_mono(self, p, gens, margs, memo):
        if not depth[0]:
            calls.append((p, gens, margs))
        depth[0] += 1
        try:
            return real_eval_mono(self, p, gens, margs, memo)
        finally:
            depth[0] -= 1

    def no_call(self, *args):
        raise AssertionError("the Jacobi check must not call the cochain")

    monkeypatch.setattr(Cochain, "_eval_mono", recording_eval_mono)
    monkeypatch.setattr(Cochain, "__call__", no_call)
    assert jacobi_identity_holds(m, probes) == (True, None)
    assert calls
    for p, gens, margs in calls:
        # m(x^e1 e_a, x^e2 e_b) paired with a basis element e_c (packed unit monomial 0)
        assert (p, gens, len(margs), margs[2][0]) == (0, (), 3, 0)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("seed", range(4))
def test_bracket_route_witness_is_the_first_nonzero_self_bracket_entry(seed):
    m = _antisymmetric_table(seed)
    module = m.module
    e = module.basis

    def jacobiator(a, b, c, d):
        x, y, z = e(a), e(b), e(c)
        return inner(m(x, m(y, z)) - m(m(x, y), z) - m(y, m(x, z)), e(d))

    # on a constant table, [m, m](e_a, e_b, e_c, e_d) = -2 <Jac(e_a, e_b, e_c), e_d>
    args = next(t for t in itertools.product(range(module.rank), repeat=4) if not jacobiator(*t).is_zero())
    ok, report = verify_courant(m)
    assert not ok and report["agree"] and not report["bracket_route"]
    assert report["bracket_detail"] == "[m, m] != 0 at level 0, generators (), arguments (%s): %s" % (
        ", ".join(module.names[b] for b in args), jacobiator(*args).scale(-2))
