"""J as one walk of the bracket prefix tree, against the per-tuple oracle.

`apply_J` builds one Hamiltonian per nonzero inner node of the prefix tree
of nested brackets {...{{phi, x_{g_1}}, ...}, e_{b_1}}, ...}, e_{b_q}};
`apply_J_oracle.apply_J` runs the whole chain of `roth_bracket`s for every
tower entry.  They must return the same cochain on seeded elements of
degrees 0-5 over free algebras in 0-3 variables and over the dual numbers
(flat and curved metrized connections), and on the generators Theta of
so(3) and of the standard structure for n = 1, 2, 3.  The count test
checks that the walk builds at most one Hamiltonian per nonzero inner node
and never goes through `roth_bracket`.
"""

import itertools
import random

import pytest

import apply_J_oracle as oracle
from courantalg import Connection, apply_J, make_quadratic_lie, make_standard_courant, rothstein, symbol_map
from courantalg.poly import der_generator_var, num_der_generators
from courantalg.rothstein import nested_bracket_with_scalars

from conftest import oracle_contexts, random_roth, so3_constants


def _contexts():
    """oracle_contexts() plus the flat connection on each free module, by name."""
    for M, conn in oracle_contexts():
        algebra = "dual" if M.backend.is_dual else "free%d" % M.backend.nvars
        yield "%s-%s" % (algebra, "flat" if conn == Connection.flat(M) else "curved"), M, conn
        if not M.backend.is_dual:
            yield algebra + "-flat", M, Connection.flat(M)


CONTEXTS = {name: (M, conn) for name, M, conn in _contexts()}


def _seeded(rng: random.Random, module, degree: int):
    phi = random_roth(rng, module, degree, density=1.0)
    while phi.is_zero() and rng.random() < 0.9:  # a degree may have no terms on a small module
        phi = random_roth(rng, module, degree, density=1.0)
    return phi


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_apply_J_matches_oracle_on_seeded_elements(name):
    M, conn = CONTEXTS[name]
    rng = random.Random(41 + list(CONTEXTS).index(name))
    nonzero = 0
    for degree in range(6):
        for _ in range(2):
            phi = _seeded(rng, M, degree)
            image = apply_J(phi, conn)
            assert image == oracle.apply_J(phi, conn)
            nonzero += not image.is_zero()
    assert nonzero >= 6


def test_apply_J_matches_oracle_on_so3_and_standard_thetas():
    gram = [[int(i == j) for j in range(3)] for i in range(3)]
    structures = [make_quadratic_lie(so3_constants(), gram)] + [make_standard_courant(n) for n in (1, 2, 3)]
    rng = random.Random(5)
    for cs in structures:
        image = apply_J(cs.theta, cs.connection)
        assert image == oracle.apply_J(cs.theta, cs.connection) == cs.cochain
        assert not image.is_zero()
        if cs.module.rank <= 4:
            for degree in range(5):
                phi = _seeded(rng, cs.module, degree)
                assert apply_J(phi, cs.connection) == oracle.apply_J(phi, cs.connection)


def _inner_nodes(phi, conn) -> int:
    """Nonzero nodes of degree > 0 in the prefix tree, each found by the oracle's chains."""
    module, degree = phi.module, phi.degree()
    backend = module.backend
    basis = module.basis_elements()
    count = 0
    for p in range(degree // 2 + 1):
        for gens in itertools.combinations_with_replacement(range(num_der_generators(backend)), p):
            chi = nested_bracket_with_scalars(phi, [der_generator_var(backend, j) for j in gens], conn)
            for q in range(degree - 2 * p):
                for bargs in itertools.product(range(module.rank), repeat=q):
                    node = oracle.nested_bracket_with_modules(chi, [basis[b] for b in bargs], conn)
                    count += not node.is_zero()
    return count


def test_one_hamiltonian_per_nonzero_inner_node(monkeypatch):
    calls = {"hamiltonian": 0, "roth_bracket": 0}
    hamiltonian, bracket = rothstein._hamiltonian, rothstein.roth_bracket

    def counted_hamiltonian(*args):
        calls["hamiltonian"] += 1
        return hamiltonian(*args)

    def counted_bracket(*args):
        calls["roth_bracket"] += 1
        return bracket(*args)

    rng = random.Random(13)
    checked = 0
    for M, conn in oracle_contexts():
        for degree in (2, 3, 4, 5):
            phi = _seeded(rng, M, degree)
            nodes = _inner_nodes(phi, conn)
            calls.update(hamiltonian=0, roth_bracket=0)
            with monkeypatch.context() as m:
                for module in (rothstein, symbol_map):
                    m.setattr(module, "_hamiltonian", counted_hamiltonian)
                m.setattr(rothstein, "roth_bracket", counted_bracket)
                image = apply_J(phi, conn)
            assert calls["roth_bracket"] == 0
            assert calls["hamiltonian"] <= nodes
            assert image == oracle.apply_J(phi, conn)
            checked += nodes > 0
    assert checked >= 15
