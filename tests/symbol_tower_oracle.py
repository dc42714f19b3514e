"""Reference oracle for the symbol-tower check: the per-level loop on general arguments.

For each level p below the top, each sorted generator tuple, each pair of
probes (u, v) followed by basis elements z, and each adjacent position i,
level p+1 applied to the pairing of the arguments at i and i + 1 must equal
level p symmetrized in them; both sides are read through
`Cochain.eval_level`, with the algebra generators as the algebra arguments.
Then every level p >= 1 must be a derivation in each slot, checked on
products of generators (`slot_loop_verdict`).
`courantalg.cmaps.symbol_tower` reads the same identities from `_eval_mono`
tables and must fail at the same level with the same leading words.
"""

from __future__ import annotations

import itertools

from courantalg.cmaps import Cochain, probe_elements
from courantalg.modules import inner
from courantalg.poly import der_generator_var, num_der_generators


def swap_holds(c: Cochain, gens, args, i: int = 0) -> bool:
    """The level-len(gens) identity at position i on the module arguments args."""
    backend = c.module.backend
    gargs = tuple(der_generator_var(backend, j) for j in gens)
    args = tuple(args)
    u, v, rest = args[i], args[i + 1], args[:i] + args[i + 2:]
    swapped = args[:i] + (v, u) + args[i + 2:]
    lhs = c.eval_level(len(gens) + 1, gargs + (inner(u, v),), rest)
    return lhs == c.eval_level(len(gens), gargs, args) + c.eval_level(len(gens), gargs, swapped)


def symbol_tower_verdict(c: Cochain, depth: int = 1) -> str | None:
    """The first failure of the tower, as the leading words of its message, or None."""
    module = c.module
    backend = module.backend
    ngen = num_der_generators(backend)
    probes = probe_elements(module, depth)
    for p in range(c.degree // 2):
        for gens in itertools.combinations_with_replacement(range(ngen), p):
            for u, v in itertools.product(probes, repeat=2):
                for z in itertools.product(module.basis_elements(), repeat=c.degree - 2 * p - 2):
                    if not all(swap_holds(c, gens, (u, v) + z, i) for i in range(c.degree - 2 * p - 1)):
                        return "symbol extraction inconsistent at level %d" % (p + 1)
    return slot_loop_verdict(c)


def slot_loop_verdict(c: Cochain) -> str | None:
    """The per-slot derivation check on generator products: the first failing
    level's message, or None."""
    module = c.module
    backend = module.backend
    ngen = num_der_generators(backend)
    gen_vars = [der_generator_var(backend, j) for j in range(ngen)]
    for p in range(1, c.degree // 2 + 1):
        basis_args = list(itertools.product(module.basis_elements(), repeat=c.degree - 2 * p))
        for gens in itertools.combinations_with_replacement(range(ngen), p):
            gargs = [gen_vars[g] for g in gens]
            for slot, j, zargs in itertools.product(range(p), range(ngen), basis_args):
                product = gargs[:slot] + [gargs[slot] * gen_vars[j]] + gargs[slot + 1:]
                lhs = c.eval_level(p, tuple(product), zargs)
                rhs = gargs[slot] * c.eval_level(p, tuple(gargs[:slot] + [gen_vars[j]] + gargs[slot + 1:]), zargs) \
                    + gen_vars[j] * c.eval_level(p, tuple(gargs), zargs)
                if lhs != rhs:
                    return "level %d is not a derivation in slot %d" % (p, slot)
    return None
