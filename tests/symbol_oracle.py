"""Reference oracles for the symbol level of a cochain, by two routes the
library does not take.

`DerivationTail` is the Der(A) (x) E valued map dual to the symbol of a
degree >= 3 element, read off the level-1 entries; its pairing invariant
<tail(args) a, y> = sigma(args, y) a ties it back to `Cochain.eval_level`.
`symbol_via_fullness` recovers the symbol from values alone, through the
fullness witness of the module.  Both must agree with the stored symbol
level of every J-image and complex element they are given.
"""

from __future__ import annotations

import itertools

from courantalg import Cochain, ModuleElement, Poly, inner
from courantalg.cmaps import probe_elements
from courantalg.poly import der_generator_var, generator_expansion, num_der_generators


class DerivationTail:
    """The Der(A) (x) E valued map dual to the symbol of a degree >= 3 element.

    table[(b_1..b_{r-3})][j] is the module element paired with the j-th
    derivation generator, so that applying the tail to an algebra element a
    gives sum_j (da/dg_j) table[...][j], and the defining pairing
    <tail(args) a, y> = sigma(args, y) a holds.
    """

    __slots__ = ("cochain", "table")

    def __init__(self, cochain: Cochain):
        if cochain.degree < 3:
            raise ValueError("the tail exists from degree 3 on")
        module = cochain.module
        backend = module.backend
        ngen = num_der_generators(backend)
        table = {}
        level1 = cochain.levels.get(1, {})
        for args in itertools.product(range(module.rank), repeat=cochain.degree - 3):
            entry = []
            for j in range(ngen):
                vals = [level1.get(((j,), args + (b,)), Poly.zero(backend)) for b in range(module.rank)]
                entry.append(module.raise_form(vals))
            table[args] = entry
        self.cochain = cochain
        self.table = table

    def apply(self, args, a: Poly) -> ModuleElement:
        entry = self.table[tuple(args)]
        out = self.cochain.module.zero()
        for (j,), part in generator_expansion(self.cochain.module.backend, (a,)).items():
            out = out + entry[j].scale(part)
        return out

    def pairing_invariant_holds(self, depth: int = 1) -> bool:
        """<tail(args) a, y> = sigma(args, y) a on bounded probes."""
        c = self.cochain
        module = c.module
        backend = module.backend
        gen_polys = [der_generator_var(backend, j) for j in range(num_der_generators(backend))]
        probes = probe_elements(module, depth)
        for args in itertools.product(range(module.rank), repeat=c.degree - 3):
            basis_args = tuple(module.basis(b) for b in args)
            for a in gen_polys:
                image = self.apply(args, a)
                for y in probes:
                    if inner(image, y) != c.eval_level(1, (a,), basis_args + (y,)):
                        return False
        return True


def symbol_via_fullness(c: Cochain, args, g: Poly) -> Poly:
    """The symbol recovered from values through the fullness witness.

    sigma(args)(g) = <C(args, g x), y> + <g x, C(args, y)> for the witness
    pair (x, y); an independent route to the stored symbol level, used to
    re-verify inferred symbols.
    """
    if c.degree < 2:
        raise ValueError("degree >= 2 required")
    module = c.module
    (wx, wy), = module.fullness_witness()
    gx = wx.scale(g)
    lhs = c.omega(tuple(args) + (gx, wy)) + c.omega(tuple(args) + (wy, gx))
    return lhs
