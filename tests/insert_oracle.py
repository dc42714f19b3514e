"""Reference oracle for insertion i_x C: the tabulating route.

A basis element x = e_a re-keys the stored tables; any other x fills every
tower entry of the result by evaluating C with x in the first slot through
the symmetric-derivation expansion `Cochain._eval_sder`.
`courantalg.cmaps.insert` reads each Q-term of x from the tower directly and
must return exactly this cochain.
"""

from __future__ import annotations

from courantalg.cmaps import Cochain, LevelTable, _tabulate
from courantalg.modules import ModuleElement, ModuleError


def insert(c: Cochain, x: ModuleElement) -> Cochain:
    """i_x C: insertion into the first argument (degree >= 2 only)."""
    if c.degree < 2:
        raise ValueError("insertion needs degree >= 2")
    module = c.module
    if x.module != module:
        raise ModuleError("module mismatch")
    new_degree = c.degree - 1
    if c.is_zero() or x.is_zero():
        return Cochain.zero(module, new_degree)
    basis_idx = _basis_index(x)
    if basis_idx is None:
        memo: dict = {}

        def entries_at(gvars):
            return lambda bargs: c._eval_sder(
                len(gvars), gvars, (), (x,) + tuple(module.basis(b) for b in bargs), memo)

        return _tabulate(module, new_degree, entries_at)
    # basis insertion just re-keys the stored tables
    levels: dict[int, LevelTable] = {}
    for p, table in c.levels.items():
        if 2 * p > new_degree:
            continue
        levels[p] = {
            (gens, args[1:]): v
            for (gens, args), v in table.items()
            if args and args[0] == basis_idx
        }
    return Cochain(module, new_degree, levels)


def _basis_index(x: ModuleElement) -> int | None:
    idx = None
    for a, coeff in enumerate(x.coeffs):
        if coeff.is_zero():
            continue
        if idx is not None or not coeff.is_one():
            return None
        idx = a
    return idx
