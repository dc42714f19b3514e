"""Reference oracle for J: one bracket chain per basis tuple.

Each tower entry of J(phi) on generators g_1..g_p and basis arguments
b_1..b_q is computed from scratch as the scalar part of
{...{{phi, x_{g_1}}, ...}, e_{b_1}}, ...}, e_{b_q}}, through `_tabulate` and
q `roth_bracket` calls per tuple.  `courantalg.symbol_map.apply_J` walks the
prefix tree of these brackets once and must return exactly this cochain.
"""

from __future__ import annotations

from courantalg.cmaps import Cochain, _tabulate
from courantalg.modules import Connection, ModuleError
from courantalg.rothstein import RothElement, nested_bracket_with_scalars, roth_bracket


def nested_bracket_with_modules(phi: RothElement, args, conn: Connection) -> RothElement:
    """{...{phi, x_1}, ...}, x_k} for module elements x_i."""
    out = phi
    for x in args:
        out = roth_bracket(out, RothElement.from_module_element(x), conn)
    return out


def apply_J(phi: RothElement, conn: Connection) -> Cochain:
    """Image of a homogeneous element, with its full tower, via nested brackets."""
    module = phi.module
    if conn.module != module:
        raise ModuleError("connection lives on a different module")
    basis = module.basis_elements()

    def entries_at(gvars):
        chi = nested_bracket_with_scalars(phi, gvars, conn)
        if chi.is_zero():
            return None
        return lambda bargs: nested_bracket_with_modules(chi, [basis[b] for b in bargs], conn).scalar_part()

    return _tabulate(module, phi.degree(), entries_at)
