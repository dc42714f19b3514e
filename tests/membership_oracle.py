"""Reference oracle for membership in the image of J: the capped linear solve.

J(phi) = c is solved exactly over Q for phi in the span of the graded
monomials of c's degree whose coefficient degree is at most a cap, by
`linalg.solve` on the flattened tower entries.  Over the dual numbers a cap
of at least 1 spans every coefficient, so the verdict is conclusive; over
free polynomials a non-member is only a non-member below the cap.
`courantalg.symbol_map.chat_membership` peels the top symbol instead and
must give the same verdict, and over free polynomials, where J is
injective, the same preimage.
"""

from __future__ import annotations

from fractions import Fraction

from courantalg import linalg
from courantalg.cmaps import Cochain
from courantalg.modules import Connection, MetricModule
from courantalg.poly import Poly, packed_exponents_of_degree
from courantalg.rothstein import RothElement, graded_monomials
from courantalg.symbol_map import apply_J


def _roth_monomial_basis(module: MetricModule, degree: int, cap: int) -> list:
    """Monomial basis (exp, sym, ext) of the degree bucket with coefficient degree <= cap."""
    backend = module.backend

    def exponents(sym, ext):
        return (exp for total in range(cap + 1) for exp in packed_exponents_of_degree(backend, total))

    return list(graded_monomials(module, degree, exponents))


def _flatten(c: Cochain, coords: dict) -> dict[tuple, Fraction]:
    """The entries of c by coordinate key, each new key given the next coordinate."""
    vec = {}
    for p, table in c.levels.items():
        for (gens, args), poly in table.items():
            for exp, frac in poly.terms.items():
                key = (p, gens, args, exp)
                coords.setdefault(key, len(coords))
                vec[key] = frac
    return vec


def chat_membership(c: Cochain, conn: Connection, cap: int | None = None) -> dict:
    """Decide whether c lies in the image of J by an exact solve over Q.

    Every degree is solved over the monomial basis with coefficient degree
    <= cap (by default one above the largest coefficient degree of c, at
    least 2), so the oracle shares no code with the peel but `apply_J`.
    """
    module = c.module
    degree = c.degree
    if cap is None:
        cap = 2
        for table in c.levels.values():
            for v in table.values():
                cap = max(cap, v.total_degree() + 1)
    # over the dual numbers a coefficient has degree <= 1, so a cap >= 1 spans them all
    conclusive = module.backend.is_dual and cap >= 1
    basis = _roth_monomial_basis(module, degree, cap)
    images = [apply_J(RothElement.from_numerators(module, {(sym, ext): {exp: 1}}, 1), conn)
              for exp, sym, ext in basis]
    coords: dict[tuple, int] = {}
    target_vec = _flatten(c, coords)
    image_vecs = [_flatten(im, coords) for im in images]
    rows = [{} for _ in coords]  # column len(basis) holds the target
    for j, vec in enumerate(image_vecs + [target_vec]):
        for key, frac in vec.items():
            rows[coords[key]][j] = frac
    if not basis:
        nz = next(iter(target_vec), None)
        if nz is None:
            return {"member": True, "preimage": RothElement.zero(module), "cap": cap,
                    "conclusive": True}
        return {"member": False, "cap": cap, "conclusive": conclusive,
                "certificate": {"coordinate": _coord_name(module, nz), "residual": str(target_vec[nz]),
                                "reason": "no candidate monomials in the image"}}
    sol, witness = linalg.solve(rows, len(basis))
    if sol is None:
        return {
            "member": False,
            "cap": cap,
            "conclusive": conclusive,
            "certificate": {
                "residual_row": [str(v) for v in witness],
                "coordinate": _coord_name(module, _first_target_coord(target_vec, coords)),
                "reason": "eliminated system contains 0 = 1",
            },
        }
    groups: dict = {}
    for v, (exp, sym, ext) in zip(sol, basis):
        if v:
            groups.setdefault((sym, ext), {})[module.backend.unpack(exp)] = v
    phi = RothElement(module, {key: Poly(module.backend, terms) for key, terms in groups.items()})
    if apply_J(phi, conn) != c:
        raise AssertionError("membership solve produced a non-preimage")
    return {"member": True, "preimage": phi, "cap": cap, "conclusive": True}


def _first_target_coord(target_vec, coords):
    return min(target_vec, key=coords.__getitem__)


def _coord_name(module: MetricModule, key) -> str:
    p, gens, args, exp = key
    return "level %d, generators %s, basis args %s, monomial %s" % (
        p,
        list(gens),
        [module.names[a] for a in args],
        str(Poly.monomial(module.backend, exp)),
    )
