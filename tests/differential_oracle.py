"""Reference oracle for the deformation differential: one full bracket per column.

`column` is {Theta, x} on one basis monomial x, by the Leibniz peeling of
`peeling_oracle`, which is independent of the library's bracket kernel;
`delta_block` builds each column of the (r, d) block from it.  `delta_squared_is_zero`
composes the sparse rows of the blocks (r, d) and (r + 1, d).
`courantalg.deform` applies the homological vector field Q = {Theta, .} by
Leibniz from its generator table instead, and must give the same bases,
matrices and verdicts.

`delta_squared_witness` applies that Q twice to each basis monomial x
(`deform._apply_q`), checking that Q(x) lies in block (r + 1, d) and Q(Q(x))
in (r + 2, d); the library reads Q(Q(x)) from the generator table of Q^2
instead, and must name the same monomial with the same value.
"""

from __future__ import annotations

from fractions import Fraction

from courantalg import ModuleError, Poly, RothElement, deform
from courantalg.deform import GradedComplexBlock, enumerate_chain_basis, internal_degree_of_term

from peeling_oracle import peel_bracket


def roth_internal_degrees(phi: RothElement) -> set[int]:
    """The internal degrees of the terms of phi."""
    unpack = phi.module.backend.unpack
    return {internal_degree_of_term(phi.module, unpack(e), sym, ext)
            for (sym, ext), terms in phi._num.items() for e in terms}


def _require_degree_zero(cs) -> None:
    degs = roth_internal_degrees(cs.theta)
    if degs - {0}:
        raise ModuleError(
            "block decomposition needs an internally homogeneous generator of degree 0; got %s"
            % sorted(degs)
        )


def column(cs, exp, sym, ext) -> dict:
    """{Theta, x} on the monomial x = x^exp sym ext, as a flat sum {(exp, sym, ext): value};
    exp is packed, as in the library's chain bases."""
    backend = cs.module.backend
    mono = RothElement(cs.module, {(sym, ext): Poly.monomial(backend, backend.unpack(exp))})
    image = peel_bracket(cs.theta, mono, cs.connection)
    return {(backend.pack(iexp), isym, iext): frac for (isym, iext), poly in image.terms.items()
            for iexp, frac in poly.terms.items()}


def delta_block(cs, r: int, d: int) -> GradedComplexBlock:
    """The exact matrix of the differential from block (r, d) into (r+1, d)."""
    _require_degree_zero(cs)
    module = cs.module
    src = enumerate_chain_basis(module, r, d)
    dst = enumerate_chain_basis(module, r + 1, d)
    index = {key: i for i, key in enumerate(dst)}
    matrix = [{} for _ in dst]
    for col, mono in enumerate(src):
        for key, frac in column(cs, *mono).items():
            if key not in index:
                raise ModuleError("differential leaves the internal-degree block: %s" % (key,))
            matrix[index[key]][col] = frac
    return GradedComplexBlock(r, d, src, dst, matrix)


def _in_block(cs, terms: dict, den: int, r: int, d: int) -> tuple[dict, int]:
    """Q(terms) over its denominator, each monomial checked to lie in block (r, d)."""
    module = cs.module
    image, den = deform._apply_q(cs, terms, den)
    for (sym, ext), group in image.items():
        for e in group:
            if (2 * len(sym) + len(ext) != r
                    or internal_degree_of_term(module, module.backend.unpack(e), sym, ext) != d):
                raise ModuleError("differential leaves the internal-degree block: %s"
                                  % ((module.backend.unpack(e), sym, ext),))
    return image, den


def delta_squared_witness(cs, r: int, d: int):
    """The first basis monomial x of block (r, d) with Q(Q(x)) != 0, with
    that value, or None: Q applied twice."""
    _require_degree_zero(cs)
    module = cs.module
    for exp, sym, ext in enumerate_chain_basis(module, r, d):
        x = {(sym, ext): {exp: 1}}
        image, den = _in_block(cs, *_in_block(cs, x, 1, r + 1, d), r + 2, d)
        if any(image.values()):
            return RothElement.from_numerators(module, x, 1), RothElement.from_numerators(module, image, den)
    return None


def delta_squared_is_zero(cs, r: int, d: int) -> bool:
    """The product of consecutive blocks vanishes, composed over their sparse rows."""
    first = delta_block(cs, r, d).matrix
    for row in delta_block(cs, r + 1, d).matrix:
        image: dict[int, Fraction] = {}
        for t, v in row.items():
            for s, a in first[t].items():
                image[s] = image.get(s, 0) + v * a
        if any(image.values()):
            return False
    return True
