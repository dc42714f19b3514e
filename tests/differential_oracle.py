"""Reference oracle for the deformation differential: one full bracket per column.

`delta_block` builds each column of the (r, d) block as {Theta, x} on the
basis monomial x, by the Leibniz peeling of `peeling_oracle`, which is
independent of the library's bracket kernel.  `delta_squared_is_zero`
composes the sparse rows of the blocks (r, d) and (r + 1, d).
`courantalg.deform` applies the homological vector field Q = {Theta, .} by
Leibniz from its generator table instead, and must give the same bases,
matrices and verdicts.
"""

from __future__ import annotations

from fractions import Fraction

from courantalg import ModuleError, Poly, RothElement
from courantalg.deform import GradedComplexBlock, enumerate_chain_basis, roth_internal_degrees

from peeling_oracle import peel_bracket


def delta_block(cs, r: int, d: int) -> GradedComplexBlock:
    """The exact matrix of the differential from block (r, d) into (r+1, d)."""
    degs = roth_internal_degrees(cs.theta)
    if degs - {0}:
        raise ModuleError(
            "block decomposition needs an internally homogeneous generator of degree 0; got %s"
            % sorted(degs)
        )
    module = cs.module
    src = enumerate_chain_basis(module, r, d)
    dst = enumerate_chain_basis(module, r + 1, d)
    index = {key: i for i, key in enumerate(dst)}
    matrix = [{} for _ in dst]
    for col, (exp, sym, ext) in enumerate(src):
        mono = RothElement(module, {(sym, ext): Poly.monomial(module.backend, exp)})
        image = peel_bracket(cs.theta, mono, cs.connection)
        for (isym, iext), poly in image.terms.items():
            for iexp, frac in poly.terms.items():
                key = (iexp, isym, iext)
                if key not in index:
                    raise ModuleError(
                        "differential leaves the internal-degree block: %s" % (key,)
                    )
                matrix[index[key]][col] = frac
    return GradedComplexBlock(r, d, src, dst, matrix)


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
