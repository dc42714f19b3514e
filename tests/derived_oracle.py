"""Reference oracle for the derived bracket: two brackets of the complex.

[[x, m], y] is computed literally, as the bracket of the degree-1 cochain
<x, .> with m, bracketed again with <y, .>, and read back as a module
element.  `courantalg.deform.derived_bracket` reads m once on the pair
(x, y) and must return exactly this element.
"""

from __future__ import annotations

from courantalg.cmaps import Cochain, cbracket
from courantalg.modules import ModuleElement


def derived_bracket(m: Cochain, x: ModuleElement, y: ModuleElement) -> ModuleElement:
    """[[x, m], y] for the degree-3 cochain m."""
    step = cbracket(Cochain.from_module_element(x), m)
    return cbracket(step, Cochain.from_module_element(y)).module_part()
