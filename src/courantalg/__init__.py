"""Exact computer algebra for Courant structures and their deformation theory.

Two graded Poisson algebras of degree -2 over exact rational coefficient
algebras: the complex of quasi-Courant brackets and its connection-based
symbol-calculus counterpart, related by an injective-in-low-degrees Poisson
morphism.  Structures are verified exactly and their deformation cohomology
is computed blockwise over Q.
"""

from .poly import (
    Backend,
    BackendError,
    Derivation,
    MultiDerivation,
    Poly,
    sym_product_of_derivations,
)
from .modules import (
    Connection,
    Curvature,
    MetricModule,
    ModuleElement,
    ModuleError,
    bianchi_check,
    curvature,
    inner,
    metrize,
)
from .rothstein import (
    AlgebraMap,
    ConnectionChange,
    ModuleMap,
    RothElement,
    roth_bracket,
    roth_pushforward,
    roth_wedge,
)
from .cmaps import (
    Cochain,
    cbracket,
    cmap_bracket,
    cmap_eval,
    cmap_pushforward,
    cmap_verify,
    cmap_wedge,
    cwedge,
    insert,
    symbol_tower,
)
from .symbol_map import (
    apply_J,
    chat_membership,
    invert_J,
    invert_J_deg2,
    invert_J_deg3,
    lambda_check,
)
from .deform import (
    CourantStructure,
    DeformationSeries,
    cohomology_dims,
    deformation_differential,
    delta_block,
    delta_squared_is_zero,
    delta_squared_witness,
    derived_bracket,
    dorfman_bracket,
    make_quadratic_lie,
    make_standard_courant,
    mc_bruteforce_orders,
    mc_extend,
    mc_obstruction,
    mc_series_valid,
    verify_courant,
    verify_morphism,
)

__version__ = "0.1.0"
