"""Exact computer algebra for the sl2 deformation family over the projective line.

The package computes, in exact Gaussian-rational arithmetic: PBW normal
forms and Harish-Chandra projections in the enveloping algebra, sections
of the family of algebras over the two charts of the projective line,
the classification of algebraic families of Harish-Chandra modules, the
composition factors of every fiber with the closed-form distinguished
quotient, and the level-affine bijections between the admissible duals
of the generic fiber and of the motion-group fiber at infinity.
"""

from types import ModuleType as _ModuleType

from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Laurent,
    Poly,
    has_gaussian_sqrt,
    rational_sqrt,
    scalar_to_json,
)
from .pbw import (
    COMPACT,
    SPLIT,
    Sl2Basis,
    UEAElement,
    casimir,
    change_basis,
    hc_projection,
    k_order,
    normal_multiply,
)
from .sheaf import (
    CHART_FINITE,
    CHART_INFINITY,
    CartanSection,
    FamilySection,
    NotCentralError,
    ProjectivePoint,
    casimir_section,
    center_decompose,
    center_membership,
    gamma_family,
    section_from_constant,
    to_finite_chart,
    to_infinity_chart,
)
from .families import (
    FamilyValidationError,
    InfChar,
    KTypeSet,
    LadderAction,
    ModuleFamily,
    family_from_json,
    in_tilde_class,
    infinitesimal_character,
    intertwiner_exists,
    ktypes_at,
    ladder_action,
    make_family,
    pinned_level,
    wall_index,
)
from .fibers import (
    Decomposition,
    DualParam,
    Factor,
    FiberModule,
    ReducibilityLocus,
    WallRecord,
    composition_factors,
    dual_ktypes,
    evaluate_fiber,
    factor_containing_m,
    is_reducible,
    jantzen_quotient_formula,
    reducibility_points,
    vogan_level,
)
from .duals import (
    CharacterizationResult,
    characterize_bijections,
    dual_classes,
    eta,
    eta_inverse,
    is_tempered,
    params_equivalent,
    verify_conjecture1,
    vogan_map,
)

__version__ = "0.1.0"

# every public name imported above (the submodules aside), plus the version
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
