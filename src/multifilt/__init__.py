"""Exact computation with multi-filtered representations.

The package ties together four strands: exact rational linear algebra,
finite decreasing filtrations and their graded-module counterparts,
concrete GL2 and GL2 x GL2 representation data with boundary-cocharacter
filtrations, and a Hom solver whose multiplicity tables are cross-checked
against an independent character-theoretic oracle.
"""

from .characters import (
    NegativeMultiplicity,
    NotDominant,
    character_product,
    coordinate_ring_character,
    decompose,
    oracle_multiplicity,
    sym_power_weights,
    weight_multiset,
)
from .filtration import (
    FilteredSpace,
    GradedVectorSpace,
    NotDecreasing,
    NotExhaustive,
    adapted_basis,
    associated_graded,
    is_filtration_morphism,
    make_filtered,
)
from .gl2 import (
    GroupActionData,
    H_STYLE_LIE_ONLY,
    H_STYLE_LIE_PLUS_ELEMENTS,
    RepData,
    clebsch_gordan,
    dual,
    external_rep,
    irrep_gl2,
    rep_from_label,
    stabilizer_action_binary_forms,
)
from .homspaces import (
    FiltObject,
    filt_object,
    grid_labels,
    hom_basis,
    hom_dim,
    multiplicity,
    multiplicity_table,
)
from .linalg import (
    AmbientMismatch,
    Mat,
    Subspace,
    kernel,
    rank,
    rref,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from .rees import GradedFreeModule, RankDeficient, derees, fiber_at_zero, rees_construct
from .varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    VarietySpec,
    builtin_variety,
    cocharacter_filtration,
    custom_variety,
    pairing,
)

__version__ = "0.1.0"
