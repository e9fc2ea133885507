"""Exact symbolic engine for associated polynomials along extremal-weight
paths, tensor-product cyclicity sets, and ordered Weyl-module products."""

from .exact import A, GaussianRational, ParamPoly, UniPoly
from .rootsystem import (
    BUILTIN_ALGEBRAS,
    CartanData,
    InputError,
    InvalidCartanError,
    PathExponents,
    builtin_cartan,
    lowest_weight,
    path_exponents,
    positive_roots,
    validate_cartan,
    weyl_dim,
    weyl_longest,
    weyl_order,
)
from .sl2 import (
    check_relations,
    extremal_series_check,
    series_exp,
    series_from_poly_ratio,
    series_log,
    series_rescale,
    symmetrized_insertion_check,
)
from .walk import (
    CrosscheckError,
    StepRecord,
    WalkReport,
    WalkState,
    apply_step,
    init_walk,
    run_walk,
)
from .cyclicity import (
    CyclicityReport,
    DimensionReport,
    SSet,
    TSet,
    TensorFactor,
    WeylModuleSpec,
    build_ordered_product,
    check_cyclicity,
    compute_s_sets,
    compute_t_sets,
    dimension_bound,
    format_root,
    q_exponent_image,
)

__version__ = "0.1.0"
