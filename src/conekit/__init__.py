"""conekit: conic integral geometry, condition numbers, and recovery bounds.

Closed convex cones with exact or iterative projections, Monte Carlo
estimators of intrinsic volumes and statistical dimensions, restricted
singular values and Renegar-style condition numbers, rotation-invariance
identity checks, subdifferential cones of l1-type regularizers, and the
condition-number bounds that tie these together for linear inverse
problems.
"""

__version__ = "0.1.0"

from .cones import (
    Cone,
    GeneratorCone,
    InequalityCone,
    IntersectionCone,
    L1SubdiffCone,
    LinearImage,
    NonnegOrthant,
    PolarCone,
    ProductCone,
    ProjectionResult,
    Subspace,
    cone_from_dict,
    full_space,
    generators_of,
    intersect,
    linear_image,
    polar,
    preimage_cone,
    project,
    rotate,
    zero_cone,
)
from .numerics import (
    SeededStream,
    gaussian_vector,
    haar_orthogonal,
    row_projection,
)
from .statdim import (
    Estimate,
    IVProfile,
    a_eta,
    concentration_bound,
    descent_statdim_l1,
    estimate_intrinsic_volumes,
    estimate_moment,
    estimate_statdim,
    estimate_width,
    stojnic_recipe_l1,
    tails,
)
from .condition import (
    ConditionReport,
    Feasibility,
    GordonReport,
    RestrictedValue,
    classify_feasibility,
    condition_report,
    empirical_gordon_check,
    gordon_kappa_bound,
    kappa_bar,
    min_perturbation_to_primal,
    renegar,
    renegar_single,
    restricted_norm,
    restricted_sv,
)
from .integral_geometry import (
    CroftonReport,
    IDENTITY_SUITES,
    IdentityCheckReport,
    crofton_probability,
    eta_for_projection_margin,
    projected_statdim,
    run_identity_suite,
    verify_kinematic,
    verify_projection_formula,
    verify_tqc,
)
from .regularizers import (
    AnalysisInstance,
    TVSpectrum,
    analysis_subdiff_cone,
    build_BC_matrices,
    descent_statdim_analysis,
    finite_difference_matrix,
    reduced_analysis_cone,
    reduced_subdiff_cone,
    tv_singular_values,
)
from .bounds import (
    BoundReport,
    EdgeWindow,
    ThresholdReport,
    admissible_projection,
    analysis_statdim_bound,
    difference_gordon_limit,
    edge_thresholds,
    interpolation_bound,
    l1_analysis_threshold,
    min_admissible_m,
    optimal_m_search,
    projected_condition_bound,
    sandwich_bounds,
)
from .solvers import (
    LPResult,
    LPStandardForm,
    PhaseRow,
    RecoveryOutcome,
    crossing_from_rows,
    golden_section_min,
    lp_solve_standard,
    nnls,
    phase_transition_experiment,
    recover,
    solve_bp_analysis,
    wilson_interval,
)
