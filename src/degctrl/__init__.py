"""Null-control synthesis for 1-D degenerate parabolic equations with a
nonlocal diffusion factor, plus empirical verification of the weighted
inequalities the construction rests on."""

from .coeffs import (
    DegeneracyCoefficient,
    NonlocalFactor,
    ProblemData,
    SemilinearTerm,
    eval_b,
    linearized_potential,
    power_coefficient,
    power_cosine_coefficient,
    tabulated_coefficient,
    validate_degeneracy,
)
from .config import ExperimentConfig, load_config, parse_config
from .errors import (
    AdmissibilityFail,
    ConfigError,
    DegctrlError,
    NewtonDivergence,
    NonFiniteTrajectory,
    NonMonotone,
    NotVanishing,
    PicardDivergence,
    WeakDegeneracyViolated,
    ZeroDenominator,
)
from .grid import (
    SpaceTimeGrid,
    build_grid,
    duality_pairing,
    integrate_space,
    integrate_spacetime_logweight,
)
from .hum import (
    LinearControlProblem,
    NullControlResult,
    PenaltySchedule,
    StageDiagnostics,
    build_stage,
    grad_Jn,
    minimize_Jn,
    solve_null_control,
    terminal_l2,
)
from .newton import NewtonState, local_null_control, residual_source
from .pde import (
    DegenerateOperator,
    adjoint_solve,
    apply_operator,
    assemble_degenerate_operator,
    forward_solve_linear,
    forward_solve_nonlinear,
    h1a_norm_sq,
)
from .verify import (
    InequalityReport,
    bilinear_bound_check,
    carleman_check,
    e_norm,
    energy_estimate_ratio,
    hardy_poincare_ratio,
    load_golden_caps,
    nonlocal_sup_bound,
    random_profile,
    random_smooth_field,
    run_verifications,
)
from .weights import (
    CarlemanParams,
    PsiFunction,
    WeightFields,
    build_psi,
    build_truncated_fields,
    build_weight_fields,
    default_omega_prime,
    eval_m,
)

__version__ = "0.1.0"
