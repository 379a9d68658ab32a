"""Degrees of freedom and search cost of adaptive regression procedures.

The package measures model complexity two ways and keeps them in
agreement: exact closed forms for orthogonal designs, and Monte Carlo
covariance estimates that work for any design.  The difference between a
procedure's df and that of the least-squares refit on its selected
variables is the search cost (sdf), the price paid for choosing the
active set from the data.

Layout:

- ``model``      designs, signals, seeded RNG streams
- ``closedform`` exact df/sdf curves for thresholding-type procedures
- ``fitters``    lasso, best subset, relaxed lasso, ridge, thresholding
- ``montecarlo`` unbiased df/sdf/optimism estimates with jackknife SEs
- ``stein``      discontinuity scanning and the two-term df decomposition
- ``cli``        the ``dfsearch`` command (curves, simulate, stein-check)
"""

from .closedform import (
    CurvePoint,
    df_hard_threshold,
    df_relaxed_lasso_orthogonal,
    df_subset_orthogonal,
    expected_active_hard,
    normal_cdf,
    normal_pdf,
    sdf_dense,
    sdf_null,
    sdf_sparse,
    threshold_for_expected_active,
    truncated_moments,
)
from .errors import CapacityError, ConfigError, NumericalError
from .fitters import (
    KINDS,
    SUBSET_PLAN_MAX_BYTES,
    BatchFit,
    FitOutput,
    FitProcedure,
    best_subset_solve,
    fit_path,
    hard_threshold,
    lasso_kkt_residual,
    lasso_solve,
    least_squares_on_support,
    refit_on_active_sets,
    relaxed_lasso_fit,
    ridge_fit,
    soft_threshold,
)
from .model import (
    DesignMatrix,
    RngSpec,
    SignalSpec,
    gen_block_design,
    gen_orthogonal_design,
    sample_response,
)
from .montecarlo import (
    CurveRow,
    CurveTable,
    DfEstimate,
    ExperimentGrid,
    OptimismEstimate,
    draw_responses,
    estimate_df,
    estimate_excess_df,
    estimate_optimism,
    estimate_sdf,
    run_grid,
)
from .stein import (
    JumpRecord,
    JumpViolation,
    PiecewiseScalarFunction,
    SteinDecomposition,
    check_jump_positivity,
    clipped_linear_function,
    constant_function,
    function_library,
    hard_threshold_function,
    identity_function,
    scan_discontinuities,
    sign_function,
    soft_threshold_function,
    stein_decompose_df,
    stein_lhs_univariate,
    stein_rhs_univariate,
    step_function,
    verify_stein_univariate,
)
from .svgplot import svg_plot

__version__ = "0.1.0"

__all__ = [
    "BatchFit",
    "CapacityError",
    "ConfigError",
    "CurvePoint",
    "CurveRow",
    "CurveTable",
    "DesignMatrix",
    "DfEstimate",
    "ExperimentGrid",
    "FitOutput",
    "FitProcedure",
    "JumpRecord",
    "JumpViolation",
    "KINDS",
    "NumericalError",
    "OptimismEstimate",
    "PiecewiseScalarFunction",
    "RngSpec",
    "SUBSET_PLAN_MAX_BYTES",
    "SignalSpec",
    "SteinDecomposition",
    "best_subset_solve",
    "check_jump_positivity",
    "clipped_linear_function",
    "constant_function",
    "df_hard_threshold",
    "df_relaxed_lasso_orthogonal",
    "df_subset_orthogonal",
    "draw_responses",
    "estimate_df",
    "estimate_excess_df",
    "estimate_optimism",
    "estimate_sdf",
    "expected_active_hard",
    "fit_path",
    "function_library",
    "gen_block_design",
    "gen_orthogonal_design",
    "hard_threshold",
    "hard_threshold_function",
    "identity_function",
    "lasso_kkt_residual",
    "lasso_solve",
    "least_squares_on_support",
    "normal_cdf",
    "normal_pdf",
    "refit_on_active_sets",
    "relaxed_lasso_fit",
    "ridge_fit",
    "run_grid",
    "sample_response",
    "scan_discontinuities",
    "sdf_dense",
    "sdf_null",
    "sdf_sparse",
    "sign_function",
    "soft_threshold",
    "soft_threshold_function",
    "stein_decompose_df",
    "stein_lhs_univariate",
    "stein_rhs_univariate",
    "step_function",
    "svg_plot",
    "threshold_for_expected_active",
    "truncated_moments",
    "verify_stein_univariate",
]
