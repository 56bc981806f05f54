"""Out-sample estimation of extreme directional multivariate quantiles.

The pipeline rotates a sample into the coordinate frame of a chosen
direction, fits heavy-tail marginals on the rotated data, estimates the
empirical tail dependence radius over an angular grid, extrapolates
quantile points beyond the sample range and rotates them back.
"""

from .bootstrap import (
    KSelection,
    convergence_rate,
    optimal_k_for_size,
    select_k,
)
from .errors import (
    DataError,
    DegenerateModelError,
    DegenerateMomentsError,
    DirquantError,
    FactorizationError,
    HeavyTailError,
    InvalidDirectionError,
    InversionError,
    NumericalError,
    PositivityError,
    ResamplingError,
    UnsupportedDimensionError,
)
from .evt import (
    TailFit,
    fit_tails,
    gamma_moment,
    joint_gamma,
    log_moment,
    norm_sequences,
)
from .geometry import (
    Direction,
    RotationMatrix,
    diagonal_direction,
    qr_positive_diag,
    rotate,
    rotation_for,
)
from .quantile import (
    DirectionalFit,
    OutlierFlags,
    QuantileSurface,
    ThetaGrid,
    estimate_surface,
    fit_direction,
    flag_outliers,
    quantile_point,
    shift_surface,
    tail_levels,
    theta_grid,
)
from .stdf import StdfContext, rho_hat_batch
from .tmodel import (
    ModelFit,
    TParams,
    asymptotic_quantile,
    fpc_direction,
    relative_error,
    rotate_elliptical,
    sample_t,
    t_cdf,
    t_stdf,
    theoretical_norm_sequences,
    theoretical_rho,
)

__version__ = "0.1.0"

__all__ = [
    "Direction", "RotationMatrix", "diagonal_direction", "qr_positive_diag",
    "rotation_for", "rotate",
    "TailFit", "log_moment", "gamma_moment", "joint_gamma", "norm_sequences",
    "fit_tails",
    "StdfContext", "rho_hat_batch",
    "ThetaGrid", "theta_grid", "quantile_point", "QuantileSurface",
    "DirectionalFit", "fit_direction", "estimate_surface", "shift_surface",
    "tail_levels", "flag_outliers", "OutlierFlags",
    "KSelection", "optimal_k_for_size", "convergence_rate", "select_k",
    "TParams", "sample_t", "rotate_elliptical", "fpc_direction", "t_cdf", "t_stdf",
    "theoretical_rho", "theoretical_norm_sequences", "asymptotic_quantile",
    "ModelFit", "relative_error",
    "DirquantError", "DataError", "NumericalError", "InvalidDirectionError",
    "PositivityError", "HeavyTailError", "DegenerateMomentsError",
    "DegenerateModelError", "UnsupportedDimensionError", "ResamplingError",
    "FactorizationError", "InversionError",
    "__version__",
]
