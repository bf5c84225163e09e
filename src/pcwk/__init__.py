"""Optimal and minimax-robust linear estimation for periodically correlated
processes, via harmonic lifting to vector stationary sequences."""

from .errors import (
    AliasingError,
    FactorizationError,
    IllPosedError,
    InfeasibleClassError,
    MinimalityError,
    MultiplicityError,
    PcwkError,
    SingularFactorError,
    TruncationError,
)
from .estimators import (
    EstimateSolution,
    build_block_matrix,
    evaluate_mse,
    extrapolate,
    filtering,
    forbidden_lag_residual,
    forbidden_lags,
    functional_symbol,
    interpolate,
)
from .factorization import (
    Factorization,
    extrapolate_factorized,
    left_inverse,
    spectral_factorize,
)
from .lifting import (
    FunctionalWeights,
    LiftConfig,
    check_weight_summability,
    compute_weights,
    conjugate_pair_permutation,
    frequency_index,
    reconstruct_pc,
)
from .minimax import (
    LeastFavorableResult,
    filtering_relation_residuals,
    least_favorable_class_y,
    least_favorable_d01_extrapolation,
    least_favorable_d0eps_filtering_scalar,
    least_favorable_dm_interpolation,
    saddle_point_check,
    sample_d01_class,
    sample_d0eps_class,
    sample_dm_class,
    sample_power_class,
)
from .oracle import (
    CovarianceTable,
    compare_report,
    covariances_from_density,
    empirical_mse,
    simulate_sequence,
    time_domain_projection_converged,
)
from .spectral import (
    SpectralDensity,
    check_minimality,
    fourier_coefficients,
    frequency_grid,
    read_density_csv,
    validate_density,
    write_density_csv,
)

__version__ = "0.1.0"
