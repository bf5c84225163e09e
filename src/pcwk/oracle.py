"""Independent time-domain verification of the spectral-domain solvers.

Everything here works from lag covariances and finite linear algebra, with
no shared machinery beyond the Fourier coefficients of the input densities
and the section Cholesky factor of :mod:`pcwk.cholesky`: the projection
oracle assembles the covariance of finite observation windows and solves
their normal equations, and the simulator drives a moving average with
seeded Gaussian innovations. Agreement between these values and the
spectral formulas is the package's main correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .cholesky import SectionFactor, forward
from .errors import IllPosedError
from .lifting import FunctionalWeights, _shared_dim
from .spectral import SpectralDensity, _admit_lag, check_minimality

if TYPE_CHECKING:  # the factorization module imports the spectral solvers
    from .factorization import Factorization

MAX_WINDOW = 512

__all__ = [
    "CovarianceTable",
    "covariances_from_density",
    "observation_indices",
    "time_domain_projection_converged",
    "simulate_sequence",
    "empirical_mse",
    "compare_report",
    "OracleProjection",
    "ComparisonReport",
]


@dataclass(frozen=True)
class CovarianceTable:
    """Lag covariances C(j) = E[x_{l+j} x_l^H] for |j| <= max_lag."""

    values: np.ndarray = field(repr=False)  # (2 L + 1, K, K), lag j at index j + L

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] % 2 != 1 or arr.shape[1] != arr.shape[2]:
            raise ValueError("values must have shape (2 L + 1, K, K)")
        object.__setattr__(self, "values", arr)

    @property
    def max_lag(self) -> int:
        return self.values.shape[0] // 2

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def cov(self, j: int) -> np.ndarray:
        if abs(j) > self.max_lag:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.values[j + self.max_lag]


def covariances_from_density(f: SpectralDensity, max_lag: int) -> CovarianceTable:
    """Covariances of the sequence with density f, up to ``max_lag``.

    C(j) is the Fourier coefficient of f at lag -j (the e^{+i j lambda}
    moment), read from the density's coefficient array; lags beyond the
    stored band are zero.
    """
    _admit_lag(max_lag, f.grid_size, name="max_lag")
    L, n = f.max_lag, min(max_lag, f.max_lag)
    vals = np.zeros((2 * max_lag + 1, f.dim, f.dim), dtype=complex)
    # C(j) = F(-j): the reversed coefficient array holds it at index j + L
    vals[max_lag - n : max_lag + n + 1] = f.coeffs[::-1][L - n : L + n + 1]
    return CovarianceTable(values=vals)


def observation_indices(task: str, n: int, window: int) -> list[int]:
    """Observed block indices for a task, truncated to ``window`` blocks.

    Interpolation observes both sides of the gap 0..n; extrapolation the
    past; filtering the past including the present block.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if task == "interpolation":
        return list(range(-window, 0)) + list(range(n + 1, n + 1 + window))
    if task in ("extrapolation", "extrapolation_finite"):
        return list(range(-window, 0))
    if task == "filtering":
        return list(range(-window, 1))
    raise ValueError(f"unknown task {task!r}")


def _at_lags(values: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Covariance blocks of a (2 L + 1, K, K) table at integer lags.

    Returns shape ``lags.shape + (K, K)``. Every lag must lie within the
    table: callers size it so that no block read is beyond ``max_lag``, where
    :meth:`CovarianceTable.cov` would read zero.
    """
    L = values.shape[0] // 2
    assert np.abs(lags).max(initial=0) <= L, "lag beyond the covariance table"
    return values[lags + L]


def _table_span(weights: FunctionalWeights, window: int) -> int:
    """Largest lag of the covariance tables a projection onto ``window`` reads."""
    obs = observation_indices(weights.horizon, weights.n, window)
    return obs[-1] - obs[0] + weights.n_blocks + 1


def _admit_window(weights: FunctionalWeights, initial_window: int,
                  grid_size: int) -> int:
    """The largest window whose covariance tables the grid resolves, once the
    initial window is admitted.

    The initial window must be at least 1 (ValueError), and its tables'
    span a lag the grid resolves: ``spectral._admit_lag`` admits it against
    the largest such window. The span grows linearly with the window: by
    one lag per block for the one-sided observation sets, by two for
    interpolation's two sides.
    """
    if initial_window < 1:  # a zero window would double forever
        raise ValueError("initial_window must be >= 1")
    base = _table_span(weights, 1)
    slope = _table_span(weights, 2) - base
    largest = 1 + (grid_size // 2 - 1 - base) // slope
    _admit_lag(initial_window, grid_size, largest=largest, name="initial_window")
    return largest


@dataclass(frozen=True)
class OracleProjection:
    """Residual variance of the projection onto one observation window.

    ``condition`` is the gate's ``max_condition``, the ratio of the extreme
    eigenvalues of f + g on the grid: the same for every window, and a bound
    on the 2-norm condition number of each window's covariance. ``converged``
    is False for a last window that did not pass the Cauchy test.
    """

    mse: float
    window: int
    n_observations: int
    condition: float
    converged: bool = True


def _tables(f, g, weights, window):
    """Lag covariances of the signal and of the observations for ``window``."""
    span = _table_span(weights, window)
    cz = covariances_from_density(f, span).values
    cx = cz if g is None else cz + covariances_from_density(g, span).values
    return cz, cx


def _covariance_block(cx, rows, cols):
    """Covariance of the observed blocks ``rows`` with ``cols``, as a matrix."""
    K = cx.shape[1]
    block = _at_lags(cx, np.subtract.outer(rows, cols))
    return block.transpose(0, 2, 1, 3).reshape(rows.size * K, cols.size * K)


def _cross(cz, obs, weights):
    """Covariance of the observed blocks ``obs`` with the target functional."""
    sign = -1 if weights.horizon == "filtering" else 1
    j = np.arange(weights.n_blocks)
    return np.einsum(
        "ljkm,jm->lk",
        _at_lags(cz, np.subtract.outer(obs, sign * j)),
        weights.blocks.conj(),
    ).reshape(-1)


def _variance(cz, weights):
    """Variance of the target functional."""
    sign = -1 if weights.horizon == "filtering" else 1
    j = np.arange(weights.n_blocks)
    return np.einsum(
        "jk,jikm,im->",
        weights.blocks,
        _at_lags(cz, sign * np.subtract.outer(j, j)),
        weights.blocks.conj(),
    )


def _nearest_first(task: str, n: int, window: int) -> np.ndarray:
    """The observed block indices of a window, nearest the target first.

    The order is -1, n+1, -2, n+2, ... for interpolation, -1, -2, ... for
    extrapolation and 0, -1, ... for filtering, so the observations of each
    window are a prefix of those of any larger one.
    """
    obs = np.array(observation_indices(task, n, window))
    distance = np.where(obs <= 0, -obs, obs - n)
    return obs[np.lexsort((obs > 0, distance))]


def time_domain_projection_converged(
    f: SpectralDensity,
    g: SpectralDensity | None,
    weights: FunctionalWeights,
    initial_window: int = 8,
    rel_tol: float = 1e-7,
    max_window: int = MAX_WINDOW,
) -> tuple[OracleProjection, list[OracleProjection]]:
    """Double the window until the projection error stabilises.

    Returns the last projection and every projection tried. The window
    grows up to ``max_window`` or the largest window whose lag covariances
    the grid resolves, whichever is smaller; the first window whose value
    is within ``rel_tol * max(1, |mse|)`` of the previous window's is
    returned. When the largest window gets there first, it is returned with
    ``converged=False``. ``initial_window = max_window = W`` projects onto
    the one window W, which has no Cauchy test and so reads
    ``converged=False``. An initial window beyond the largest the grid
    resolves raises ``AliasingError`` (:func:`_admit_window`).

    Each window's value is its projection error, computed by the
    innovations algorithm (Brockwell & Davis 1991, *Time Series: Theory and
    Methods*, sections 5.2 and 11.4). The observations are ordered nearest
    the target first, so each window's covariance is the leading section of
    the largest window's: one ``cholesky.SectionFactor`` grows the lower
    Cholesky factor L of that covariance, each window gathering and
    factoring only the chunks of rows its predecessors did not store, and
    the error of a window is the target's variance minus ||L^{-1} cross||^2
    over its prefix.

    The gate is ``check_minimality(f, g)``, the solvers' own, computed
    once: the call raises ``IllPosedError`` when f + g fails it. A window
    whose lag span is below G/2 has a covariance that is a principal
    submatrix of the block circulant of the coefficient table, whose
    eigenvalues are those of f + g at the G nodes, so by Cauchy interlacing
    the gate's ``max_condition``, each projection's ``condition``, bounds
    the condition number of every window's covariance.
    """
    K = _shared_dim(weights, f, g)
    task, n = weights.horizon, weights.n
    largest = min(max_window, _admit_window(weights, initial_window, f.grid_size))
    windows = [initial_window]
    while windows[-1] < largest:
        windows.append(min(2 * windows[-1], largest))
    obs = _nearest_first(task, n, windows[-1])
    cz, cx = _tables(f, g, weights, windows[-1])
    report = check_minimality(f, g)
    if not report.passed:
        raise IllPosedError(
            "observation covariance symbol is singular on the grid; "
            "regularization refused"
        )
    variance = _variance(cz, weights)
    if not cx.imag.any():  # a real factor costs a quarter of a complex one
        cx = cx.real

    history: list[OracleProjection] = []
    section = SectionFactor()
    cross = _cross(cz, obs, weights)

    def rows(i, j):  # covariance rows i..j-1 through column j, gathered by blocks
        lo, hi = i // K, -(-j // K)
        return _covariance_block(cx, obs[lo:hi], obs[:hi])[i - lo * K : j - lo * K, :j]

    for window in windows:
        count = len(observation_indices(task, n, window))
        strips = section.strips(count * K, rows, "time-domain oracle")
        y = forward(strips, cross[: count * K])
        mse = float((variance - np.vdot(y, y)).real)
        current = OracleProjection(
            mse=max(mse, 0.0),
            window=window,
            n_observations=count * K,
            condition=report.max_condition,
        )
        history.append(current)
        if len(history) > 1 and abs(current.mse - history[-2].mse) <= rel_tol * max(
            1.0, abs(current.mse)
        ):
            return current, history
    history[-1] = replace(current, converged=False)
    return history[-1], history


def simulate_sequence(fact: Factorization, n_blocks: int, seed: int) -> np.ndarray:
    """Simulate lifted blocks of the moving average defined by a factor.

    Drives z_j = sum_u d(u) eps_{j-u} with independent standard Gaussian
    innovations from a PCG64 generator seeded with ``seed``; the warm-up
    needed to cover the factor order is generated and discarded. Returns an
    (n_blocks, K) array (complex when the taps are complex).
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    rng = np.random.default_rng(seed)
    order = fact.order
    K, M = fact.dim, fact.multiplicity
    eps = rng.standard_normal((n_blocks + order, M))
    out = np.zeros((n_blocks, K), dtype=complex)
    for u in range(order + 1):
        tap = fact.coeffs[u]
        segment = eps[order - u : order - u + n_blocks]
        out += segment @ tap.T
    return out


@dataclass(frozen=True)
class EmpiricalMse:
    value: float
    half_width_99: float
    n_samples: int


def empirical_mse(
    solution,
    weights: FunctionalWeights,
    signal_factor: Factorization,
    noise_factor: Factorization | None = None,
    n_blocks: int = 100_000,
    seed: int = 0,
) -> EmpiricalMse:
    """Monte-Carlo check of a solution's error on simulated paths.

    Applies the solution's time-domain coefficients to a simulated path
    (signal plus optional noise), forms the realized functional errors, and
    returns their mean square with a 99% batch-means half width.
    Coefficients below 1e-12 of the largest one are dropped.
    """
    task = weights.horizon
    lags = np.asarray(solution.h_lags)
    coeffs = np.asarray(solution.h_coeffs)
    norms = np.linalg.norm(coeffs, axis=1)
    keep = norms > 1e-12 * max(norms.max(initial=0.0), 1e-300)
    lags, coeffs = lags[keep], coeffs[keep]
    zeta = simulate_sequence(signal_factor, n_blocks, seed)
    x = zeta.copy()
    if noise_factor is not None:
        x += simulate_sequence(noise_factor, n_blocks, seed + 1)
    blocks = weights.blocks
    n_a = blocks.shape[0]
    sign = -1 if task == "filtering" else 1
    lo = min(int(lags.min(initial=0)), min(0, sign * (n_a - 1)))
    hi = max(int(lags.max(initial=0)), max(0, sign * (n_a - 1)))
    positions = np.arange(-lo, n_blocks - hi)
    if positions.size < 100:
        raise ValueError("path too short for the solution's coefficient span")
    target = np.zeros(positions.size, dtype=complex)
    for j in range(n_a):
        target += zeta[positions + sign * j] @ blocks[j]
    estimate = np.zeros(positions.size, dtype=complex)
    for lag, hbar in zip(lags, coeffs):
        estimate += x[positions + lag] @ hbar
    err2 = np.abs(target - estimate) ** 2
    value = float(err2.mean())
    batch = 200
    nb = err2.size // batch
    means = err2[: nb * batch].reshape(nb, batch).mean(axis=1)
    half = 2.576 * float(means.std(ddof=1)) / np.sqrt(nb)
    return EmpiricalMse(value=value, half_width_99=half, n_samples=int(err2.size))


@dataclass(frozen=True)
class ComparisonReport:
    spectral_mse: float
    oracle_mse: float
    abs_diff: float
    rel_diff: float
    tolerance: float
    passed: bool


def compare_report(
    spectral_mse: float, oracle_mse: float, tolerance: float = 1e-5
) -> ComparisonReport:
    """Relative comparison of a spectral error value against the oracle."""
    abs_diff = abs(spectral_mse - oracle_mse)
    rel_diff = abs_diff / max(abs(spectral_mse), 1e-300)
    return ComparisonReport(
        spectral_mse=float(spectral_mse),
        oracle_mse=float(oracle_mse),
        abs_diff=float(abs_diff),
        rel_diff=float(rel_diff),
        tolerance=float(tolerance),
        passed=bool(rel_diff <= tolerance),
    )
