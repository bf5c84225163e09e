"""Optimal linear estimation for lifted vector sequences, spectral domain.

Given the signal density f and (optionally) an uncorrelated noise density g,
each task finds the spectral characteristic h of the best linear estimate of
a weighted functional of the signal, under the observation pattern implied
by the task:

* interpolation: blocks 0..n unobserved, everything else observed with noise;
* extrapolation: the functional runs over blocks >= 0, only past blocks
  (j < 0) are observed;
* filtering: the functional runs over blocks <= 0, blocks j <= 0 are
  observed with noise.

The solvers assemble block matrices whose (r, c) entry is the Fourier
coefficient of a density kernel (transposed inside the integral, which is
what the component pairing of the lifted basis produces), solve one
Hermitian system for the unknown coefficient blocks, and report both the
spectral characteristic on the grid and the mean square error. Infinite
systems are truncated and the truncation is doubled until the error value
stabilises.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import IllPosedError, MinimalityError, TruncationError
from .lifting import FunctionalWeights, check_weight_summability
from .spectral import (
    DEFAULT_COND_THRESHOLD,
    GridMatrixFunction,
    SpectralDensity,
    _all_fourier_coefficients,
    check_minimality,
    density_values,
    frequency_grid,
)

__all__ = [
    "BLOCK_KINDS",
    "BlockMatrix",
    "EstimateSolution",
    "build_block_matrix",
    "interpolate",
    "interpolate_noiseless",
    "extrapolate",
    "extrapolate_noiseless",
    "filtering",
    "evaluate_mse",
    "functional_symbol",
    "forbidden_lags",
    "forbidden_lag_residual",
]

BLOCK_KINDS = ("B", "D", "R", "U", "V", "W")

MSE_CAUCHY_TOL = 1e-8
FORBIDDEN_LAG_TOL = 1e-8


# -- block matrices -----------------------------------------------------


@dataclass(frozen=True)
class BlockMatrix:
    """A block matrix of Fourier coefficients of a density kernel.

    ``blocks[i, j]`` is the K x K block for row index ``row_range[i]`` and
    column index ``col_range[j]``; ``dense`` flattens them into an ordinary
    matrix.
    """

    kind: str
    blocks: np.ndarray = field(repr=False)
    row_range: tuple[int, ...]
    col_range: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.blocks.shape[2]

    @property
    def dense(self) -> np.ndarray:
        r, c, k, _ = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(r * k, c * k)


def _kernel_values(kind, fv, gv):
    """Grid values of the density kernel belonging to a block kind."""
    if gv is None:
        total = fv
    else:
        total = fv + gv
    inv = np.linalg.inv(total)
    if kind in ("B", "U"):
        return inv
    if kind in ("D", "V"):
        return fv @ inv
    if kind in ("R", "W"):
        if gv is None:
            return np.zeros_like(fv)
        return fv @ inv @ gv
    raise ValueError(f"unknown block kind {kind!r}; expected one of {BLOCK_KINDS}")


def build_block_matrix(
    kind: str,
    f: SpectralDensity | GridMatrixFunction,
    g: SpectralDensity | GridMatrixFunction | None,
    rows: Iterable[int],
    cols: Iterable[int],
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
    check: bool = True,
) -> BlockMatrix:
    """Assemble one of the estimation block matrices.

    Kinds B, D, R and U place the kernel coefficient at lag ``row - col``
    (block-Toeplitz); kind V places it at lag ``row + col`` (block-Hankel);
    kind W at lag ``col - row``, the orientation of the backward-running
    functional it weights (the transposed-kernel variant at ``row - col``
    agrees only when the densities commute, and fails the projection
    oracle for coupled ones). The kernels are, in order: the inverse of
    f+g (B and U), f (f+g)^{-1} (D and V) and f (f+g)^{-1} g (R and W),
    each transposed pointwise before the Fourier coefficients are taken.
    With g absent the inverse kernel is built from f alone.
    """
    if kind not in BLOCK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}; expected one of {BLOCK_KINDS}")
    rows = tuple(int(r) for r in rows)
    cols = tuple(int(c) for c in cols)
    if not rows or not cols:
        raise ValueError("row and column ranges must be non-empty")
    if check:
        report = check_minimality(f, g, cond_threshold=cond_threshold)
        if not report.passed:
            raise MinimalityError(
                "minimality condition violated: observed density is singular near "
                f"lambda = {report.worst_node:.6f} "
                f"(grid condition {report.max_condition:.3e})"
            )
    fv = density_values(f)
    gv = None if g is None else density_values(g)
    kernel = np.transpose(_kernel_values(kind, fv, gv), (0, 2, 1))
    table = _all_fourier_coefficients(kernel)
    G = f.grid_size
    if kind == "V":
        lag = np.add.outer(rows, cols)
    elif kind == "W":
        lag = -np.subtract.outer(rows, cols)
    else:
        lag = np.subtract.outer(rows, cols)
    if np.abs(lag).max() >= G // 2:
        raise TruncationError(
            f"requested block lags exceed the grid resolution (G = {G})"
        )
    blocks = table[lag % G]
    return BlockMatrix(kind=kind, blocks=blocks, row_range=rows, col_range=cols)


@functools.lru_cache(maxsize=None)
def _pocon(dtype):
    (pocon,) = scipy.linalg.lapack.get_lapack_funcs(("pocon",), dtype=dtype)
    return pocon


def _solve_hermitian(matrix, rhs, cond_threshold, context, indefinite=IllPosedError):
    """Solve a Hermitian positive definite system through one Cholesky factor.

    The factor gives the solution, one refinement step and the condition
    estimate ``cond = 1/rcond`` of LAPACK ``?pocon``: Higham's estimate of
    the 1-norm condition number. The gate refuses the system
    (``IllPosedError``) when that estimate is not finite or exceeds
    ``cond_threshold``, and raises ``indefinite`` when the Cholesky
    factorization fails, since an indefinite system has no estimate to
    return.

    The 1-norm gate is no looser than the former 2-norm one (largest over
    smallest |eigenvalue|): for Hermitian A, kappa_2(A) <= kappa_1(A). For
    the estimator systems there is also an exact bound from the grid. Their
    blocks are DFT coefficients of the kernel (f+g)^{-1} (f^{-1} without
    noise), so each system is a principal submatrix of a block circulant
    whose eigenvalues are the kernel's eigenvalues on the grid. By
    interlacing, kappa_2 of the system is at most
    ``check_minimality(...).max_condition``, which every solver checks
    against ``cond_threshold`` before it solves.
    """
    if matrix.shape[0] == 0:
        return np.zeros_like(rhs), 1.0
    try:
        factor = scipy.linalg.cho_factor(matrix, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise indefinite(f"{context}: system is not positive definite ({exc})") from exc
    chol, lower = factor
    anorm = float(np.linalg.norm(matrix, 1))
    rcond, _ = _pocon(chol.dtype)(chol, anorm, uplo=b"L" if lower else b"U")
    cond = np.inf if rcond == 0.0 else 1.0 / rcond
    if not np.isfinite(cond) or cond > cond_threshold:
        raise IllPosedError(
            f"{context}: system condition number {cond:.3e} exceeds "
            f"threshold {cond_threshold:.1e}"
        )
    x = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    x = x + scipy.linalg.cho_solve(factor, rhs - matrix @ x, check_finite=False)
    return x, cond


# -- solutions -----------------------------------------------------------


@dataclass
class EstimateSolution:
    """Spectral characteristic, solved coefficients and mean square error.

    ``h_grid[g]`` is the K-vector h(e^{i lambda_g}); ``h_lags``/``h_coeffs``
    hold its Fourier coefficients for subspace checks; ``solved_blocks``
    are the coefficient blocks of the defining linear system (c or d).
    """

    task: str
    mse: float
    h_grid: np.ndarray = field(repr=False)
    h_lags: np.ndarray = field(repr=False)
    h_coeffs: np.ndarray = field(repr=False)
    solved_blocks: np.ndarray = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    @property
    def grid_size(self) -> int:
        return self.h_grid.shape[0]

    @property
    def dim(self) -> int:
        return self.h_grid.shape[1]


def functional_symbol(
    weights: FunctionalWeights, grid_size: int, task: str | None = None
) -> np.ndarray:
    """The weight polynomial A on the grid, as a (G, K) array.

    Interpolation and extrapolation weights enter at nonnegative powers of
    e^{i lambda}; filtering weights at nonpositive powers.
    """
    lam = frequency_grid(grid_size)
    sign = -1.0 if (task or weights.horizon) == "filtering" else 1.0
    j = np.arange(weights.n_blocks)
    phases = np.exp(1j * sign * np.outer(lam, j))  # (G, n_blocks)
    return phases @ weights.blocks


def _blocks_symbol(blocks: np.ndarray, first_index: int, grid_size: int) -> np.ndarray:
    """sum_j blocks[j] e^{i (first_index + j) lambda} on the grid, (G, K)."""
    lam = frequency_grid(grid_size)
    j = first_index + np.arange(blocks.shape[0])
    phases = np.exp(1j * np.outer(lam, j))
    return phases @ blocks


def _vector_coefficients(h_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients of a (G, K) grid vector for lags |m| <= G/4."""
    G = h_grid.shape[0]
    table = _all_fourier_coefficients(h_grid.reshape(G, -1, 1))[..., 0]
    half = G // 4
    lags = np.arange(-half, half + 1)
    return lags, table[lags % G]


def forbidden_lags(task: str, n: int, lags: np.ndarray) -> np.ndarray:
    """Boolean mask of the lags h must vanish on for the given task."""
    if task == "interpolation":
        return (lags >= 0) & (lags <= n)
    if task in ("extrapolation", "extrapolation_finite"):
        return lags >= 0
    if task == "filtering":
        return lags >= 1
    raise ValueError(f"unknown task {task!r}")


def forbidden_lag_residual(solution: EstimateSolution) -> float:
    """Largest normalized coefficient of h on the task's forbidden lag set.

    Normalized by the larger of the characteristic's own coefficient scale
    and the weight scale of the problem, so an identically zero h (plus
    round-off dust) is not misread as a subspace violation.
    """
    n = solution.diagnostics.get("n", solution.solved_blocks.shape[0] - 1)
    mask = forbidden_lags(solution.task, n, solution.h_lags)
    norms = np.linalg.norm(solution.h_coeffs, axis=1)
    scale = max(
        float(norms.max(initial=0.0)),
        solution.diagnostics.get("weight_scale", 0.0),
        1e-300,
    )
    return float(norms[mask].max(initial=0.0)) / scale


def _finish_solution(task, mse, h_grid, solved_blocks, diagnostics, weights=None):
    if weights is not None:
        diagnostics.setdefault(
            "weight_scale",
            float(np.linalg.norm(weights.blocks, axis=1).max(initial=0.0)),
        )
    lags, coeffs = _vector_coefficients(h_grid)
    sol = EstimateSolution(
        task=task,
        mse=float(mse),
        h_grid=h_grid,
        h_lags=lags,
        h_coeffs=coeffs,
        solved_blocks=solved_blocks,
        diagnostics=diagnostics,
    )
    diagnostics["forbidden_lag_residual"] = forbidden_lag_residual(sol)
    return sol


def _real_mse(value: complex) -> float:
    value = complex(value)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        warnings.warn(f"discarding imaginary part {value.imag:.3e} of an error value")
    return float(value.real)


# -- interpolation -------------------------------------------------------


def interpolate(
    f: SpectralDensity | GridMatrixFunction,
    g: SpectralDensity | GridMatrixFunction | None,
    weights: FunctionalWeights,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> EstimateSolution:
    """Best estimate of an interpolation functional from noisy observations.

    Blocks 0..n carry the functional and are unobserved; all other blocks
    of signal plus noise are observed. With ``g`` absent the noiseless
    variant is used. Returns the spectral characteristic, the solved
    coefficient blocks and the mean square error.
    """
    if g is None:
        return interpolate_noiseless(f, weights, cond_threshold=cond_threshold)
    if weights.horizon != "interpolation":
        raise ValueError("weights must carry the interpolation horizon")
    if weights.dim != f.dim or f.dim != g.dim:
        raise ValueError("weights and densities must share one dimension")
    n = weights.n
    rng = range(n + 1)
    B = build_block_matrix("B", f, g, rng, rng, cond_threshold)
    D = build_block_matrix("D", f, g, rng, rng, cond_threshold, check=False)
    R = build_block_matrix("R", f, g, rng, rng, cond_threshold, check=False)
    a = weights.stacked()
    c, cond = _solve_hermitian(B.dense, D.dense @ a, cond_threshold, "interpolation")
    mse = _real_mse(np.vdot(a, R.dense @ a) + np.vdot(c, B.dense @ c))

    G = f.grid_size
    fv = density_values(f)
    gv = density_values(g)
    inv = np.linalg.inv(fv + gv)
    A = functional_symbol(weights, G)
    C = _blocks_symbol(c.reshape(n + 1, f.dim), 0, G)
    h = np.einsum("gk,gkn->gn", A, fv) - C
    h = np.einsum("gk,gkn->gn", h, inv)
    return _finish_solution(
        "interpolation",
        mse,
        h,
        c.reshape(n + 1, f.dim),
        {"n": n, "condition": cond, "noisy": True},
        weights,
    )


def interpolate_noiseless(
    f: SpectralDensity | GridMatrixFunction,
    weights: FunctionalWeights,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> EstimateSolution:
    """Interpolation from exact (noise-free) observations of the signal."""
    if weights.horizon != "interpolation":
        raise ValueError("weights must carry the interpolation horizon")
    if weights.dim != f.dim:
        raise ValueError("weights and density must share one dimension")
    n = weights.n
    rng = range(n + 1)
    B = build_block_matrix("B", f, None, rng, rng, cond_threshold)
    a = weights.stacked()
    c, cond = _solve_hermitian(B.dense, a, cond_threshold, "interpolation")
    mse = _real_mse(np.vdot(a, c))

    G = f.grid_size
    finv = np.linalg.inv(density_values(f))
    A = functional_symbol(weights, G)
    C = _blocks_symbol(c.reshape(n + 1, f.dim), 0, G)
    h = A - np.einsum("gk,gkn->gn", C, finv)
    return _finish_solution(
        "interpolation",
        mse,
        h,
        c.reshape(n + 1, f.dim),
        {"n": n, "condition": cond, "noisy": False},
        weights,
    )


# -- extrapolation and filtering (truncated infinite systems) ------------


def _stacked_to(weights: FunctionalWeights, n_blocks: int) -> np.ndarray:
    """Weight blocks stacked into (n_blocks * K,), padded or truncated.

    Truncation may only drop zero blocks; the truncation schedule already
    guarantees that.
    """
    out = np.zeros(n_blocks * weights.dim, dtype=complex)
    keep = min(n_blocks, weights.n_blocks)
    out[: keep * weights.dim] = weights.blocks[:keep].reshape(-1)
    return out


def _truncation_schedule(weights, truncation, cap, context):
    j_last = weights.last_nonzero
    if truncation is not None:
        if truncation < j_last:
            raise ValueError(
                "truncation must cover the last nonzero weight block "
                f"({truncation} < {j_last})"
            )
        return [int(truncation)]
    if cap < j_last:
        raise TruncationError(
            f"{context}: the last nonzero weight block {j_last} lies beyond the "
            f"largest truncation {cap} the grid resolves"
        )
    start = min(max(64, 4 * max(j_last, 1)), cap)
    if start == cap and j_last < cap:
        # one level alone can never pass the Cauchy test
        return [max(cap // 2, j_last), cap]
    schedule = [start]
    while schedule[-1] < cap:
        schedule.append(min(2 * schedule[-1], cap))
    return schedule


def _solve_truncated(solve_at, weights, truncation, cap, context):
    """Run ``solve_at(J)`` over a doubling schedule until the mse is Cauchy."""
    schedule = _truncation_schedule(weights, truncation, cap, context)
    history: list[tuple[int, float]] = []
    prev = None
    for J in schedule:
        try:
            result = solve_at(J)
        except IllPosedError as exc:
            if J == schedule[-1]:
                raise TruncationError(
                    f"{context}: truncated system still ill-posed at J = {J}; "
                    f"increase the truncation or the grid ({exc})"
                ) from exc
            prev = None
            continue
        history.append((J, result[0]))
        if truncation is not None:
            return result, history
        if prev is not None and abs(result[0] - prev[0]) <= MSE_CAUCHY_TOL * max(
            1.0, abs(result[0])
        ):
            return result, history
        prev = result
    raise TruncationError(
        f"{context}: error value did not stabilise within the truncation cap; "
        f"history = {history}"
    )


def _summability_warning(weights):
    report = check_weight_summability(weights)
    if not report.passed:
        warnings.warn(
            "weight tail looks non-summable; truncated solution may be meaningless"
        )
    return report


def extrapolate(
    f: SpectralDensity | GridMatrixFunction,
    g: SpectralDensity | GridMatrixFunction | None,
    weights: FunctionalWeights,
    truncation: int | None = None,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> EstimateSolution:
    """Best estimate of a forward functional from noisy past observations.

    The functional runs over blocks j >= 0 with the stored weights; the
    observations are signal plus noise at blocks j < 0. The infinite
    coefficient system is truncated at ``truncation`` blocks (doubled
    automatically until the error stabilises when not given).
    """
    if g is None:
        return extrapolate_noiseless(
            f, weights, truncation=truncation, cond_threshold=cond_threshold
        )
    if weights.horizon not in ("extrapolation", "extrapolation_finite"):
        raise ValueError("weights must carry an extrapolation horizon")
    if weights.dim != f.dim or f.dim != g.dim:
        raise ValueError("weights and densities must share one dimension")
    _summability_warning(weights)
    report = check_minimality(f, g, cond_threshold=cond_threshold)
    if not report.passed:
        raise MinimalityError(
            "minimality condition violated: observed density is singular near "
            f"lambda = {report.worst_node:.6f}"
        )
    K, G = f.dim, f.grid_size
    fv = density_values(f)
    gv = density_values(g)
    inv = np.linalg.inv(fv + gv)
    tableB = _all_fourier_coefficients(np.transpose(inv, (0, 2, 1)))
    tableD = _all_fourier_coefficients(np.transpose(fv @ inv, (0, 2, 1)))
    tableR = _all_fourier_coefficients(np.transpose(fv @ inv @ gv, (0, 2, 1)))
    # the weights vanish beyond block j_last <= J, so D and R are only read
    # in their first n_w block columns, and R's block does not depend on J
    n_w = weights.last_nonzero + 1
    a = weights.blocks[:n_w].reshape(-1)
    lagR = np.subtract.outer(np.arange(n_w), np.arange(n_w))
    Rd = tableR[lagR % G].transpose(0, 2, 1, 3).reshape(n_w * K, n_w * K)
    aRa = np.vdot(a, Rd @ a)

    def solve_at(J):
        if J >= G // 2:
            raise TruncationError("truncation exceeds the grid resolution")
        lag = np.subtract.outer(np.arange(J + 1), np.arange(J + 1))
        Bd = tableB[lag % G].transpose(0, 2, 1, 3).reshape((J + 1) * K, (J + 1) * K)
        lagD = lag[:, :n_w]
        Dd = tableD[lagD % G].transpose(0, 2, 1, 3).reshape((J + 1) * K, n_w * K)
        c, cond = _solve_hermitian(Bd, Dd @ a, cond_threshold, "extrapolation")
        mse = _real_mse(aRa + np.vdot(c, Bd @ c))
        return mse, c, cond, J

    (mse, c, cond, J), history = _solve_truncated(
        solve_at, weights, truncation, G // 2 - 1, "extrapolation"
    )
    A = functional_symbol(weights, G)
    C = _blocks_symbol(c.reshape(J + 1, K), 0, G)
    h = np.einsum("gk,gkn->gn", A, fv) - C
    h = np.einsum("gk,gkn->gn", h, inv)
    return _finish_solution(
        weights.horizon,
        mse,
        h,
        c.reshape(J + 1, K),
        {"n": weights.n, "condition": cond, "truncation": J, "history": history,
         "noisy": True},
        weights,
    )


def extrapolate_noiseless(
    f: SpectralDensity | GridMatrixFunction,
    weights: FunctionalWeights,
    truncation: int | None = None,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> EstimateSolution:
    """Forward estimation from exact past observations of the signal."""
    if weights.horizon not in ("extrapolation", "extrapolation_finite"):
        raise ValueError("weights must carry an extrapolation horizon")
    if weights.dim != f.dim:
        raise ValueError("weights and density must share one dimension")
    _summability_warning(weights)
    report = check_minimality(f, None, cond_threshold=cond_threshold)
    if not report.passed:
        raise MinimalityError(
            "minimality condition violated: signal density is singular near "
            f"lambda = {report.worst_node:.6f}"
        )
    K, G = f.dim, f.grid_size
    finv = np.linalg.inv(density_values(f))
    tableB = _all_fourier_coefficients(np.transpose(finv, (0, 2, 1)))

    def solve_at(J):
        if J >= G // 2:
            raise TruncationError("truncation exceeds the grid resolution")
        lag = np.subtract.outer(np.arange(J + 1), np.arange(J + 1))
        Bd = tableB[lag % G].transpose(0, 2, 1, 3).reshape((J + 1) * K, (J + 1) * K)
        a = _stacked_to(weights, J + 1)
        c, cond = _solve_hermitian(Bd, a, cond_threshold, "extrapolation")
        mse = _real_mse(np.vdot(a, c))
        return mse, c, cond, J

    (mse, c, cond, J), history = _solve_truncated(
        solve_at, weights, truncation, G // 2 - 1, "extrapolation"
    )
    A = functional_symbol(weights, G)
    C = _blocks_symbol(c.reshape(J + 1, K), 0, G)
    h = A - np.einsum("gk,gkn->gn", C, finv)
    return _finish_solution(
        weights.horizon,
        mse,
        h,
        c.reshape(J + 1, K),
        {"n": weights.n, "condition": cond, "truncation": J, "history": history,
         "noisy": False},
        weights,
    )


def filtering(
    f: SpectralDensity | GridMatrixFunction,
    g: SpectralDensity | GridMatrixFunction,
    weights: FunctionalWeights,
    truncation: int | None = None,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> EstimateSolution:
    """Best estimate of a backward functional from noisy observations.

    The functional runs over signal blocks -j for j >= 0 with the stored
    weights; observations are signal plus noise at blocks j <= 0. The
    coefficient system runs over strictly positive lags and is truncated
    like extrapolation.
    """
    if weights.horizon != "filtering":
        raise ValueError("weights must carry the filtering horizon")
    if g is None:
        raise ValueError("filtering requires a noise density")
    if weights.dim != f.dim or f.dim != g.dim:
        raise ValueError("weights and densities must share one dimension")
    _summability_warning(weights)
    report = check_minimality(f, g, cond_threshold=cond_threshold)
    if not report.passed:
        raise MinimalityError(
            "minimality condition violated: observed density is singular near "
            f"lambda = {report.worst_node:.6f}"
        )
    K, G = f.dim, f.grid_size
    fv = density_values(f)
    gv = density_values(g)
    inv = np.linalg.inv(fv + gv)
    tableU = _all_fourier_coefficients(np.transpose(inv, (0, 2, 1)))
    tableV = _all_fourier_coefficients(np.transpose(fv @ inv, (0, 2, 1)))
    tableW = _all_fourier_coefficients(np.transpose(fv @ inv @ gv, (0, 2, 1)))
    a = weights.stacked()
    n_a = weights.n_blocks
    lagW = -np.subtract.outer(np.arange(n_a), np.arange(n_a))
    Wd = tableW[lagW % G].transpose(0, 2, 1, 3).reshape(n_a * K, n_a * K)

    def solve_at(J):
        if J + n_a >= G // 2:
            raise TruncationError("truncation exceeds the grid resolution")
        if J < 1:
            d = np.zeros(0, dtype=complex)
            return _real_mse(np.vdot(a, Wd @ a)), d, 1.0, 0
        rows = np.arange(1, J + 1)
        lagU = np.subtract.outer(rows, rows)
        Ud = tableU[lagU % G].transpose(0, 2, 1, 3).reshape(J * K, J * K)
        lagV = np.add.outer(rows, np.arange(n_a))
        Vd = tableV[lagV % G].transpose(0, 2, 1, 3).reshape(J * K, n_a * K)
        d, cond = _solve_hermitian(Ud, Vd @ a, cond_threshold, "filtering")
        mse = _real_mse(np.vdot(a, Wd @ a) + np.vdot(d, Ud @ d))
        return mse, d, cond, J

    (mse, d, cond, J), history = _solve_truncated(
        solve_at, weights, truncation, G // 2 - n_a - 1, "filtering"
    )
    A = functional_symbol(weights, G)
    Dsym = _blocks_symbol(d.reshape(J, K), 1, G)
    h = np.einsum("gk,gkn->gn", A, fv) - Dsym
    h = np.einsum("gk,gkn->gn", h, inv)
    return _finish_solution(
        "filtering",
        mse,
        h,
        d.reshape(J, K),
        {"n": weights.n, "condition": cond, "truncation": J, "history": history,
         "first_index": 1, "noisy": True},
        weights,
    )


# -- generic error functional --------------------------------------------


def evaluate_mse(
    h,
    f: SpectralDensity | GridMatrixFunction,
    g: SpectralDensity | GridMatrixFunction | None,
    weights: FunctionalWeights,
    task: str | None = None,
) -> float:
    """Mean square error of the estimate with characteristic h under (f, g).

    Quadrature of the error functional: the signal term integrates
    (A - h)^T f conj(A - h) and the noise term h^T g conj(h), where A is
    the weight polynomial of the task. ``h`` may be an
    :class:`EstimateSolution` or a (G, K) grid array; ``task`` defaults to
    the weights' horizon.
    """
    if isinstance(h, EstimateSolution):
        h = h.h_grid
    h = np.asarray(h, dtype=complex)
    if h.ndim == 1:
        h = h.reshape(-1, 1)
    G = f.grid_size
    if h.shape != (G, f.dim):
        raise ValueError(f"h has shape {h.shape}, expected {(G, f.dim)}")
    if task is None:
        task = weights.horizon
    A = functional_symbol(weights, G, task)
    fv = density_values(f)
    diff = A - h
    total = np.einsum("gk,gkn,gn->", diff, fv, diff.conj()) / G
    if g is not None:
        gv = density_values(g)
        total = total + np.einsum("gk,gkn,gn->", h, gv, h.conj()) / G
    return _real_mse(total)
