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

All tasks run one path, which differs between them only in its index sets:
one minimality check and one inversion of f+g on the grid (with noise the
inverse comes first, and a bound on its norms settles the check unless
the grid is near the threshold), the Fourier coefficient table of the
kernel (f+g)^{-1} (transposed inside the integral, as the component
pairing of the lifted basis requires), its block matrix B, one Hermitian
solve B c = D a for the unknown coefficient blocks, and the characteristic
h = v - C (f+g)^{-1} on the grid with the mean square error. The kernels
f (f+g)^{-1} and f (f+g)^{-1} g of D and R act only on the fixed weights a,
so neither is tabulated: with A the weight polynomial on the grid,
v = A f (f+g)^{-1} = A - (A g)(f+g)^{-1}, the Fourier coefficients of v are
D a, and a* R a is the grid mean of v g conj(A) (the convolution theorem
behind the trapezoid rule, exact on the grid). A kernel (f+g)^{-1} that
the grid does not resolve is flagged by its tail (``kernel_tail`` in the
diagnostics, see :func:`_kernel_tail`). Infinite systems are truncated:
the automatic schedule starts at max(16, 2 j_last) blocks, j_last being
the last nonzero weight block, and doubles the truncation until the error
value changes by at most 1e-8 of itself. Each level borders the previous
level's Cholesky factor with its new block rows, so the schedule factors
each row of its last system once.

Exact observations are ``g=None`` (kernels f^{-1}, I and 0):
``interpolate(f, None, w)`` and ``extrapolate(f, None, w)`` replace the
removed ``interpolate_noiseless`` and ``extrapolate_noiseless``. Filtering
requires a noise density.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .cholesky import border, cholesky, cholesky_solver
from .errors import IllPosedError, MinimalityError, TruncationError
from .lifting import FunctionalWeights, check_weight_summability
from .spectral import (
    DEFAULT_COND_THRESHOLD,
    SpectralDensity,
    _all_fourier_coefficients,
    _inverse_if_minimal,
    check_minimality,
)

__all__ = [
    "BLOCK_KINDS",
    "EstimateSolution",
    "build_block_matrix",
    "interpolate",
    "extrapolate",
    "filtering",
    "evaluate_mse",
    "functional_symbol",
    "forbidden_lags",
    "forbidden_lag_residual",
]

BLOCK_KINDS = ("B", "D", "R", "U", "V", "W")

# least first level and relative Cauchy tolerance of the automatic
# truncation schedule (see _solve_truncated)
FIRST_TRUNCATION = 16
MSE_CAUCHY_TOL = 1e-8
# largest kernel tail (see _kernel_tail) that passes without a warning: the
# relative error of a solve tracks the tail's square, here 1e-8
KERNEL_TAIL_TOL = 1e-4


# -- kernel tables and block matrices -----------------------------------


def _kernel_table(f, g):
    """Check minimality, invert f+g on the grid once and tabulate its inverse.

    With noise, f+g is inverted first and the inverse is kept when
    :func:`spectral._inverse_if_minimal` proves, from its norms and one
    Cholesky factor of the Hermitian part, that ``check_minimality(f, g)``
    passes; only when that bound cannot decide does the exact check run,
    so every refusal keeps its error and message. Without noise the check
    reads the cached ``f.eigenvalues``.

    Returns the grid values of (f+g)^{-1} and of g, and the coefficient
    table, indexed by lag mod G, of the transposed kernel (f+g)^{-1}
    (f^{-1} without noise), the one kernel the solve tabulates.
    """
    fv = f.values
    gv = None if g is None else g.values
    inv = None
    if gv is not None and gv.shape == fv.shape:
        inv = _inverse_if_minimal(fv + gv)
    if inv is None:
        report = check_minimality(f, g)
        if not report.passed:
            observed = "signal" if g is None else "observed"
            raise MinimalityError(
                f"minimality condition violated: {observed} density is singular "
                f"near lambda = {report.worst_node:.6f} "
                f"(grid condition {report.max_condition:.3e})"
            )
        inv = np.linalg.inv(fv if gv is None else fv + gv)
    return inv, gv, _transposed_coefficients(inv)


def _transposed_coefficients(kernel):
    """Coefficient table, by lag mod G, of a (G, K, K) kernel transposed pointwise."""
    return _all_fourier_coefficients(np.transpose(kernel, (0, 2, 1)))


def _gather(table, kind, rows, cols):
    """Dense block matrix of a coefficient table on the index sets rows x cols.

    Block (r, c) is the coefficient at lag row + col for kind V, col - row
    for kind W and row - col for the others.
    """
    lag = np.add.outer(rows, cols) if kind == "V" else np.subtract.outer(rows, cols)
    if kind == "W":
        lag = -lag
    G, K = table.shape[:2]
    if np.abs(lag).max(initial=0) >= G // 2:
        raise TruncationError(
            f"requested block lags exceed the grid resolution (G = {G})"
        )
    r, c = lag.shape
    return table[lag % G].transpose(0, 2, 1, 3).reshape(r * K, c * K)


def build_block_matrix(
    kind: str,
    f: SpectralDensity,
    g: SpectralDensity | None,
    rows: Iterable[int],
    cols: Iterable[int],
) -> np.ndarray:
    """Assemble one of the estimation block matrices as a dense matrix.

    The K x K block for row index ``rows[i]`` and column index ``cols[j]``
    sits at rows i*K..(i+1)*K and columns j*K..(j+1)*K. Kinds B, D, R and U
    place the kernel coefficient at lag ``row - col`` (block-Toeplitz); kind
    V places it at lag ``row + col`` (block-Hankel); kind W at lag
    ``col - row``, the orientation of the backward-running functional it
    weights (the transposed-kernel variant at ``row - col`` agrees only when
    the densities commute, and fails the projection oracle for coupled
    ones). The kernels are, in order: the inverse of f+g (B and U),
    f (f+g)^{-1} (D and V) and f (f+g)^{-1} g (R and W), each transposed
    pointwise before the Fourier coefficients are taken. With g absent the
    kernels are f^{-1}, the identity and zero.

    The solvers tabulate only the first kernel and apply D and R to the
    weights through their symbol, so the D, V, R and W kernels are
    tabulated here, on demand, as the independent reference for that path.
    """
    if kind not in BLOCK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}; expected one of {BLOCK_KINDS}")
    rows = np.array([int(r) for r in rows], dtype=int)
    cols = np.array([int(c) for c in cols], dtype=int)
    if not rows.size or not cols.size:
        raise ValueError("row and column ranges must be non-empty")
    which = BLOCK_KINDS.index(kind) % 3  # B and U, D and V, R and W share a kernel
    inv, gv, table = _kernel_table(f, g)
    if which and gv is None:
        table = np.zeros_like(table)
        if which == 1:
            table[0] = np.eye(f.dim)
    elif which:
        kernel = f.values @ inv  # f (f+g)^{-1}
        table = _transposed_coefficients(kernel if which == 1 else kernel @ gv)
    return _gather(table, kind, rows, cols)


_SAFMIN = np.finfo(float).tiny


def _unit_phases(x):
    """x_i / |x_i|, and 1 where |x_i| is below the safe minimum."""
    size = np.abs(x)
    small = size <= _SAFMIN
    return np.where(small, 1.0, x / np.where(small, 1.0, size))


def _inverse_one_norm(solve, n):
    """Estimate of ||A^{-1}||_1 for a Hermitian A, given b -> A^{-1} b.

    Hager's estimator in Higham's form, the complex LAPACK ``?lacn2`` step
    for step (Hager 1984, SIAM J. Sci. Stat. Comput. 5; Higham 1988,
    ACM TOMS 14). The estimate is a lower bound, in practice rarely more
    than three times too small and often exact. A^{-H} = A^{-1}, so both
    of its operator applications are ``solve``.
    """
    x = solve(np.full(n, 1.0 / n, dtype=complex))
    if n == 1:
        return float(abs(x[0]))
    est = np.abs(x).sum()
    x = solve(_unit_phases(x))
    j = int(np.argmax(np.abs(x)))
    for _ in range(4):  # ITMAX = 5 iterations, the steps above being the first
        x = solve(np.eye(1, n, j, dtype=complex)[0])
        est, previous = np.abs(x).sum(), est
        if est <= previous:  # cycling: keep the smaller value, as LAPACK does
            break
        x = solve(_unit_phases(x))
        last, j = j, int(np.argmax(np.abs(x)))
        if abs(x[last]) == abs(x[j]):
            break
    alternating = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    x = solve(alternating.astype(complex))
    return float(max(est, 2.0 * np.abs(x).sum() / (3 * n)))


def _solve_hermitian(matrix, rhs, context, indefinite=IllPosedError, factor=None):
    """Solve a Hermitian positive definite system through one Cholesky factor.

    The factor gives the solution, one refinement step and the condition
    estimate ``cond = ||A||_1 * est(||A^{-1}||_1)``, the Hager-Higham
    1-norm estimate of LAPACK ``?pocon`` (see :func:`_inverse_one_norm`).
    The gate refuses the system (``IllPosedError``) when that estimate is
    not finite or exceeds ``DEFAULT_COND_THRESHOLD``, and raises
    ``indefinite`` when the Cholesky factorization fails, since an
    indefinite system has no estimate to return. ``factor``, when given,
    is the lower Cholesky factor of ``matrix``, such as
    :func:`cholesky.border` grows along the truncation schedule.

    The 1-norm gate is no looser than the former 2-norm one (largest over
    smallest |eigenvalue|): for Hermitian A, kappa_2(A) <= kappa_1(A). For
    the estimator systems there is also an exact bound from the grid. Their
    blocks are DFT coefficients of the kernel (f+g)^{-1} (f^{-1} without
    noise), so each system is a principal submatrix of a block circulant
    whose eigenvalues are the kernel's eigenvalues on the grid. By
    interlacing, kappa_2 of the system is at most
    ``check_minimality(...).max_condition``, which every solver checks
    against the same threshold before it solves.
    """
    n = matrix.shape[0]
    if n == 0:
        return np.zeros_like(rhs), 1.0
    chol = cholesky(matrix, context, indefinite) if factor is None else factor
    solve = cholesky_solver(chol)
    cond = float(np.linalg.norm(matrix, 1)) * _inverse_one_norm(solve, n)
    if not np.isfinite(cond) or cond > DEFAULT_COND_THRESHOLD:
        raise IllPosedError(
            f"{context}: system condition number {cond:.3e} exceeds "
            f"threshold {DEFAULT_COND_THRESHOLD:.1e}"
        )
    x = solve(rhs)
    x = x + solve(rhs - matrix @ x)
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


def functional_symbol(weights: FunctionalWeights, grid_size: int) -> np.ndarray:
    """The weight polynomial A on the grid, as a (G, K) array.

    Interpolation and extrapolation weights enter at nonnegative powers of
    e^{i lambda}; filtering weights at nonpositive powers.
    """
    if weights.horizon == "filtering":
        return _blocks_symbol(weights.blocks[::-1], 1 - weights.n_blocks, grid_size)
    return _blocks_symbol(weights.blocks, 0, grid_size)


def _blocks_symbol(blocks: np.ndarray, first_index: int, grid_size: int) -> np.ndarray:
    """sum_j blocks[j] e^{i (first_index + j) lambda} on the grid, (G, K).

    On lambda_g = -pi + 2 pi g / G the phase e^{i m lambda_g} is
    (-1)^m e^{2 pi i m g / G}, so the sum is one inverse FFT.
    """
    m = first_index + np.arange(blocks.shape[0])
    buf = np.zeros((grid_size, blocks.shape[1]), dtype=complex)
    np.add.at(buf, m % grid_size, np.where(m % 2, -1.0, 1.0)[:, None] * blocks)
    return np.fft.ifft(buf, axis=0) * grid_size


def _weighted_kernel(A, inv, gv):
    """The right-hand side and error floor of the system, from the symbol A.

    Returns the grid vector v = A f (f+g)^{-1} = A - (A g)(f+g)^{-1}, (G, K),
    its coefficient table, whose rows first..J are D a (kinds D and V), and
    the error floor a* R a (kinds R and W), the grid mean of v g conj(A).
    A is the weight polynomial of the weights' horizon; for filtering it
    carries the powers 0, -1, -2, ..., which turns the Hankel lags of V and
    W into the same products.
    """
    v = A - np.einsum("gk,gkn->gn", np.einsum("gk,gkn->gn", A, gv), inv)
    floor = np.einsum("gk,gkn,gn->", v, gv, A.conj()) / A.shape[0]
    return v, _all_fourier_coefficients(v), floor


def _characteristic(v, blocks, first_index, inv):
    """The characteristic h = v - C (f+g)^{-1} on the grid, (G, K).

    C is the symbol of the solved coefficient blocks, numbered from
    ``first_index``, ``inv`` the grid values of (f+g)^{-1} and v the grid
    vector A f (f+g)^{-1} of :func:`_weighted_kernel`; exact data pass
    v = A, the weight polynomial, and ``inv`` is then f^{-1}. The
    factorization route passes v = A, its weighted tap sums as the blocks
    and the left inverse Q of the causal factor, (G, M, K), as ``inv``: it
    is the one h synthesis of every task.
    """
    C = _blocks_symbol(blocks, first_index, inv.shape[0])
    return v - np.einsum("gk,gkn->gn", C, inv)


def _vector_coefficients(h_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients of a (G, K) grid vector for lags |m| <= G/4."""
    G = h_grid.shape[0]
    table = _all_fourier_coefficients(h_grid)
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


def _finish_solution(task, mse, h_grid, solved_blocks, diagnostics, weights):
    diagnostics["weight_scale"] = float(
        np.linalg.norm(weights.blocks, axis=1).max(initial=0.0)
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


# -- truncation of the infinite systems ----------------------------------


def _truncation_schedule(weights, truncation, cap, context):
    j_last = weights.last_nonzero
    if truncation is not None:
        if truncation < j_last:
            raise ValueError(
                "truncation must cover the last nonzero weight block "
                f"({truncation} < {j_last})"
            )
        if truncation > cap:
            raise TruncationError(
                f"{context}: truncation {truncation} exceeds the grid resolution "
                f"(largest {cap})"
            )
        return [int(truncation)]
    if cap < j_last:
        raise TruncationError(
            f"{context}: the last nonzero weight block {j_last} lies beyond the "
            f"largest truncation {cap} the grid resolves"
        )
    start = min(max(FIRST_TRUNCATION, 2 * j_last), cap)
    if start == cap and j_last < cap:
        # one level alone can never pass the Cauchy test
        return [max(cap // 2, j_last), cap]
    schedule = [start]
    while schedule[-1] < cap:
        schedule.append(min(2 * schedule[-1], cap))
    return schedule


def _solve_truncated(system_at, mse_of, weights, truncation, cap, context):
    """Solve ``system_at(J)`` over a doubling schedule until the mse is Cauchy.

    ``system_at(J)`` returns the matrix and right-hand side at truncation J,
    one block row per unknown block up to J; ``mse_of(c, rhs)`` the error
    value of its solution. The automatic schedule starts at
    max(FIRST_TRUNCATION, 2 j_last) blocks, j_last being the last nonzero
    weight block, and stops at the first level whose error value m_J is
    within MSE_CAUCHY_TOL * |m_J| of the previous level's, a test relative
    to the error itself, so small errors are not held to an absolute one.

    Each level's system is the leading block of the next level's, so one
    lower Cholesky factor is kept and bordered by each level's new block
    rows (:func:`cholesky.border`): the whole schedule factors each row
    once. Each level keeps its own condition estimate and gate, and the
    first refused level raises ``TruncationError``: its system is the
    leading block of every later level's, so by interlacing no later level
    is better conditioned.
    """
    schedule = _truncation_schedule(weights, truncation, cap, context)
    history: list[tuple[int, float]] = []
    prev = factor = None
    for J in schedule:
        matrix, rhs = system_at(J)
        try:
            if factor is None:
                factor = cholesky(matrix, context)
            else:
                n0 = factor.shape[0]
                factor = border(factor, matrix[:n0, n0:], matrix[n0:, n0:], context)
            c, cond = _solve_hermitian(matrix, rhs, context, factor=factor)
        except IllPosedError as exc:
            raise TruncationError(
                f"{context}: truncated system ill-posed at J = {J} ({exc})"
            ) from exc
        mse = mse_of(c, rhs)
        history.append((J, mse))
        if truncation is not None or (
            prev is not None and abs(mse - prev) <= MSE_CAUCHY_TOL * abs(mse)
        ):
            return (mse, c, cond, J), history
        prev = mse
    raise TruncationError(
        f"{context}: error value did not stabilise within the truncation cap; "
        f"history = {history}"
    )


def _summability_warning(weights):
    if not check_weight_summability(weights).passed:
        warnings.warn(
            "weight tail looks non-summable; truncated solution may be meaningless"
        )


def _kernel_tail(table):
    """||B(G/2)||_F / ||B(0)||_F of the kernel table, warned above KERNEL_TAIL_TOL.

    On G nodes the coefficient at lag m is the sum of the kernel's true
    coefficients at lags m + kG, so a kernel (f+g)^{-1} whose coefficients
    have not decayed by lag G/2 is aliased, and the error values solved
    from it are wrong with no other sign: for MA(1) with b = 0.999 on
    2048 nodes the tail is 0.64 and the exact interpolation error is 1.54e-3
    against 2.00e-3. The relative error tracks the tail's square.
    """
    G = table.shape[0]
    tail = float(np.linalg.norm(table[G // 2]) / np.linalg.norm(table[0]))
    if tail > KERNEL_TAIL_TOL:
        warnings.warn(
            f"kernel tail above {KERNEL_TAIL_TOL:.0e} at lag G/2 = {G // 2}: the "
            "grid does not resolve the inverse density (diagnostics "
            "'kernel_tail'); refine the grid"
        )
    return tail


# -- the estimation path -------------------------------------------------


def _estimate(f, g, weights, truncation):
    """Solve the task named by the weights' horizon; ``g=None`` is exact data.

    Interpolation solves for the blocks c_0..c_n at once. Extrapolation
    solves for c_0..c_J and filtering for d_1..d_J, with J doubled until
    the error value is Cauchy. The system is B c = D a with error value
    a* R a + c* B c = a* R a + c* (D a); filtering uses the kinds U, V, W.
    Only B is gathered: D a and a* R a come from the weight symbol
    (:func:`_weighted_kernel`).
    """
    if weights.dim != f.dim or (g is not None and g.dim != f.dim):
        raise ValueError("weights and densities must share one dimension")
    task = weights.horizon
    context = task.removesuffix("_finite")
    if task != "interpolation":
        _summability_warning(weights)
    K, G = f.dim, f.grid_size
    inv, gv, B = _kernel_table(f, g)
    tail = _kernel_tail(B)
    first = 1 if task == "filtering" else 0
    kind_b = "U" if first else "B"
    A = functional_symbol(weights, G)
    if gv is None:  # exact observations: D = I and R = 0
        v, aRa = A, 0.0
        a = weights.blocks[: weights.last_nonzero + 1].reshape(-1)
    else:
        v, Da, aRa = _weighted_kernel(A, inv, gv)

    def system_at(J):
        rows = np.arange(first, J + 1)
        Bd = _gather(B, kind_b, rows, rows)
        if gv is None:
            return Bd, np.pad(a, (0, rows.size * K - a.size))
        return Bd, Da[first : J + 1].reshape(-1)

    def mse_of(c, rhs):
        return _real_mse(aRa + np.vdot(c, rhs))

    if task == "interpolation":
        Bd, rhs = system_at(weights.n)
        c, cond = _solve_hermitian(Bd, rhs, context)
        mse, truncated = mse_of(c, rhs), {}
    else:
        # the largest lag read is J (Toeplitz) or J + n_blocks - 1 (Hankel V)
        cap = G // 2 - weights.n_blocks if first else G // 2 - 1
        (mse, c, cond, J), history = _solve_truncated(
            system_at, mse_of, weights, truncation, cap, context
        )
        truncated = {"truncation": J, "history": history}
    diagnostics = {"n": weights.n, "condition": cond, **truncated}
    if first:
        diagnostics["first_index"] = first
    diagnostics["noisy"] = g is not None
    diagnostics["kernel_tail"] = tail

    c = c.reshape(-1, K)
    h = _characteristic(v, c, first, inv)
    return _finish_solution(task, mse, h, c, diagnostics, weights)


def interpolate(
    f: SpectralDensity,
    g: SpectralDensity | None,
    weights: FunctionalWeights,
) -> EstimateSolution:
    """Best estimate of an interpolation functional from noisy observations.

    Blocks 0..n carry the functional and are unobserved; all other blocks
    of signal plus noise are observed. With ``g=None`` the observations are
    exact. Returns the spectral characteristic, the solved coefficient
    blocks and the mean square error.
    """
    if weights.horizon != "interpolation":
        raise ValueError("weights must carry the interpolation horizon")
    return _estimate(f, g, weights, None)


def extrapolate(
    f: SpectralDensity,
    g: SpectralDensity | None,
    weights: FunctionalWeights,
    truncation: int | None = None,
) -> EstimateSolution:
    """Best estimate of a forward functional from noisy past observations.

    The functional runs over blocks j >= 0 with the stored weights; the
    observations are signal plus noise at blocks j < 0 (exact signal with
    ``g=None``). The infinite coefficient system is truncated at
    ``truncation`` blocks (doubled automatically until the error stabilises
    when not given).
    """
    if weights.horizon not in ("extrapolation", "extrapolation_finite"):
        raise ValueError("weights must carry an extrapolation horizon")
    return _estimate(f, g, weights, truncation)


def filtering(
    f: SpectralDensity,
    g: SpectralDensity,
    weights: FunctionalWeights,
    truncation: int | None = None,
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
    return _estimate(f, g, weights, truncation)


# -- generic error functional --------------------------------------------


def evaluate_mse(
    h,
    f: SpectralDensity,
    g: SpectralDensity | None,
    weights: FunctionalWeights,
) -> float:
    """Mean square error of the estimate with characteristic h under (f, g).

    Quadrature of the error functional: the signal term integrates
    (A - h)^T f conj(A - h) and the noise term h^T g conj(h), where A is
    the weight polynomial of the weights' horizon. ``h`` may be an
    :class:`EstimateSolution` or a (G, K) grid array.
    """
    if isinstance(h, EstimateSolution):
        h = h.h_grid
    h = np.asarray(h, dtype=complex)
    if h.ndim == 1:
        h = h.reshape(-1, 1)
    G = f.grid_size
    if h.shape != (G, f.dim):
        raise ValueError(f"h has shape {h.shape}, expected {(G, f.dim)}")
    A = functional_symbol(weights, G)
    diff = A - h
    total = np.einsum("gk,gkn,gn->", diff, f.values, diff.conj()) / G
    if g is not None:
        total = total + np.einsum("gk,gkn,gn->", h, g.values, h.conj()) / G
    return _real_mse(total)
