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
one minimality check (``spectral.check_minimality``) and one inversion of
f+g on the grid, the Fourier coefficient table of the kernel (f+g)^{-1}
(transposed inside the integral, as the component pairing of the lifted
basis requires; f keeps f^{-1} and (f+g)^{-1} for the last g it was solved
with, each with its table, in the kernel memo, whose one reader and writer
``spectral._kernel_slot`` returns the slot as a named record, so only the
first solve of a density or a pair computes them), its block
matrix B, one Hermitian solve B c = D a for the unknown coefficient
blocks, and the characteristic h = v - C (f+g)^{-1} on the grid with the
mean square error. The kernels
f (f+g)^{-1} and f (f+g)^{-1} g of D and R act only on the fixed weights a,
so neither is tabulated: with A the weight polynomial on the grid,
v = A f (f+g)^{-1} = A - (A g)(f+g)^{-1}, the Fourier coefficients of v are
D a, and a* R a is the grid mean of v g conj(A) (the convolution theorem
behind the trapezoid rule, exact on the grid). A kernel (f+g)^{-1} that
the grid does not resolve is flagged by its tail (``kernel_tail`` in the
diagnostics, see :func:`_kernel_tail`). Infinite systems are truncated:
the automatic schedule starts at max(16, 2 j_last) blocks, j_last being
the last nonzero weight block, and doubles the truncation until the error
value changes by at most 1e-8 of itself. Every system is a leading
section of the kernel's one block-Toeplitz matrix (the U section of J
blocks is the B section of J blocks), and the kernel memo keeps the
Cholesky factor of its sections (``cholesky.SectionFactor``), so every row
of every section a density or pair is solved with is factored once, and a
solve returns the same bits whatever was solved before. The memo also keeps
the gate's ``check_minimality(...).max_condition``, the ratio of the extreme
eigenvalues of f+g (f alone without noise) on the grid, which every solve
reports as ``condition``: by interlacing it bounds the 2-norm condition of
every section, so no section is estimated on its own. Before any grid work,
each solve admits the largest lag it reads through ``spectral._admit_lag``
(:func:`_admit_truncation`).

Exact observations are ``g=None`` (kernels f^{-1}, I and 0): D a is then
the weights' own coefficient table, read at the same rows. Filtering
requires a noise density.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .cholesky import backward, forward
from .errors import IllPosedError, TruncationError
from .lifting import FunctionalWeights, _shared_dim, check_weight_summability
from .spectral import (
    SpectralDensity,
    _admit_lag,
    _all_fourier_coefficients,
    _grid_symbol,
    _kernel_slot,
    _transposed_coefficients,
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

_log = logging.getLogger("pcwk")


# -- kernel tables and block matrices -----------------------------------


def _gather(table, kind, rows, cols):
    """Dense block matrix of a coefficient table on the index sets rows x cols.

    Block (r, c) is the coefficient at lag row + col for kind V, col - row
    for kind W and row - col for the others.
    """
    lag = np.add.outer(rows, cols) if kind == "V" else np.subtract.outer(rows, cols)
    if kind == "W":
        lag = -lag
    G, K = table.shape[:2]
    _admit_lag(int(np.abs(lag).max(initial=0)), G, name="block lag")
    r, c = lag.shape
    # the band of lags the matrix reads, by kernel row: (K, lags, K), contiguous
    low, high = int(lag.min(initial=0)), int(lag.max(initial=0))
    band = table[np.arange(low, high + 1) % G].transpose(1, 0, 2).copy()
    local, out = lag - low, np.empty((r, K, c, K), dtype=table.dtype)
    for k in range(K):  # one kernel row at a time: no full-size temporary
        # "clip": the indices are in range, and take then writes out unbuffered
        np.take(band[k], local, axis=0, out=out[:, k], mode="clip")
    return out.reshape(r * K, c * K)


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
    kernel = _kernel_slot(f, g)
    table = kernel.table
    if which and g is None:
        table = np.zeros_like(table)
        if which == 1:
            table[0] = np.eye(f.dim)
    elif which:
        product = f.values @ kernel.inv  # f (f+g)^{-1}
        table = _transposed_coefficients(product if which == 1 else product @ g.values)
    return _gather(table, kind, rows, cols)


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
        return _grid_symbol(weights.blocks[::-1], 1 - weights.n_blocks, grid_size)
    return _grid_symbol(weights.blocks, 0, grid_size)


def _weighted_kernel(A, inv, gv):
    """The right-hand side and error floor of the system, from the symbol A.

    Returns the grid vector v = A f (f+g)^{-1} = A - (A g)(f+g)^{-1}, (G, K),
    its coefficient table, whose rows first..J are D a (kinds D and V), and
    the error floor a* R a (kinds R and W), the grid mean of v g conj(A).
    A is the weight polynomial of the weights' horizon; for filtering it
    carries the powers 0, -1, -2, ..., which turns the Hankel lags of V and
    W into the same products.
    """
    v = A - ((A[:, None] @ gv) @ inv)[:, 0]
    floor = np.vdot(A, (v[:, None] @ gv)[:, 0]) / A.shape[0]
    return v, _all_fourier_coefficients(v), floor


def _characteristic(v, blocks, first_index, inv):
    """The characteristic h = v - C (f+g)^{-1} on the grid, (G, K).

    C is the symbol of the solved coefficient blocks, numbered from
    ``first_index`` and written by ``spectral._grid_symbol``, the one
    lag -> grid transform; ``inv`` holds the grid values of (f+g)^{-1} and
    v is the grid vector A f (f+g)^{-1} of :func:`_weighted_kernel`; exact
    data pass v = A, the weight polynomial, and ``inv`` is then f^{-1}. The
    factorization route passes v = A, its weighted tap sums as the blocks
    and the left inverse Q of the causal factor, (G, M, K), as ``inv``: it
    is the one h synthesis of every task.
    """
    C = _grid_symbol(blocks, first_index, inv.shape[0])
    return v - (C[:, None] @ inv)[:, 0]


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


def _admit_truncation(weights, truncation, grid_size):
    """The truncations a solve on ``grid_size`` nodes runs at, admitted.

    Interpolation runs at its horizon n, the largest lag it reads, and
    ignores ``truncation``. Extrapolation and filtering refuse a given
    truncation J below the last nonzero weight block j_last (ValueError);
    they read lag J, and filtering J + n_blocks - 1 through D a, which
    ``spectral._admit_lag`` admits for the given J, or for j_last when the
    schedule is automatic: it doubles from max(FIRST_TRUNCATION, 2 j_last)
    up to the largest admissible J. The rule of every solve, and of the
    command line's input check.
    """
    if weights.horizon == "interpolation":
        _admit_lag(weights.n, grid_size, name="horizon")
        return [weights.n]
    j_last = weights.last_nonzero
    if truncation is not None and truncation < j_last:
        raise ValueError(
            "truncation must cover the last nonzero weight block "
            f"({truncation} < {j_last})"
        )
    # the largest lag read is J (Toeplitz) or J + n_blocks - 1 (Hankel V)
    extra = weights.n_blocks - 1 if weights.horizon == "filtering" else 0
    cap = grid_size // 2 - 1 - extra
    if truncation is not None:
        _admit_lag(truncation, grid_size, largest=cap, name="truncation")
        return [int(truncation)]
    _admit_lag(j_last, grid_size, largest=cap, name="last nonzero weight block")
    start = min(max(FIRST_TRUNCATION, 2 * j_last), cap)
    if start == cap and j_last < cap:
        # one level alone can never pass the Cauchy test
        return [max(cap // 2, j_last), cap]
    schedule = [start]
    while schedule[-1] < cap:
        schedule.append(min(2 * schedule[-1], cap))
    return schedule


def _solve_truncated(solve_at, schedule, fixed, context):
    """Solve at each truncation of a schedule until the mse is Cauchy.

    ``solve_at(J)`` solves the system at truncation J, one block row per
    unknown block up to J, and returns its error value and solution. A
    ``fixed`` truncation is the one level of its schedule; the automatic
    schedule (:func:`_admit_truncation`) stops at
    the first level whose error value m_J is within MSE_CAUCHY_TOL * |m_J|
    of the previous level's, a test relative to the error itself, so small
    errors are not held to an absolute one.

    Each level's system is the leading section of the next level's, and
    all of them read one section factor, so the schedule factors each full
    chunk of rows once and each level only its own tail. The first level
    whose Cholesky factorization fails raises ``TruncationError``: its
    system is the leading block of every later level's, none of which is
    positive definite then.
    """
    history: list[tuple[int, float]] = []
    prev = None
    for J in schedule:
        try:
            mse, c = solve_at(J)
        except IllPosedError as exc:
            raise TruncationError(
                f"{context}: truncated system ill-posed at J = {J} ({exc})"
            ) from exc
        history.append((J, mse))
        if fixed or (
            prev is not None and abs(mse - prev) <= MSE_CAUCHY_TOL * abs(mse)
        ):
            return (mse, c, J), history
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
    (:func:`_weighted_kernel`). Each system is solved through one read of
    the section factor of the kernel memo, which factors and stores its
    new chunks, and one refinement step against the gathered section, with
    one debug record to the ``pcwk`` logger per section read: "computed k
    chunks", "extended by k chunks" or "memo"
    (``cholesky.SectionFactor.status``). A section with no Cholesky factor
    is refused (``IllPosedError``).
    """
    K, G = _shared_dim(weights, f, g), f.grid_size
    schedule = _admit_truncation(weights, truncation, G)
    task = weights.horizon
    context = task.removesuffix("_finite")
    if task != "interpolation":
        _summability_warning(weights)
    kernel = _kernel_slot(f, g)
    tail = _kernel_tail(kernel.table)
    first = 1 if task == "filtering" else 0
    kind_b = "U" if first else "B"
    A = functional_symbol(weights, G)
    if g is None:  # exact observations: D = I and R = 0, so D a is a
        v, aRa = A, 0.0
        a = weights.blocks[: weights.last_nonzero + 1]
        Da = np.pad(a, ((0, G - len(a)), (0, 0)))  # its table by lag mod G
    else:
        v, Da, aRa = _weighted_kernel(A, kernel.inv, g.values)

    def solve_at(J):
        rows = np.arange(first, J + 1)
        rhs = Da[first : J + 1].reshape(-1)
        Bd = _gather(kernel.table, kind_b, rows, rows)
        status = kernel.section.status(rhs.size)
        strips = kernel.section.strips(rhs.size, lambda i, j: Bd[i:j, :j], context)
        _log.debug("section of %s (G = %d, K = %d, %d rows): %s",
                   "f^-1" if g is None else "(f+g)^-1", G, K, rhs.size, status)
        c = backward(strips, forward(strips, rhs))
        c = c + backward(strips, forward(strips, rhs - Bd @ c))  # one refinement step
        return _real_mse(aRa + np.vdot(c, rhs)), c

    if task == "interpolation":
        mse, c = solve_at(weights.n)
        truncated = {}
    else:
        (mse, c, J), history = _solve_truncated(
            solve_at, schedule, truncation is not None, context
        )
        truncated = {"truncation": J, "history": history}
    diagnostics = {"n": weights.n, "condition": kernel.condition, **truncated,
                   "kernel_tail": tail}
    c = c.reshape(-1, K)
    h = _characteristic(v, c, first, kernel.inv)
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


def _grid_characteristic(h) -> np.ndarray:
    """h as a (G, K) complex grid array; ``h`` may be an EstimateSolution."""
    if isinstance(h, EstimateSolution):
        h = h.h_grid
    h = np.asarray(h, dtype=complex)
    return h.reshape(-1, 1) if h.ndim == 1 else h


def _check_characteristic_shape(h, density):
    if h.shape != (density.grid_size, density.dim):
        raise ValueError(
            f"h has shape {h.shape}, expected {(density.grid_size, density.dim)}"
        )


def _grid_term(vec, values):
    """Grid mean of vec^T values conj(vec), for (G, K) vec and (G, K, K) values."""
    return np.einsum("gk,gkn,gn->", vec, values, vec.conj()) / vec.shape[0]


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
    h = _grid_characteristic(h)
    _check_characteristic_shape(h, f)
    A = functional_symbol(weights, f.grid_size)
    total = _grid_term(A - h, f.values)
    if g is not None:
        total = total + _grid_term(h, g.values)
    return _real_mse(total)


def _lag_table(vec):
    """Coefficients of the outer product vec vec^H of a (G, K) grid vector.

    Entry i of the (G + 1, K, K) result is its coefficient at lag G/2 - i,
    so the rows G/2 - L .. G/2 + L hold the lags -m that pair with a
    density's coefficients F(m), m = -L .. L, in the order of its
    coefficient array; the lags -G/2 and G/2 share one coefficient, as
    they share one node of the grid.
    """
    G = vec.shape[0]
    table = _all_fourier_coefficients(vec[:, :, None] * vec.conj()[:, None, :])
    return table[(G // 2 - np.arange(G + 1)) % G]


class _ErrorFunctional:
    """The error of one fixed characteristic h, as a function of (f, g).

    For fixed h the error is linear in the densities (the structure of
    robust filtering, Kassam & Poor 1985, Proc. IEEE 73):

        evaluate_mse(h, f, g) = sum_m tr F(m) W_f(-m)^T + sum_m tr G(m) W_g(-m)^T,

    W_f(m) and W_g(m) being the lag-m coefficients of (A - h)(A - h)^H and
    h h^H, each tabulated by one FFT when first needed. A density is scored
    from its 2L + 1 coefficients at O(L K^2), with no grid values; since a
    density's coefficients and its values describe one function, this is
    :func:`evaluate_mse`'s grid quadrature to round-off.
    """

    def __init__(self, h, weights: FunctionalWeights):
        self.h = _grid_characteristic(h)
        self.diff = functional_symbol(weights, self.h.shape[0]) - self.h

    @cached_property
    def _signal_table(self):
        return _lag_table(self.diff)

    @cached_property
    def _noise_table(self):
        return _lag_table(self.h)

    def _term(self, density, noise):
        _check_characteristic_shape(self.h, density)
        table = self._noise_table if noise else self._signal_table
        mid, L = table.shape[0] // 2, density.max_lag
        return density.coeffs.ravel() @ table[mid - L : mid + L + 1].ravel()

    def __call__(self, f: SpectralDensity, g: SpectralDensity | None) -> float:
        total = self._term(f, noise=False)
        if g is not None:
            total = total + self._term(g, noise=True)
        return _real_mse(total)
