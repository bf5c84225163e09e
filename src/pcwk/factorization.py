"""Canonical (causal) spectral factorization and the predictor built on it.

A full-rank density f admits exactly one factorization f = P P^* with

    P(lambda) = sum_{u >= 0} d(u) exp(-i u lambda)

causal, invertible inside the unit disk and normalized so that d(0) is
lower triangular with a positive diagonal. The factor is found by a
Newton-type fixed point (Wilson 1972): start from the constant Cholesky
factor of the zero-lag coefficient and repeatedly multiply by the causal
part of psi^{-1} f psi^{-*} + I. Convergence is quadratic for densities
that are smooth and positive definite on the grid; rank-deficient inputs
are rejected.

The fixed point runs on iteration grids of its own before the output
grid of f. The factor of a band of L lags is a polynomial of order L, so
the first iteration grid has about 8 (L + 1) nodes, at least
``MIN_ITERATION_GRID``: fewer than a large output grid has, and more than
a small one, whose nodes alias the iterates' taps and stall the residual.
The taps found there are put on the output grid, where every check runs
and output-grid steps follow only while the residual misses its target. A
wide band (8 L >= G) on a grid of at least ``MIN_ITERATION_GRID`` nodes,
or a band that fails on its iteration grids, is iterated on the output
grid from the constant start.

The moving-average taps d(u) also answer the forward-estimation problem
from exact past observations: the unavoidable error is carried by the
innovations inside the functional's span, so the mean square error is a
plain sum of squares of weighted tap sums and no linear system needs to be
solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationError, MultiplicityError, SingularFactorError
from .estimators import (
    EstimateSolution,
    _characteristic,
    _finish_solution,
    _summability_warning,
    functional_symbol,
)
from .lifting import FunctionalWeights
from .spectral import (
    DEFAULT_GRID_SIZE,
    SpectralDensity,
    _alternating_signs,
    _node_norms,
    check_minimality,
)

__all__ = [
    "Factorization",
    "spectral_factorize",
    "left_inverse",
    "extrapolate_factorized",
]

# iteration budget of the fixed point, which normally converges in well
# under twenty steps
MAX_ITERATIONS = 100
# fewest nodes of the grid a narrow-band density is iterated on
MIN_ITERATION_GRID = 128
# largest singular-value ratio of the factor's symbol that still has a
# bounded left inverse
FACTOR_COND_LIMIT = 1e12


@dataclass(frozen=True)
class Factorization:
    """Causal factor coefficients d(0..U) with f = P P^*.

    ``coeffs`` has shape (U+1, K, M); the full-rank case produced by
    :func:`spectral_factorize` has M = K and d(0) lower triangular with a
    positive diagonal. ``residual`` is the grid sup-norm of P P^* minus the
    input density.
    """

    coeffs: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    grid_size: int

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 3:
            raise ValueError("coeffs must have shape (U+1, K, M)")
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def multiplicity(self) -> int:
        return self.coeffs.shape[2]

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def symbol(self) -> np.ndarray:
        """P(lambda) on the grid, shape (G, K, M)."""
        G = self.grid_size
        n, K, M = self.coeffs.shape
        if n > G:
            raise ValueError("factor order exceeds the grid size")
        buf = np.zeros((G, K, M), dtype=complex)
        signs = _alternating_signs(G)
        buf[:n] = self.coeffs * signs[:n, None, None]
        return np.fft.fft(buf, axis=0)

    def density(self) -> SpectralDensity:
        """The moving-average density P P^*."""
        return SpectralDensity.from_moving_average(
            list(self.coeffs), grid_size=self.grid_size
        )


def _taps_from_grid(values: np.ndarray) -> np.ndarray:
    """Taps d(u) of M(lambda) = sum_u d(u) exp(-i u lambda) from grid samples.

    Index u runs 0..G-1 with the upper half aliasing the anticausal side.
    Inverse of building the grid from ``(-1)^u d(u)`` with an FFT.
    """
    G = values.shape[0]
    signs = _alternating_signs(G).reshape((G,) + (1,) * (values.ndim - 1))
    return np.fft.ifft(values, axis=0) * signs


def _causal_part(values: np.ndarray) -> np.ndarray:
    """Half the zero lag plus all strictly causal taps of grid samples."""
    G = values.shape[0]
    taps = _taps_from_grid(values)
    taps[0] *= 0.5
    taps[G // 2 :] = 0.0
    signs = _alternating_signs(G).reshape(G, 1, 1)
    return np.fft.fft(taps * signs, axis=0)


def _iteration_grids(f: SpectralDensity) -> list[int]:
    """Grids the fixed point runs on before the output grid, coarsest first.

    A band of L lags has a factor of order L, which a grid of
    M = max(``MIN_ITERATION_GRID``, 8 (L + 1)) nodes, rounded up to a power
    of two, resolves with room for the aliasing of the non-polynomial
    iterates. The grids are M and its doublings up to the default grid
    size, G excepted; when M < G they go on up to 2 G, so that a grid
    finer than G is reached only after the coarser ones stalled, as the
    aliasing of a slowly decaying inverse factor makes them. A wide band
    (8 L >= G) on an output grid of at least ``MIN_ITERATION_GRID`` nodes
    gets none: it is iterated on the output grid alone.
    """
    G, L = f.grid_size, f.max_lag
    if 8 * L >= G >= MIN_ITERATION_GRID:
        return []
    M = 1 << (max(MIN_ITERATION_GRID, 8 * (L + 1)) - 1).bit_length()
    top = max(2 * G if M < G else 0, DEFAULT_GRID_SIZE)
    return [M << k for k in range((top // M).bit_length()) if M << k != G]


def _hermitian_values(f: SpectralDensity) -> np.ndarray:
    """Hermitian part of f on its grid."""
    return 0.5 * (f.values + np.conj(np.transpose(f.values, (0, 2, 1))))


def _residual(psi: np.ndarray, fv: np.ndarray) -> float:
    """Grid sup-norm of psi psi^* - f."""
    return float(np.abs(psi @ np.conj(np.transpose(psi, (0, 2, 1))) - fv).max())


def _start(fv: np.ndarray, taps: np.ndarray | None):
    """First iterate on the grid of fv and its residual.

    The symbol of the given causal taps, or without taps the constant
    Cholesky factor of the zero-lag coefficient (residual unknown, inf).
    """
    G = fv.shape[0]
    if taps is None:
        gamma0 = fv.mean(axis=0)
        gamma0 = 0.5 * (gamma0 + gamma0.conj().T)
        return np.tile(np.linalg.cholesky(gamma0), (G, 1, 1)).astype(complex), np.inf
    buf = np.zeros((G,) + taps.shape[1:], dtype=complex)
    buf[: len(taps)] = taps * _alternating_signs(len(taps))[:, None, None]
    psi = np.fft.fft(buf, axis=0)
    return psi, _residual(psi, fv)


def _fixed_point(fv, psi, residual, target, stall=False):
    """Newton-Wilson steps from psi while the residual misses the target.

    At most ``MAX_ITERATIONS`` steps. With ``stall`` the steps also end at
    the first one that does not halve the residual, the sign of a grid that
    aliases the iterates' taps, and the better of the last two iterates is
    kept. Returns the iterate, its residual and the number of steps.
    """
    identity = np.eye(fv.shape[1])
    steps = 0
    while not residual <= target and steps < MAX_ITERATIONS:
        psi_inv = np.linalg.inv(psi)
        ratio = psi_inv @ fv @ np.conj(np.transpose(psi_inv, (0, 2, 1))) + identity
        plus = _causal_part(ratio)
        zero_lag = 0.5 * ratio.mean(axis=0)  # the zero-lag tap
        skew = np.triu(zero_lag)
        skew = skew - skew.conj().T
        step = psi @ (plus + skew)
        step_residual = _residual(step, fv)
        steps += 1
        if stall and not step_residual <= 0.5 * residual:
            if step_residual < residual:
                psi, residual = step, step_residual
            break
        psi, residual = step, step_residual
    return psi, residual, steps


def spectral_factorize(f: SpectralDensity, tol: float = 1e-10) -> Factorization:
    """Compute the causal factor of a full-rank density.

    The fixed point runs on iteration grids picked from the lag band L of f
    (``_iteration_grids``). The first has max(``MIN_ITERATION_GRID``,
    8 (L + 1)) nodes, rounded up to a power of two: coarser than a large
    output grid, which saves time, and finer than a small one, whose nodes
    alias the iterates' taps and stall the residual. Each grid runs its
    steps down to round-off; one that stalls above the target hands its
    taps d(0..L) to the next grid, twice as fine. The taps are then put on
    the output grid of f, where the residual is checked against the target.
    Output-grid steps, warm-started from them, follow only while it is
    missed, or down to round-off when the last iteration grid stalled. The
    iteration grids end at the first one on which f fails
    ``check_minimality``. If none gave taps, or the output-grid steps stall
    above the target, the fixed point restarts on the output grid from the
    constant Cholesky factor, as for a wide band. Every check (rank,
    residual, gauge, truncated taps) runs on the output grid.

    Parameters
    ----------
    f : SpectralDensity
        Must be Hermitian positive definite at every grid node.
    tol : float
        Grid sup-norm target for ``P P^* - f`` (scaled by the magnitude of
        f when that exceeds one).

    Returns
    -------
    Factorization
        Its ``iterations`` counts the fixed-point steps on every grid.

    Raises
    ------
    MultiplicityError
        If f fails ``check_minimality``: rank deficient or nearly so
        somewhere on the grid (only the full-rank square case is
        supported).
    FactorizationError
        If the residual target is not met within ``MAX_ITERATIONS`` steps of
        the restart on the output grid; the residual is attached to the
        exception. Densities with spectral zeros on the unit circle
        (non-regular inputs) end up here.
    """
    G = f.grid_size
    if not check_minimality(f).passed:
        raise MultiplicityError(
            "density is rank deficient (or has a spectral zero) on the grid; "
            "only full-rank factorization is supported"
        )
    fv = _hermitian_values(f)
    target = tol * max(1.0, float(np.abs(fv).max()))
    iterations = 0
    taps = None  # the factor's taps d(0..L) from the iteration grids
    converged = False
    for M in _iteration_grids(f):
        coarse = SpectralDensity(f.dim, f.coeffs, grid_size=M)
        if not check_minimality(coarse).passed:
            break
        cv = _hermitian_values(coarse)
        # steps on an iteration grid are cheap: run them down to round-off,
        # so that the output grid starts as close to the factor as they get
        psi, residual, steps = _fixed_point(cv, *_start(cv, taps), 0.0, stall=True)
        iterations += steps
        # the factor of a band of L lags is a polynomial of order L: taps
        # beyond L are round-off or aliasing
        taps = _taps_from_grid(psi)[: f.max_lag + 1]
        converged = residual <= target
        if converged:
            break
    residual = np.inf
    if taps is not None:
        # taps of a grid that stalled carry its aliasing error, which the
        # output grid's residual may hide: their steps also go to round-off
        goal = target if converged else 0.0
        psi, residual, steps = _fixed_point(fv, *_start(fv, taps), goal, stall=True)
        iterations += steps
    if not residual <= target:
        psi, residual, steps = _fixed_point(fv, *_start(fv, None), target)
        iterations += steps
        if not residual <= target:
            raise FactorizationError(
                f"factorization did not converge (residual {residual:.3e} after "
                f"{iterations} iterations); input may be non-regular",
                residual=residual,
            )
    taps = _taps_from_grid(psi)
    # gauge: rotate so d(0) is lower triangular with positive diagonal
    q_h, r = np.linalg.qr(taps[0].conj().T)  # d(0) = r^H q_h^H
    phases = np.diag(r.conj().T).copy()
    phases = np.where(np.abs(phases) > 0, phases / np.abs(phases), 1.0)
    taps = taps @ (q_h @ np.diag(phases.conj()))
    norms = np.linalg.norm(taps[: G // 2], axis=(1, 2))
    floor = 1e-15 * max(norms.max(), 1e-300)
    last = int(np.nonzero(norms > floor)[0].max(initial=0))
    fact = Factorization(
        coeffs=taps[: last + 1],
        residual=residual,
        iterations=iterations,
        grid_size=G,
    )
    if _residual(fact.symbol(), fv) > max(target, residual):
        fact = Factorization(
            coeffs=taps[: G // 2],
            residual=residual,
            iterations=iterations,
            grid_size=G,
        )
    return fact


def _left_inverse_values(p_values: np.ndarray):
    """Pointwise left inverse Q with Q P = I, for full column rank P.

    The factor is refused (``SingularFactorError``) when its singular
    values on the grid, largest over smallest, exceed ``FACTOR_COND_LIMIT``.
    A square P is inverted first: sigma_max <= max_g ||P_g||_F and
    1 / sigma_min = max_g ||P_g^{-1}||_2 <= max_g ||Q_g||_F, so when the
    product of those maxima is at most half the limit the rule passes and
    Q is returned without the ``svd``. The factor two covers the rounding
    of the ``svd`` and of Q. Otherwise the singular values decide, as for
    a non-square P.
    """
    G, K, M = p_values.shape
    q = None
    if K == M:
        try:
            q = np.linalg.inv(p_values)
        except np.linalg.LinAlgError:
            pass
        else:
            bound = float(_node_norms(p_values).max()) * float(_node_norms(q).max())
            if bound <= FACTOR_COND_LIMIT / 2:
                return q
    sv = np.linalg.svd(p_values, compute_uv=False)
    smax = float(sv.max())
    smin = float(sv.min())
    if smin <= 0.0 or smax / smin > FACTOR_COND_LIMIT:
        raise SingularFactorError(
            "causal factor is singular (or nearly singular) at a grid node; "
            "no bounded left inverse"
        )
    if K == M:
        return np.linalg.inv(p_values) if q is None else q
    gram = np.conj(np.transpose(p_values, (0, 2, 1))) @ p_values
    return np.linalg.solve(gram, np.conj(np.transpose(p_values, (0, 2, 1))))


def left_inverse(fact: Factorization) -> np.ndarray:
    """Q(lambda) with Q P = I at every grid node, as a (G, K, K) array.

    The factor must be square and of full rank.
    """
    if fact.dim != fact.multiplicity:
        raise ValueError("left_inverse expects a square factor; got K != M")
    return _left_inverse_values(fact.symbol())


def _weighted_tap_sums(weights: FunctionalWeights, fact: Factorization) -> np.ndarray:
    """Rows s_l = sum_{j >= l} a_j^T d(j - l), shape (n_blocks, M)."""
    blocks = weights.blocks
    n = blocks.shape[0]
    out = np.zeros((n, fact.multiplicity), dtype=complex)
    order = fact.order
    for l in range(n):
        for j in range(l, min(n, l + order + 1)):
            out[l] += blocks[j] @ fact.coeffs[j - l]
    return out


def extrapolate_factorized(f, weights: FunctionalWeights) -> EstimateSolution:
    """Forward estimation from exact past observations, factorization route.

    Accepts either a density (factorized internally) or a ready
    :class:`Factorization`. The mean square error is the sum of squared
    weighted tap sums; the spectral characteristic is the weight polynomial
    minus their generating function times the factor's left inverse.
    """
    if weights.horizon not in ("extrapolation", "extrapolation_finite"):
        raise ValueError("weights must carry an extrapolation horizon")
    _summability_warning(weights)
    fact = f if isinstance(f, Factorization) else spectral_factorize(f)
    if weights.dim != fact.dim:
        raise ValueError("weights and factor must share one dimension")
    sums = _weighted_tap_sums(weights, fact)
    mse = float(np.sum(np.abs(sums) ** 2))
    Q = _left_inverse_values(fact.symbol())
    h = _characteristic(functional_symbol(weights, fact.grid_size), sums, 0, Q)
    return _finish_solution(
        weights.horizon,
        mse,
        h,
        sums,
        {
            "n": weights.n,
            "route": "factorization",
            "factor_order": fact.order,
            "factor_residual": fact.residual,
        },
        weights,
    )
