"""Canonical (causal) spectral factorization and the predictor built on it.

A full-rank density f admits exactly one factorization f = P P^* with

    P(lambda) = sum_{u >= 0} d(u) exp(-i u lambda)

causal, invertible inside the unit disk and normalized so that d(0) is
lower triangular with a positive diagonal. The factor is found by a
Newton-type fixed point on the frequency grid: start from the constant
Cholesky factor of the zero-lag coefficient and repeatedly multiply by the
causal part of psi^{-1} f psi^{-*} + I. Convergence is quadratic for
densities that are smooth and positive definite on the grid; rank-deficient
inputs are rejected.

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
    _blocks_symbol,
    _finish_solution,
    _summability_warning,
    functional_symbol,
)
from .lifting import FunctionalWeights
from .spectral import SpectralDensity, _alternating_signs

__all__ = [
    "Factorization",
    "spectral_factorize",
    "left_inverse",
    "extrapolate_factorized",
]

RANK_TOLERANCE = 1e-12
# iteration budget of the fixed point, which normally converges in well
# under twenty steps
MAX_ITERATIONS = 100
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


def spectral_factorize(f: SpectralDensity, tol: float = 1e-10) -> Factorization:
    """Compute the causal factor of a full-rank density.

    Parameters
    ----------
    f : SpectralDensity
        Must be Hermitian positive definite at every grid node.
    tol : float
        Grid sup-norm target for ``P P^* - f`` (scaled by the magnitude of
        f when that exceeds one).

    Raises
    ------
    MultiplicityError
        If f is rank deficient somewhere on the grid (only the full-rank
        square case is supported).
    FactorizationError
        If the residual target is not met within ``MAX_ITERATIONS``; the
        residual is attached to the exception. Densities with spectral zeros
        on the unit circle (non-regular inputs) end up here.
    """
    fv = 0.5 * (f.values + np.conj(np.transpose(f.values, (0, 2, 1))))
    G, K = fv.shape[0], fv.shape[1]
    eigs = np.linalg.eigvalsh(fv)
    scale = float(eigs.max(initial=0.0))
    if scale <= 0.0 or eigs.min() <= RANK_TOLERANCE * scale:
        raise MultiplicityError(
            "density is rank deficient (or has a spectral zero) on the grid; "
            "only full-rank factorization is supported"
        )
    target = tol * max(1.0, float(np.abs(fv).max()))
    gamma0 = fv.mean(axis=0)
    gamma0 = 0.5 * (gamma0 + gamma0.conj().T)
    psi = np.tile(np.linalg.cholesky(gamma0), (G, 1, 1)).astype(complex)
    identity = np.eye(K)
    residual = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        psi_inv = np.linalg.inv(psi)
        ratio = psi_inv @ fv @ np.conj(np.transpose(psi_inv, (0, 2, 1))) + identity
        plus = _causal_part(ratio)
        zero_lag = 0.5 * ratio.mean(axis=0)  # the zero-lag tap
        skew = np.triu(zero_lag)
        skew = skew - skew.conj().T
        psi = psi @ (plus + skew)
        residual = float(
            np.abs(psi @ np.conj(np.transpose(psi, (0, 2, 1))) - fv).max()
        )
        if residual <= target:
            break
    if residual > target:
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
        grid_size=f.grid_size,
    )
    check = fact.symbol()
    residual_trunc = float(
        np.abs(check @ np.conj(np.transpose(check, (0, 2, 1))) - fv).max()
    )
    if residual_trunc > max(target, residual):
        fact = Factorization(
            coeffs=taps[: G // 2],
            residual=residual,
            iterations=iterations,
            grid_size=f.grid_size,
        )
    return fact


def _left_inverse_values(p_values: np.ndarray):
    """Pointwise left inverse Q with Q P = I, for full column rank P."""
    G, K, M = p_values.shape
    sv = np.linalg.svd(p_values, compute_uv=False)
    smax = float(sv.max())
    smin = float(sv.min())
    if smin <= 0.0 or smax / smin > FACTOR_COND_LIMIT:
        raise SingularFactorError(
            "causal factor is singular (or nearly singular) at a grid node; "
            "no bounded left inverse"
        )
    if K == M:
        return np.linalg.inv(p_values)
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
    G = fact.grid_size
    S = _blocks_symbol(sums, 0, G)  # (G, M)
    Q = _left_inverse_values(fact.symbol())
    A = functional_symbol(weights, G)
    h = A - np.einsum("gm,gmk->gk", S, Q)
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
