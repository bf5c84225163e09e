"""Harmonic lifting between periodic-covariance processes and vector sequences.

A zero-mean process whose covariance repeats with period T is cut into the
period blocks ``z_j(u) = z(u + j T)``, ``u in [0, T)``, and each block is
expanded in the orthonormal exponential basis

    e_k(u) = T^{-1/2} exp(2 pi i nu(k) u / T),   k = 1, 2, ...

with the frequencies interleaved as nu(1) = 0, nu(2) = +1, nu(3) = -1,
nu(4) = +2, ... Keeping the first K basis elements turns the process into a
K-component stationary vector sequence; every estimator in this package
operates on that sequence. Because ``e_k e_n`` integrates to one exactly
when the frequencies cancel, expanding a weight function pairs index k with
its conjugate partner sigma(k); ``compute_weights`` applies that pairing so
that entry k of a weight block is literally the number multiplying
component k of the lifted sequence in the target functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "HORIZONS",
    "LiftConfig",
    "FunctionalWeights",
    "SummabilityReport",
    "frequency_index",
    "conjugate_pair_permutation",
    "compute_weights",
    "reconstruct_pc",
    "check_weight_summability",
]

HORIZONS = ("interpolation", "extrapolation", "extrapolation_finite", "filtering")


def frequency_index(k: int) -> int:
    """Frequency nu(k) = (-1)^k * floor(k/2) of basis element k (k >= 1)."""
    k = int(k)
    if k < 1:
        raise ValueError("basis index must be >= 1")
    return (k // 2) if k % 2 == 0 else -(k // 2)


def conjugate_pair_permutation(k: int) -> int:
    """The involution pairing each basis element with its conjugate.

    sigma(1) = 1, sigma(2l) = 2l+1, sigma(2l+1) = 2l; it satisfies
    nu(sigma(k)) = -nu(k).
    """
    k = int(k)
    if k < 1:
        raise ValueError("basis index must be >= 1")
    if k == 1:
        return 1
    return k + 1 if k % 2 == 0 else k - 1


@dataclass(frozen=True)
class LiftConfig:
    """Lifting configuration: period, retained harmonics, quadrature nodes.

    ``quadrature_points`` defaults to ``max(64, 4 * n_harmonics)``; at least
    ``4 * n_harmonics`` nodes are required so the quadrature resolves the
    highest retained frequency exactly.
    """

    period: float
    n_harmonics: int
    quadrature_points: int | None = None

    def __post_init__(self):
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise ValueError("period must be a positive real")
        if self.n_harmonics < 1:
            raise ValueError("n_harmonics must be >= 1")
        q = self.quadrature_points
        if q is None:
            q = max(64, 4 * self.n_harmonics)
            object.__setattr__(self, "quadrature_points", q)
        if q < 4 * self.n_harmonics:
            raise ValueError("quadrature_points must be at least 4 * n_harmonics")

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([frequency_index(k) for k in range(1, self.n_harmonics + 1)])


@dataclass(frozen=True, eq=False)
class FunctionalWeights:
    """Weight blocks of a lifted linear functional.

    ``blocks[j]`` is the complex K-vector multiplying block j of the lifted
    sequence. ``horizon`` tags which estimation problem the weights define:
    interpolation and finite extrapolation store exactly n+1 blocks for a
    horizon of n; infinite-horizon kinds store a truncation of the tail.
    The weights keep a read-only copy of the blocks they are given, so
    they are immutable, and what is derived from them alone (the last
    nonzero block, the summability report, the weight symbol of
    ``estimators.functional_symbol``, the largest block norm) is computed
    once per object. Equality is identity, so weights can be dict keys.
    """

    blocks: np.ndarray = field(repr=False)
    horizon: str = "interpolation"

    def __post_init__(self):
        arr = np.atleast_2d(np.array(self.blocks, dtype=complex))
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("blocks must form a (n_blocks, K) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weight blocks contain non-finite entries")
        if self.horizon not in HORIZONS:
            raise ValueError(f"horizon must be one of {HORIZONS}")
        arr.flags.writeable = False
        object.__setattr__(self, "blocks", arr)

    @classmethod
    def interpolation(cls, blocks):
        return cls(blocks=blocks, horizon="interpolation")

    @classmethod
    def extrapolation(cls, blocks):
        return cls(blocks=blocks, horizon="extrapolation")

    @classmethod
    def extrapolation_finite(cls, blocks):
        return cls(blocks=blocks, horizon="extrapolation_finite")

    @classmethod
    def filtering(cls, blocks):
        return cls(blocks=blocks, horizon="filtering")

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        """Horizon index n (n+1 stored blocks)."""
        return self.n_blocks - 1

    @cached_property
    def _memo(self) -> dict:
        """What is derived from the blocks alone, filled on first use: the
        summability report, the weight symbol of each grid size and the
        weight scale."""
        return {}

    @cached_property
    def last_nonzero(self) -> int:
        norms = np.linalg.norm(self.blocks, axis=1)
        nz = np.nonzero(norms > 0.0)[0]
        return int(nz[-1]) if nz.size else 0


def _shared_dim(weights: FunctionalWeights, *densities) -> int:
    """The dimension K of the weights, refused unless every density has it.

    ``None`` (absent noise) is skipped, and a density may be anything with a
    ``dim``, such as a ``Factorization``. The one dimension rule of the
    estimators, the factorization route, the oracle and the command line.
    """
    K = weights.dim
    if any(d is not None and d.dim != K for d in densities):
        raise ValueError("weights and densities must share one dimension")
    return K


def compute_weights(
    a: Callable[[np.ndarray], np.ndarray],
    cfg: LiftConfig,
    j_max: int,
    horizon: str = "interpolation",
) -> FunctionalWeights:
    """Lift a weight function on [0, (j_max+1) T) into per-block K-vectors.

    Entry k of block j is the quadrature value of

        T^{-1/2} int_0^T a(u + j T) exp(+2 pi i nu(k) u / T) du,

    i.e. the coefficient that multiplies component k of the lifted sequence
    after conjugate-frequency pairing. The quadrature is the periodic
    trapezoid rule on ``cfg.quadrature_points`` uniform nodes in [0, T),
    exact whenever ``a`` is band-limited to the retained frequencies.

    Parameters
    ----------
    a : callable
        Vectorized function of time; sampled on [0, (j_max+1) T).
    cfg : LiftConfig
    j_max : int
        Last block index; j_max + 1 blocks are produced.
    horizon : str
        Which estimation problem the weights define.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    T = cfg.period
    q = cfg.quadrature_points
    u = np.arange(q) * (T / q)
    nu = cfg.frequencies
    phases = np.exp(2j * np.pi * np.outer(u, nu) / T)  # (q, K)
    scale = (T / q) / np.sqrt(T)
    blocks = np.zeros((j_max + 1, cfg.n_harmonics), dtype=complex)
    for j in range(j_max + 1):
        samples = np.asarray(a(u + j * T), dtype=complex)
        if samples.shape != u.shape:
            samples = np.broadcast_to(samples, u.shape).astype(complex)
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"weight function returned non-finite samples in block {j}")
        blocks[j] = scale * (phases.T @ samples)
    return FunctionalWeights(blocks=blocks, horizon=horizon)


def reconstruct_pc(coeff_blocks, cfg: LiftConfig, u_grid) -> np.ndarray:
    """Rebuild process samples z(u + j T) from lifted coefficient blocks.

    Returns an array of shape (n_blocks, len(u_grid)) with
    z(u + j T) = sum_k blocks[j, k] e_k(u).
    """
    blocks = np.atleast_2d(np.asarray(coeff_blocks, dtype=complex))
    if blocks.shape[0] < 1 or blocks.size == 0:
        raise ValueError("need at least one coefficient block")
    if blocks.shape[1] != cfg.n_harmonics:
        raise ValueError(
            f"blocks have {blocks.shape[1]} components, config retains {cfg.n_harmonics}"
        )
    u = np.asarray(u_grid, dtype=float)
    phases = np.exp(2j * np.pi * np.outer(u, cfg.frequencies) / cfg.period)
    return blocks @ phases.T / np.sqrt(cfg.period)


@dataclass(frozen=True)
class SummabilityReport:
    """Diagnostics for the weight-decay conditions of each horizon kind."""

    sum_norms: float
    sum_weighted_square_norms: float
    tail_growth: float
    passed: bool
    notes: tuple[str, ...]


def check_weight_summability(weights: FunctionalWeights) -> SummabilityReport:
    """Report the decay diagnostics appropriate to the horizon kind.

    Finite horizons only need finite blocks. Infinite horizons additionally
    need a summable tail; since only a truncation is stored, this is judged
    by the growth of the partial sums over the final half of the stored
    blocks (more than 1% growth flags the tail). A heuristic, not a proof.
    The report is computed once per weights object.
    """
    if "summability" in weights._memo:
        return weights._memo["summability"]
    norms = np.linalg.norm(weights.blocks, axis=1)
    s1 = float(norms.sum())
    weighted = (np.arange(weights.n_blocks) + 1.0) * norms**2
    s2 = float(weighted.sum())
    notes: list[str] = []

    def final_half_growth(series: np.ndarray) -> float:
        total = float(series.sum())
        if weights.n_blocks < 8 or total <= 0.0:
            return 0.0
        head = float(series[: weights.n_blocks // 2].sum())
        return (total - head) / total

    if weights.horizon in ("interpolation", "extrapolation_finite"):
        growth = 0.0
        passed = True
    elif weights.horizon == "filtering":
        growth = final_half_growth(norms)
        passed = growth <= 0.01
    else:
        growth = max(final_half_growth(norms), final_half_growth(weighted))
        passed = growth <= 0.01
    if not passed:
        notes.append("tail not decaying; infinite-horizon summability suspect")
    report = weights._memo["summability"] = SummabilityReport(
        sum_norms=s1,
        sum_weighted_square_norms=s2,
        tail_growth=growth,
        passed=passed,
        notes=tuple(notes),
    )
    return report
