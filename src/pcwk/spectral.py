"""Matrix spectral densities on a uniform frequency grid.

A density is a K x K Hermitian-matrix-valued trigonometric polynomial

    f(lambda) = sum_m F(m) exp(i m lambda),      lambda in [-pi, pi),

with the Hermitian pairing ``F(-m) = F(m)^H``. :class:`SpectralDensity`
stores it once, as a dense ``(2 L + 1, K, K)`` coefficient array with lag m
at index ``m + L`` (the layout of ``oracle.CovarianceTable``); lags beyond L
are zero. Its grid values ``f.values`` are computed by one inverse FFT on
first use and then cached on the object, read-only, and so are the node
eigenvalues ``f.eigenvalues`` of its Hermitian part, which every
positive-definiteness decision reads. What the solvers derive from the
densities alone is kept on the density too, computed once per object: the
kernel (f+g)^{-1}, its coefficient table and the Cholesky factor of its
block-Toeplitz sections, gated by :func:`check_minimality` and written by
:func:`_kernel_slot` alone, in one slot for exact data (f^{-1}, which
the inverse-moment class residual reads too) and one for the last noise
density g, and the causal factor that ``extrapolate_factorized`` reads
(``factorization._memoized_factor``). All
integrals are trapezoid sums over the uniform grid
``lambda_g = -pi + 2 pi g / G``, which integrate the retained
trigonometric band exactly. Densities that are not
polynomials (inverses of polynomials, iterates of fixed-point solvers) are
built from their grid samples with :meth:`SpectralDensity.from_grid`, which
keeps the samples as the cached values and their trigonometric interpolant
as the array, so the values and the coefficients of every density describe
one function. A band reaches at most lag G/2, where the interpolant holds
the Nyquist coefficient as the pair +-G/2 at half weight each.

This module is the one home of the grid convention: on ``lambda_g`` lag m
carries the phase (-1)^m e^{2 pi i m g / G}, and the package's only two
FFTs apply it. :func:`_admit_lag` is its one resolution rule: every lag,
truncation, horizon and window that a density, a coefficient read or a
solve reaches is admitted there, by default up to G/2 - 1, the largest
lag a read by lag mod G resolves, and up to G/2 for a density's band. :func:`_grid_symbol` writes any run of lags to the grid
(density values, weight polynomials, solved blocks, causal factors) by one
inverse FFT, and :func:`_all_fourier_coefficients`, behind the public
:func:`fourier_coefficients`, reads lags back from grid samples by one
forward FFT.
"""

from __future__ import annotations

import csv
import logging
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cholesky import SectionFactor
from .errors import AliasingError, MinimalityError

DEFAULT_GRID_SIZE = 2048
PSD_TOLERANCE = 1e-10
DEFAULT_COND_THRESHOLD = 1e12

_log = logging.getLogger("pcwk")

__all__ = [
    "DEFAULT_GRID_SIZE",
    "PSD_TOLERANCE",
    "DEFAULT_COND_THRESHOLD",
    "SpectralDensity",
    "frequency_grid",
    "fourier_coefficients",
    "check_minimality",
    "validate_density",
    "MinimalityReport",
    "DensityReport",
    "read_density_csv",
    "write_density_csv",
]


def frequency_grid(grid_size: int) -> np.ndarray:
    """Angular grid lambda_g = -pi + 2*pi*g/G for g = 0..G-1."""
    return -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _admit_lag(lag, grid_size, largest=None, name="lag"):
    """Refuse a lag beyond ``largest``, by default G/2 - 1.

    G/2 - 1 is the largest lag that a read by lag mod G tells apart from
    its alias -lag; a density's band, which holds lag G/2 as its Nyquist
    pair, passes ``largest=G/2``. Raises ``AliasingError``.
    """
    largest = grid_size // 2 - 1 if largest is None else largest
    if lag > largest:
        raise AliasingError(f"{name} {lag} is not resolvable on a grid of size "
                            f"{grid_size} (largest {largest})")


def _stack_lags(coeffs: Mapping, dim: int, grid_size: int) -> np.ndarray:
    """The (2 L + 1, K, K) array of a lag -> matrix mapping, L its largest |lag|."""
    lags = [int(m) for m in coeffs]
    L = max((abs(m) for m in lags), default=0)
    _admit_lag(L, grid_size, largest=grid_size // 2)
    mats = [np.asarray(value, dtype=complex) for value in coeffs.values()]
    mats = [arr.reshape(1, 1) if arr.ndim == 0 else arr for arr in mats]
    bad = next((arr.shape for arr in mats if arr.shape != (dim, dim)), None)
    if bad is not None:
        if len(bad) != 2 or bad[0] != bad[1]:
            raise ValueError(f"coefficient must be a square matrix, got shape {bad}")
        raise ValueError(f"coefficient dimension {bad[0]} != {dim}")
    out = np.zeros((2 * L + 1, dim, dim), dtype=complex)
    if mats:
        out[np.array(lags) + L] = np.stack(mats)
    return out


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Trigonometric-polynomial matrix density.

    Parameters
    ----------
    dim : int
        Matrix dimension K.
    coeffs : (2 L + 1, K, K) array, or mapping lag -> (K, K) array
        Fourier coefficients F(m), lag m at index ``m + L``; a mapping is
        stacked into that array (scalars are accepted for K = 1, and absent
        lags are zero). A valid density has F(-m) = F(m)^H for every lag,
        but the constructor does not enforce it (``validate_density``
        reports it). Stored read-only.
    grid_size : int
        Number of quadrature nodes G, a power of two.

    Densities are immutable and compare by identity, as the kernel memo
    does (``is``), so a density can be a dict key or a set member.
    """

    dim: int
    coeffs: np.ndarray = field(repr=False)
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not _is_power_of_two(self.grid_size):
            raise ValueError("grid_size must be a power of two")
        if isinstance(self.coeffs, Mapping):
            arr = _stack_lags(self.coeffs, self.dim, self.grid_size)
        else:
            arr = np.array(self.coeffs, dtype=complex)
            if arr.ndim != 3 or arr.shape[0] % 2 != 1 or arr.shape[1:] != (
                self.dim, self.dim
            ):
                raise ValueError(
                    f"coefficients must have shape (2 L + 1, {self.dim}, {self.dim}), "
                    f"got {arr.shape}"
                )
            _admit_lag(arr.shape[0] // 2, self.grid_size, largest=self.grid_size // 2)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient contains non-finite entries")
        object.__setattr__(self, "coeffs", _read_only(arr))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, grid_size=DEFAULT_GRID_SIZE):
        """Build from a lag -> matrix map, inferring the dimension."""
        first = next(iter(coeffs.values()))
        dim = np.atleast_2d(np.asarray(first, dtype=complex)).shape[0]
        return cls(dim=dim, coeffs=dict(coeffs), grid_size=grid_size)

    @classmethod
    def constant(cls, matrix, grid_size=DEFAULT_GRID_SIZE):
        """Frequency-flat density f(lambda) = F(0)."""
        return cls.from_coeffs({0: matrix}, grid_size=grid_size)

    @classmethod
    def white(cls, dim, scale=1.0, grid_size=DEFAULT_GRID_SIZE):
        """White density f(lambda) = scale * I."""
        return cls.constant(scale * np.eye(dim), grid_size=grid_size)

    @classmethod
    def from_moving_average(cls, d_coeffs: Sequence, grid_size=DEFAULT_GRID_SIZE):
        """Density of the one-sided moving average with matrix taps d(u).

        ``d_coeffs`` is an ordered sequence of (K, M) arrays; the result is
        f = P P^* with P(lambda) = sum_u d(u) exp(-i u lambda), so
        F(m) = sum_u d(u + m) d(u)^H for m >= 0.
        """
        d = [np.atleast_2d(np.asarray(x, dtype=complex)) for x in d_coeffs]
        if not d:
            raise ValueError("need at least one moving-average coefficient")
        d = np.array(d)
        order, dim = d.shape[0] - 1, d.shape[1]
        coeffs = np.zeros((2 * order + 1, dim, dim), dtype=complex)
        for u in range(order + 1):
            # the terms d(u + m) d(u)^H of the lags m = 0..order-u, in u order
            coeffs[order : 2 * order + 1 - u] += d[u:] @ d[u].conj().T
        coeffs[:order] = np.conj(np.transpose(coeffs[: order : -1], (0, 2, 1)))
        return cls(dim=dim, coeffs=coeffs, grid_size=grid_size)

    @classmethod
    def from_grid(cls, values):
        """Recover a density from samples on the standard grid.

        The samples, copied and read-only, become the density's grid values,
        and their number its grid size. Its coefficients are those of their
        trigonometric interpolant: every lag of their FFT, with the Nyquist
        coefficient split into the lags -G/2 and G/2 at half weight each
        (Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ch. 3), so they
        evaluate back to the samples. The Hermitian pairs whose norms both
        fall below 1e-15 of the largest coefficient are set to zero and the
        array is cut after the last kept lag.
        """
        samples = np.array(_as_grid_values(values))
        G = samples.shape[0]
        coeff_all = _all_fourier_coefficients(samples)
        norms = np.linalg.norm(coeff_all, axis=(1, 2))
        half = G // 2
        lags = np.arange(-half, half + 1)
        above = norms[lags % G] > 1e-15 * max(norms.max(), 1e-300)
        keep = above | above[::-1]
        keep[half] = True  # lag 0
        L = int(np.abs(lags[keep]).max())
        coeffs = np.where(keep[:, None, None], coeff_all[lags % G], 0.0)
        coeffs[np.abs(lags) == G / 2] *= 0.5  # the Nyquist pair; one node has none
        density = cls(dim=samples.shape[1], coeffs=coeffs[half - L : half + L + 1],
                      grid_size=G)
        vars(density)["values"] = _read_only(samples)  # the cache of ``values``
        return density

    # -- accessors -----------------------------------------------------

    @property
    def max_lag(self) -> int:
        return self.coeffs.shape[0] // 2

    @cached_property
    def values(self) -> np.ndarray:
        """f(lambda_g) on the grid, (G, K, K): one inverse FFT, cached, read-only."""
        return _read_only(_grid_symbol(self.coeffs, -self.max_lag, self.grid_size))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part of f at each node, (G, K).

        Computed once from ``values`` and cached, read-only.
        """
        return _read_only(_node_eigenvalues(self.values))

    def coeff(self, m: int) -> np.ndarray:
        """F(m), a zero matrix beyond the stored lags."""
        m, L = int(m), self.max_lag
        if abs(m) > L:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.coeffs[m + L]

    def scaled(self, factor: float) -> "SpectralDensity":
        return SpectralDensity(
            dim=self.dim, coeffs=factor * self.coeffs, grid_size=self.grid_size
        )


def _inverse_density(p: SpectralDensity) -> SpectralDensity:
    """The density p^{-1} of a polynomial p: ``from_grid`` of its grid inverse.

    Its exact-data kernel is p itself, so once its own gate passes its
    exact slot (:func:`_kernel_slot`) is seeded with p's grid values and the
    table of p's own lags, transposed, and no solve or moment read inverts
    the density back. A density the gate refuses is returned unseeded, and
    its solves meet the same refusal.
    """
    f = SpectralDensity.from_grid(_grid_inverse(p.values))
    G, L = p.grid_size, p.max_lag
    table = np.zeros((G, p.dim, p.dim), dtype=complex)
    # add.at: the lags +-G/2 of a band reaching G/2 share a row, as on the grid
    np.add.at(table, np.arange(-L, L + 1) % G, np.transpose(p.coeffs, (0, 2, 1)))
    with suppress(MinimalityError):
        _kernel_slot(f, None, seed=(p.values, _read_only(table)))
    return f


def _as_grid_values(values) -> np.ndarray:
    """Coerce grid samples to a (G, K, K) complex array."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim == 1:
        vals = vals.reshape(-1, 1, 1)
    if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
        raise ValueError(f"expected (G, K, K) samples, got shape {vals.shape}")
    return vals


def _grid_inverse(values: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of (G, K, K) grid samples; the one grid-stack ``inv``.

    At K = 1 the inverse is the elementwise reciprocal, the bits LAPACK
    returns for real samples and within a few ulps of them for complex
    ones, without the per-matrix overhead of the batched call; like LAPACK
    it raises ``LinAlgError`` when a sample is exactly zero, maps +-inf to
    zero and a NaN to NaN, without a floating-point warning.
    """
    if values.shape[1:] != (1, 1):
        return np.linalg.inv(values)
    if np.any(values == 0):
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(invalid="ignore"):
        return 1.0 / values


def _node_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of (G, K, K) grid samples.

    At K = 1 the one eigenvalue is the real part of the sample, which is what
    ``eigvalsh`` returns for the 1 x 1 Hermitian part.
    """
    if values.shape[1:] == (1, 1):
        return values[:, :, 0].real.copy()
    return np.linalg.eigvalsh(_hermitian_part(values))


def _hermitian_part(values: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 at each node of (G, K, K) samples, Hermitian to the bit."""
    return 0.5 * (values + np.conj(np.transpose(values, (0, 2, 1))))


def _node_norms(values: np.ndarray) -> np.ndarray:
    """Frobenius norm of the matrix at each node of (G, K, K) samples, (G,)."""
    flat = np.ascontiguousarray(values).view(float).reshape(values.shape[0], -1)
    return np.sqrt(np.einsum("gi,gi->g", flat, flat))


@lru_cache(maxsize=16)
def _alternating_signs(grid_size: int) -> np.ndarray:
    """(-1)^g for g = 0..G-1, cached per G, read-only."""
    signs = np.ones(grid_size)
    signs[1::2] = -1.0
    return _read_only(signs)


def _grid_symbol(coeffs: np.ndarray, first_lag: int, grid_size: int) -> np.ndarray:
    """sum_j coeffs[j] e^{i (first_lag + j) lambda} on the grid.

    The result has shape (G,) + ``coeffs.shape[1:]``. On
    lambda_g = -pi + 2 pi g / G the phase e^{i m lambda_g} is
    (-1)^m e^{2 pi i m g / G}, so the sum is one inverse FFT. Lags equal
    mod G share a node of the transform and their coefficients add up;
    distinct lags, the case of every band shorter than the grid, are
    written by assignment.
    """
    n = coeffs.shape[0]
    lags = first_lag + np.arange(n)
    signs = np.where(lags % 2, -1.0, 1.0).reshape((n,) + (1,) * (coeffs.ndim - 1))
    terms = signs * coeffs
    buf = np.zeros((grid_size,) + coeffs.shape[1:], dtype=complex)
    if n <= grid_size:
        buf[lags % grid_size] = terms
    else:
        np.add.at(buf, lags % grid_size, terms)
    out = np.fft.ifft(buf, axis=0)
    out *= grid_size
    return out


def _all_fourier_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients c(m) = (1/2pi) int M(lambda) e^{-i m lambda} d lambda.

    Returns an array indexed by m mod G along axis 0 (trapezoid sum over
    the standard grid, exact for the resolvable band).
    """
    G = values.shape[0]
    out = np.fft.fft(values, axis=0)
    out *= (_alternating_signs(G) / G).reshape((G,) + (1,) * (values.ndim - 1))
    return out


def fourier_coefficients(values, lags) -> np.ndarray:
    """Batched Fourier coefficients of grid samples at the given lags."""
    vals = _as_grid_values(values)
    G = vals.shape[0]
    lags = np.asarray(lags, dtype=int)
    _admit_lag(int(np.abs(lags).max(initial=0)), G)
    table = _all_fourier_coefficients(vals)
    return table[lags % G]


# -- validation and minimality ----------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the trace-inverse integrability check."""

    integral: float
    max_condition: float
    passed: bool
    worst_node: float
    n_bad_nodes: int

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"minimality {status}: trace-inverse integral {self.integral:.6g}, "
            f"max grid condition {self.max_condition:.3e}"
        )


def check_minimality(
    f: SpectralDensity, g: SpectralDensity | None = None
) -> MinimalityReport:
    """Check that f+g (or f alone) is invertible on the whole grid.

    Reports the quadrature value of ``int Tr[(f+g)^{-1}] d lambda``, the
    largest grid condition number (smallest node eigenvalue measured
    against the largest eigenvalue anywhere on the grid, so a node where
    the density collapses fails even if it is well scaled locally), and a
    pass flag. This is the one place the rule is written: a node whose
    condition exceeds ``DEFAULT_COND_THRESHOLD`` fails the check rather
    than being regularized. Alone, f is read through its cached
    ``eigenvalues``. Every solve reaches it through the kernel memo
    (:func:`_kernel_slot`), once per kernel it computes.
    """
    if g is None:
        eigs = f.eigenvalues
    elif g.values.shape != f.values.shape:
        raise ValueError(
            f"dimension mismatch: f samples {f.values.shape}, g samples {g.values.shape}"
        )
    else:
        eigs = _node_eigenvalues(f.values + g.values)
    grid_size = eigs.shape[0]
    lam = frequency_grid(grid_size)
    scale = float(eigs.max(initial=0.0))
    min_per_node = eigs[:, 0]
    if scale <= 0.0:
        return MinimalityReport(
            integral=np.inf,
            max_condition=np.inf,
            passed=False,
            worst_node=float(lam[0]),
            n_bad_nodes=grid_size,
        )
    with np.errstate(divide="ignore"):
        cond_per_node = np.where(min_per_node > 0.0, scale / min_per_node, np.inf)
    worst = int(np.argmax(cond_per_node))
    bad = cond_per_node > DEFAULT_COND_THRESHOLD
    passed = not bad.any()
    if np.all(eigs > 0.0):
        integral = float((2.0 * np.pi) * np.mean(np.sum(1.0 / eigs, axis=1)))
    else:
        integral = np.inf
    return MinimalityReport(
        integral=integral,
        max_condition=float(cond_per_node[worst]),
        passed=passed,
        worst_node=float(lam[worst]),
        n_bad_nodes=int(bad.sum()),
    )


# -- the kernel memo ----------------------------------------------------


class _KernelSlot(NamedTuple):
    """One slot of the kernel memo (:func:`_kernel_slot`).

    ``g`` is the noise density the kernel was computed with (None for exact
    data), ``inv`` the grid values of (f+g)^{-1}, ``table`` its coefficient
    table by lag mod G, transposed pointwise, ``section`` the section factor
    of its block-Toeplitz matrix, ``condition`` the gate's
    ``max_condition``, which bounds the 2-norm condition of every section
    and which each solve reports as ``condition``, and ``tail`` the table's
    ||B(G/2)||_F / ||B(0)||_F, which each solve reports as ``kernel_tail``
    (``estimators._kernel_tail``).
    """

    g: SpectralDensity | None
    inv: np.ndarray
    table: np.ndarray
    section: SectionFactor
    condition: float
    tail: float


def _kernel_slot(f, g, seed=None):
    """Gate f+g (f alone for ``g=None``), invert it on the grid and tabulate it, once.

    The one writer of the kernel memo. f keeps two slots, one for exact data
    and one for the last noise density g it was solved with, so solves that
    alternate the two compute each kernel once. A slot
    (:class:`_KernelSlot`) holds two read-only arrays of 2 G K^2 16 bytes
    (4 MB at G = 2048, K = 8) and a ``cholesky.SectionFactor``, empty until
    a solve reads a section and then about (n K)^2 / 2 16 bytes for the
    largest section of n blocks read (2.3 MB at K = 8, n = 65). A slot that
    holds this g, compared by ``is``, is read as it is: it passed the gate,
    and densities are immutable.
    Otherwise (an empty slot, or another g, even one with equal values)
    ``check_minimality`` decides, raising ``MinimalityError`` on a refusal,
    which stores nothing; then :func:`_grid_inverse` inverts f+g and the
    slot keeps the inverse's Hermitian part, Hermitian to the bit: near the
    gate's threshold LAPACK's inverse carries a skew part large enough that
    the sections of its table have no Cholesky factor. ``seed`` stands in
    for both, the inverse and table of a kernel known in closed form
    (:func:`_inverse_density`, whose seeding logs "computed"). The result,
    with an empty section factor and the table's tail, takes the slot,
    dropping the factor of the kernel it replaces.

    Returns the slot and logs one debug record to the ``pcwk`` logger: the
    kernel "computed" or "memo".
    """
    key = "_exact_kernel" if g is None else "_noisy_kernel"
    slot = vars(f).get(key)
    memo = slot is not None and slot.g is g
    if not memo:
        report = check_minimality(f, g)
        if not report.passed:
            raise MinimalityError(
                f"minimality condition violated: {'signal' if g is None else 'observed'} "
                f"density is singular near lambda = {report.worst_node:.6f} "
                f"(grid condition {report.max_condition:.3e})"
            )
        if seed is None:
            inv = _grid_inverse(f.values if g is None else f.values + g.values)
            inv = _read_only(_hermitian_part(inv))
            seed = inv, _read_only(_transposed_coefficients(inv))
        inv, table = seed
        tail = float(np.linalg.norm(table[f.grid_size // 2]) / np.linalg.norm(table[0]))
        slot = vars(f)[key] = _KernelSlot(g, inv, table, SectionFactor(),
                                          report.max_condition, tail)
    _log.debug("kernel %s (G = %d, K = %d): %s", "f^-1" if g is None else "(f+g)^-1",
               f.grid_size, f.dim, "memo" if memo else "computed")
    return slot


def _transposed_coefficients(kernel):
    """Coefficient table, by lag mod G, of a (G, K, K) kernel transposed pointwise."""
    return _all_fourier_coefficients(np.transpose(kernel, (0, 2, 1)))


@dataclass(frozen=True)
class DensityReport:
    """Outcome of structural density validation (never raised)."""

    hermitian_ok: bool
    psd_ok: bool
    min_eigenvalue: float
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.psd_ok


def validate_density(f: SpectralDensity) -> DensityReport:
    """Check coefficient pairing and positive semidefiniteness on the grid.

    Violations are reported, never thrown: the report carries the smallest
    grid eigenvalue and a list of human-readable issues.
    """
    F, L = f.coeffs, f.max_lag
    lags = np.arange(-L, L + 1)
    stored = np.any(F != 0, axis=(1, 2))
    orphan = stored & ~stored[::-1]  # F(m) nonzero, F(-m) all zero
    # F(-m) - F(m)^H at index m + L; at lag 0 the Hermitian defect of F(0)
    defect = np.linalg.norm(F[::-1] - np.conj(np.transpose(F, (0, 2, 1))), axis=(1, 2))
    asymmetric = defect > 1e-12 * np.maximum(np.linalg.norm(F, axis=(1, 2)), 1.0)
    issues: list[str] = []
    if asymmetric[L]:
        issues.append("lag-0 coefficient is not Hermitian")
    for m in lags[(lags > 0) & stored & asymmetric]:
        if orphan[m + L]:
            issues.append(f"lag {m} stored without its lag {-m} partner")
        else:
            issues.append(f"coefficient pair ({m}, {-m}) violates Hermitian symmetry")
    for m in lags[(lags < 0) & orphan]:
        issues.append(f"lag {m} stored without its lag {-m} partner")
    hermitian_ok = not issues
    node_mins = f.eigenvalues[:, 0]
    worst = int(np.argmin(node_mins))
    min_eig = float(node_mins[worst])
    psd_ok = min_eig >= -PSD_TOLERANCE
    if not psd_ok:
        lam = frequency_grid(f.grid_size)
        issues.append(
            f"not positive semidefinite on the grid (min eig {min_eig:.3e} "
            f"at lambda = {lam[worst]:.6f})"
        )
    return DensityReport(
        hermitian_ok=hermitian_ok,
        psd_ok=psd_ok,
        min_eigenvalue=min_eig,
        issues=tuple(issues),
    )


# -- CSV interchange ---------------------------------------------------

_DENSITY_HEADER = ["m", "row", "col", "re", "im"]


def _write_table(path, header, labels, values) -> None:
    """Write a complex array as CSV rows ``label_0, ..., label_d, re, im``.

    ``labels[i]`` holds the label of each index along axis i of ``values``;
    rows run over the array in C order. Every number is written by
    ``repr``, one column at a time, and the lines end in CRLF as those of
    ``csv.writer`` do. The lines are streamed to the file: joining them into
    one string first doubles the peak memory of a large table.
    """
    values = np.asarray(values, dtype=complex)
    index = np.indices(values.shape).reshape(values.ndim, -1)
    flat = values.reshape(-1)
    columns = [np.asarray(label)[i].tolist() for label, i in zip(labels, index)]
    columns += [flat.real.tolist(), flat.imag.tolist()]
    rows = zip(*(map(repr, column) for column in columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def write_density_csv(f: SpectralDensity, path) -> None:
    """Write the coefficients as rows ``m,row,col,re,im`` (0-based).

    Lag 0 and every nonzero lag are written, in increasing order.
    """
    L = f.max_lag
    written = np.any(f.coeffs != 0, axis=(1, 2))
    written[L] = True
    dims = np.arange(f.dim)
    _write_table(path, _DENSITY_HEADER, [np.flatnonzero(written) - L, dims, dims],
                 f.coeffs[written])


def read_density_csv(path, grid_size=DEFAULT_GRID_SIZE) -> SpectralDensity:
    """Read a coefficient CSV written in the ``m,row,col,re,im`` schema.

    Lags stored without their negative partner are auto-filled by Hermitian
    symmetry, with a warning.
    """
    entries: dict[int, dict[tuple[int, int], complex]] = {}
    dim = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _DENSITY_HEADER:
            raise ValueError(f"{path}: expected header {','.join(_DENSITY_HEADER)}")
        for ln, rowvals in enumerate(reader, start=2):
            if not rowvals or all(not v.strip() for v in rowvals):
                continue
            try:
                m, row, col = int(rowvals[0]), int(rowvals[1]), int(rowvals[2])
                re, im = float(rowvals[3]), float(rowvals[4])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{ln}: malformed density row") from exc
            if row < 0 or col < 0:
                raise ValueError(f"{path}:{ln}: negative matrix index")
            entries.setdefault(m, {})[(row, col)] = complex(re, im)
            dim = max(dim, row + 1, col + 1)
    if not entries:
        raise ValueError(f"{path}: no coefficients found")
    coeffs: dict[int, np.ndarray] = {}
    for m, cells in entries.items():
        mat = np.zeros((dim, dim), dtype=complex)
        for (row, col), v in cells.items():
            mat[row, col] = v
        coeffs[m] = mat
    for m in sorted(coeffs):
        if m != 0 and -m not in coeffs:
            warnings.warn(
                f"density file {path}: lag {-m} missing, filled by Hermitian symmetry",
                stacklevel=2,
            )
            coeffs[-m] = coeffs[m].conj().T
    return SpectralDensity(dim=dim, coeffs=coeffs, grid_size=grid_size)
