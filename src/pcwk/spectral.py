"""Matrix spectral densities on a uniform frequency grid.

A density is a K x K Hermitian-matrix-valued trigonometric polynomial

    f(lambda) = sum_m F(m) exp(i m lambda),      lambda in [-pi, pi),

with the Hermitian pairing ``F(-m) = F(m)^H``. :class:`SpectralDensity`
stores it once, as a dense ``(2 L + 1, K, K)`` coefficient array with lag m
at index ``m + L`` (the layout of ``oracle.CovarianceTable``); lags beyond L
are zero. Its grid values ``f.values`` are computed by one inverse FFT on
first use and then cached on the object, read-only, and so are the node
eigenvalues ``f.eigenvalues`` of its Hermitian part, which every
positive-definiteness decision reads. All integrals are
trapezoid sums over the uniform grid ``lambda_g = -pi + 2 pi g / G``, which
integrate the retained trigonometric band exactly. Densities that are not
polynomials (inverses of polynomials, iterates of fixed-point solvers) are
built from their grid samples with :meth:`SpectralDensity.from_grid`, which
keeps the samples as the cached values and every resolvable coefficient
above round-off as the array.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import AliasingError

DEFAULT_GRID_SIZE = 2048
PSD_TOLERANCE = 1e-10
DEFAULT_COND_THRESHOLD = 1e12

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


def _stack_lags(coeffs: Mapping, dim: int, grid_size: int) -> np.ndarray:
    """The (2 L + 1, K, K) array of a lag -> matrix mapping, L its largest |lag|."""
    lags = [int(m) for m in coeffs]
    far = next((m for m in lags if abs(m) >= grid_size // 2), None)
    if far is not None:
        raise AliasingError(
            f"lag {far} is not resolvable on a grid of size {grid_size}"
        )
    mats = [np.asarray(value, dtype=complex) for value in coeffs.values()]
    mats = [arr.reshape(1, 1) if arr.ndim == 0 else arr for arr in mats]
    bad = next((arr.shape for arr in mats if arr.shape != (dim, dim)), None)
    if bad is not None:
        if len(bad) != 2 or bad[0] != bad[1]:
            raise ValueError(f"coefficient must be a square matrix, got shape {bad}")
        raise ValueError(f"coefficient dimension {bad[0]} != {dim}")
    L = max((abs(m) for m in lags), default=0)
    out = np.zeros((2 * L + 1, dim, dim), dtype=complex)
    if mats:
        out[np.array(lags) + L] = np.stack(mats)
    return out


@dataclass(frozen=True)
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
            if arr.shape[0] // 2 >= self.grid_size // 2:
                raise AliasingError(
                    f"lag {arr.shape[0] // 2} is not resolvable on a grid of size "
                    f"{self.grid_size}"
                )
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
        dim = d[0].shape[0]
        order = len(d) - 1
        coeffs = np.zeros((2 * order + 1, dim, dim), dtype=complex)
        for m in range(order + 1):
            for u in range(0, order - m + 1):
                coeffs[order + m] += d[u + m] @ d[u].conj().T
            if m > 0:
                coeffs[order - m] = coeffs[order + m].conj().T
        return cls(dim=dim, coeffs=coeffs, grid_size=grid_size)

    @classmethod
    def from_grid(cls, values):
        """Recover a density from samples on the standard grid.

        The samples, copied and read-only, become the density's grid values,
        and their number its grid size. Its coefficients are every resolvable
        lag of their FFT, with the Hermitian pairs whose norms both fall below
        1e-15 of the largest coefficient set to zero and the array cut after
        the last kept lag.
        """
        samples = np.array(_as_grid_values(values))
        G = samples.shape[0]
        coeff_all = _all_fourier_coefficients(samples)
        norms = np.linalg.norm(coeff_all, axis=(1, 2))
        half = G // 2 - 1
        lags = np.arange(-half, half + 1)
        above = norms[lags % G] > 1e-15 * max(norms.max(), 1e-300)
        keep = above | above[::-1]
        keep[half] = True  # lag 0
        L = int(np.abs(lags[keep]).max())
        coeffs = np.where(keep[:, None, None], coeff_all[lags % G], 0.0)
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
        G, L = self.grid_size, self.max_lag
        rows = np.arange(-L, L + 1) % G
        buf = np.zeros((G, self.dim, self.dim), dtype=complex)
        buf[rows] = _alternating_signs(G)[rows, None, None] * self.coeffs
        return _read_only(np.fft.ifft(buf, axis=0) * G)

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


def _as_grid_values(values) -> np.ndarray:
    """Coerce grid samples to a (G, K, K) complex array."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim == 1:
        vals = vals.reshape(-1, 1, 1)
    if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
        raise ValueError(f"expected (G, K, K) samples, got shape {vals.shape}")
    return vals


def _node_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of (G, K, K) grid samples."""
    return np.linalg.eigvalsh(0.5 * (values + np.conj(np.transpose(values, (0, 2, 1)))))


def _node_norms(values: np.ndarray) -> np.ndarray:
    """Frobenius norm of the matrix at each node of (G, K, K) samples, (G,)."""
    flat = np.ascontiguousarray(values).view(float).reshape(values.shape[0], -1)
    return np.sqrt(np.einsum("gi,gi->g", flat, flat))


def _alternating_signs(grid_size: int) -> np.ndarray:
    return (-1.0) ** np.arange(grid_size)


def _all_fourier_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients c(m) = (1/2pi) int M(lambda) e^{-i m lambda} d lambda.

    Returns an array indexed by m mod G along axis 0 (trapezoid sum over
    the standard grid, exact for the resolvable band).
    """
    G = values.shape[0]
    out = np.fft.fft(values, axis=0) / G
    out *= _alternating_signs(G).reshape((G,) + (1,) * (values.ndim - 1))
    return out


def fourier_coefficients(values, lags) -> np.ndarray:
    """Batched Fourier coefficients of grid samples at the given lags."""
    vals = _as_grid_values(values)
    G = vals.shape[0]
    lags = np.asarray(lags, dtype=int)
    if lags.size and np.abs(lags).max() >= G // 2:
        raise AliasingError(
            f"lag {np.abs(lags).max()} is not resolvable on a grid of size {G}"
        )
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
    ``eigenvalues``. The estimators reach this check for f + g only when
    :func:`_inverse_if_minimal` cannot prove that it passes, near the
    threshold or on a refusal.
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


def _inverse_if_minimal(values: np.ndarray) -> np.ndarray | None:
    """``np.linalg.inv(values)`` when a bound proves that the minimality rule passes.

    ``values`` are (G, K, K) grid samples A with Hermitian part H and skew
    part S = A - H. Returns None, and the caller runs
    :func:`check_minimality`, whenever the bound cannot decide: A is
    singular, H has no Cholesky factor, or the bound exceeds half of
    ``DEFAULT_COND_THRESHOLD``. Otherwise the rule's condition
    lambda_max / lambda_min of H is at most that half:

    * the Cholesky factor proves H positive definite at every node
      (Higham, *Accuracy and Stability of Numerical Algorithms*, 10.1);
    * lambda_max(H_g) <= ||H_g||_2 <= ||A_g||_F at each node;
    * 1 / lambda_min(H_g) = ||H_g^{-1}||_2 <= r_g / (1 - r_g s_g) with
      r_g = ||A_g^{-1}||_F and s_g = ||S_g||_F, since H = A - S (the
      perturbed-inverse bound; Golub & Van Loan, *Matrix Computations*,
      2.3). For a Hermitian density S is round-off and the bound is r_g.

    The factor two covers the rounding of the rule's own ``eigvalsh``,
    which by Weyl's inequality moves each eigenvalue by about
    K eps lambda_max at most (Golub & Van Loan, 8.1), below 1e-3 of
    lambda_min at half the threshold, and the error of the computed
    inverse, about cond * eps relative. An accepted grid therefore passes
    ``check_minimality`` too: the bound changes the cost of a decision,
    never the decision.
    """
    try:
        inverse = np.linalg.inv(values)
    except np.linalg.LinAlgError:
        return None
    # one work array, no other temporary: A^H - A = -2 S, then A^H + A = 2 H
    work = np.conjugate(np.transpose(values, (0, 2, 1)), order="C")
    work -= values
    skew = _node_norms(work) / 2.0
    work += values
    work += values
    try:
        np.linalg.cholesky(work)  # 2 H is definite exactly when H is
    except np.linalg.LinAlgError:
        return None
    del work
    r = _node_norms(inverse)
    rs = r * skew
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse_norm = np.where(rs < 1.0, r / (1.0 - rs), np.inf)
    bound = float(_node_norms(values).max()) * float(inverse_norm.max())
    return inverse if bound <= DEFAULT_COND_THRESHOLD / 2 else None


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
