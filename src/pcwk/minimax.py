"""Least-favorable densities and minimax-robust characteristics.

When only a class of admissible densities is known, the robust strategy
pairs the density in the class that maximizes the optimal error with the
characteristic computed for it. This module implements the classes that
admit a constructive solution:

* bounded per-period power (forward estimation): the worst density is a
  one-sided moving average built from the top eigenvector of the weight
  gram operator, and the worst error is the power times its top eigenvalue;
* prescribed cosine moments of the inverse density (interpolation): the
  worst density is autoregressive, obtained by inverting the moment
  polynomial, and the robust characteristic is solved by exact
  interpolation on the worst density;
* fixed power matrix (forward estimation): the same eigenproblem with a
  matrix power constraint, matched in trace, with the residual of the full
  matrix constraint reported;
* trace-power signal class times an epsilon-contaminated noise class
  (filtering, scalar): a damped fixed-point iteration on the pointwise
  optimality relations, with multipliers recovered by power projection.

Saddle-point optimality is certified by sampling densities from the class
and checking that none of them makes the fixed robust characteristic err
more than the nominal pair does.

Each class rule is written once, and the class's solver, sampler and
validator read the same one: :func:`_power_matrix` admits a power matrix
(Hermitian within 1e-10 of its norm, positive trace, no eigenvalue below
-1e-10 of the trace), :func:`d01_class_residual` measures membership in
the fixed-power-matrix class, ``check_minimality`` decides definiteness of
a moment polynomial, and :func:`_relation_residuals` evaluates the
filtering optimality relations. Each ``*_class_residual`` is relative to
its class's scale (the total power, ||P||_F, the largest moment norm, the
larger of the two powers), so one tolerance judges classes of any scale;
the saddle margins are absolute.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleClassError, PcwkError, SingularFactorError
from .estimators import (
    EstimateSolution,
    _blocks_symbol,
    _solve_hermitian,
    evaluate_mse,
    filtering,
    functional_symbol,
    interpolate,
)
from .factorization import Factorization, extrapolate_factorized, spectral_factorize
from .lifting import FunctionalWeights
from .spectral import (
    DEFAULT_GRID_SIZE,
    SpectralDensity,
    _node_eigenvalues,
    check_minimality,
    frequency_grid,
)

__all__ = [
    "QOperator",
    "LeastFavorableResult",
    "build_q_operator",
    "least_favorable_class_y",
    "least_favorable_dm_interpolation",
    "least_favorable_d01_extrapolation",
    "least_favorable_d0eps_filtering_scalar",
    "filtering_relation_residuals",
    "FilteringRelationReport",
    "saddle_point_check",
    "SaddleReport",
    "sample_power_class",
    "sample_d01_class",
    "sample_dm_class",
    "sample_d0eps_class",
    "power_class_residual",
    "d01_class_residual",
    "dm_class_residual",
    "d0eps_class_residual",
]


# -- the weight gram operator --------------------------------------------


@dataclass(frozen=True)
class QOperator:
    """Gram operator of shifted weight blocks.

    ``blocks[p, q] = sum_s a_{s+p} a_{s+q}^H`` (outer products of weight
    blocks); the flattened matrix is Hermitian positive semidefinite and
    its top eigenvalue bounds the error of any unit-power model.
    """

    blocks: np.ndarray = field(repr=False)  # (R, R, K, K)

    @property
    def range_len(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.blocks.shape[2]

    @property
    def dense(self) -> np.ndarray:
        r, _, k, _ = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(r * k, r * k)


def build_q_operator(
    weights: FunctionalWeights, n_range: int | None = None
) -> QOperator:
    """Assemble the weight gram operator over shifts 0..n_range.

    ``n_range`` defaults to the stored horizon; a larger value pads with
    zero blocks, which embeds the operator in a bigger index range.
    """
    blocks = weights.blocks
    stored = blocks.shape[0]
    R = stored if n_range is None else int(n_range) + 1
    if R < 1:
        raise ValueError("n_range must be >= 0")
    # row p of ``shifted`` holds a_{s+p} for s < stored, zero past the weights
    padded = np.concatenate([blocks, np.zeros((R, blocks.shape[1]), dtype=complex)])
    shifted = padded[np.add.outer(np.arange(R), np.arange(stored))]
    terms = shifted[:, None, :, :, None] * shifted[None, :, :, None, :].conj()
    # a running sum adds the shifts s in order, so the operator does not
    # depend on the order numpy picks for a reduction
    return QOperator(blocks=np.cumsum(terms, axis=2)[:, :, -1])


def _top_eigenpair(flat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Top eigenvalue, deterministically phased eigenvector, residual."""
    w, v = np.linalg.eigh(flat)
    value = float(w[-1])
    vec = v[:, -1]
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot]
    if abs(phase) > 0:
        vec = vec * (phase.conj() / abs(phase))
    residual = float(np.linalg.norm(flat @ vec - value * vec))
    return value, vec, residual


@dataclass
class LeastFavorableResult:
    """A least-favorable density with its certificate.

    ``certificate`` carries the quantities that verify the construction
    (top eigenvalue and eigen residual, or multipliers and relation
    residuals); :func:`saddle_point_check` reports the sampled margins.
    """

    f0: SpectralDensity
    g0: SpectralDensity | None
    minimax_mse: float
    h0: EstimateSolution | None
    certificate: dict


def _eigen_worst_case(weights, power, grid_size) -> LeastFavorableResult:
    """The worst moving average of a power class: taps scaled to ``power``.

    The taps are the top eigenvector of the gram eigenproblem; the minimax
    error is the power times the top eigenvalue, and the characteristic's
    own error is checked against it. Zero weights give the zero error and
    characteristic, and are marked degenerate.
    """
    if weights.horizon not in ("extrapolation", "extrapolation_finite"):
        raise ValueError("weights must carry an extrapolation horizon")
    q_op = build_q_operator(weights)
    # the error quadratic form acts through the conjugated operator
    nu2, vec, residual = _top_eigenpair(np.conj(q_op.dense))
    taps = vec.reshape(q_op.range_len, q_op.dim, 1) * np.sqrt(power)
    fact = Factorization(coeffs=taps, residual=0.0, iterations=0, grid_size=grid_size)
    h0 = None
    certificate = {"kind": "eigenpair", "nu_squared": nu2, "eigen_residual": residual}
    try:
        h0 = extrapolate_factorized(fact, weights)
    except SingularFactorError as exc:
        certificate["characteristic_note"] = str(exc)
    mse = power * nu2
    if h0 is not None and abs(h0.mse - mse) > 1e-8 * max(1.0, mse):
        certificate["mse_mismatch"] = h0.mse - mse
    if float(np.linalg.norm(weights.blocks)) == 0.0:
        certificate["degenerate"] = True
    return LeastFavorableResult(
        f0=fact.density(), g0=None, minimax_mse=mse, h0=h0, certificate=certificate
    )


def least_favorable_class_y(
    weights: FunctionalWeights,
    total_power: float,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> LeastFavorableResult:
    """Worst density of bounded total power for forward estimation.

    The worst model is the one-sided moving average whose taps are the top
    eigenvector of the weight gram operator scaled to the given power; the
    minimax error is the power times the top eigenvalue.
    """
    if not (total_power > 0):
        raise ValueError("total_power must be positive")
    result = _eigen_worst_case(weights, total_power, grid_size)
    result.certificate["total_power"] = total_power
    return result


def _hermitian_matrix(mat, dim, name) -> np.ndarray:
    """``mat`` as a complex ``dim`` x ``dim`` array, refused unless Hermitian.

    Hermitian means within 1e-10 of the larger of its norm and 1; ``dim``
    None accepts any square size. Power matrices and the cosine moments of
    a Hermitian inverse density are Hermitian.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    k = mat.shape[0] if dim is None else dim
    if mat.shape != (k, k):
        raise ValueError(f"{name} must be {k} x {k}")
    if np.linalg.norm(mat - mat.conj().T) > 1e-10 * max(np.linalg.norm(mat), 1.0):
        raise ValueError(f"{name} must be Hermitian")
    return mat


def _power_matrix(power_matrix, dim=None):
    """Admit a power matrix P of the fixed-power-matrix class.

    P must be Hermitian, with positive trace and no eigenvalue below
    -1e-10 tr P, so a semidefinite P with round-off below zero is admitted.
    Returns P, its trace and the ascending eigenvalues and eigenvectors of
    its Hermitian part; the sampler clips those eigenvalues at 0.
    """
    P = _hermitian_matrix(power_matrix, dim, "power matrix")
    trace = float(np.trace(P).real)
    if trace <= 0:
        raise ValueError("power matrix must have positive trace")
    w, v = np.linalg.eigh(0.5 * (P + P.conj().T))
    if w[0] < -1e-10 * trace:
        raise ValueError("power matrix must be positive semidefinite")
    return P, trace, w, v


def least_favorable_d01_extrapolation(
    weights: FunctionalWeights,
    power_matrix,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> LeastFavorableResult:
    """Worst density with a fixed zero-lag power matrix, forward estimation.

    Solves the same gram eigenproblem as the bounded-power class, scales
    the taps to match the trace of the power matrix (the one scaling
    freedom the eigenvector has), and reports the residual of the full
    matrix constraint relative to ||P||_F, which is generally not
    attainable by a single eigenvector family. P is admitted by the rule
    its sampler shares (:func:`_power_matrix`), and the residual is
    :func:`d01_class_residual`, the one the saddle check reads for samples.
    A residual above the class tolerance of the saddle check means the
    returned density lies outside the class: the certificate's
    ``in_class`` is then False and a "not certified" warning is issued.
    """
    P, trace, _, _ = _power_matrix(power_matrix, weights.dim)
    result = _eigen_worst_case(weights, trace, grid_size)
    result.certificate["trace_power"] = trace
    residual = d01_class_residual(result.f0, P)
    result.certificate["power_constraint_residual"] = residual
    in_class = residual <= _VALIDATION_TOL
    result.certificate["in_class"] = in_class
    if not in_class:
        warnings.warn(
            f"power-matrix worst case not certified: the density lies outside "
            f"its class (power constraint residual {residual:.2e})"
        )
    return result


# -- prescribed inverse moments (interpolation) ---------------------------


def _moment_polynomial(p_constraints, dim, grid_size) -> SpectralDensity:
    """The polynomial with coefficients P(m) at lag m and P(m)^H at lag -m."""
    P = np.array([
        _hermitian_matrix(mat, dim, f"constraint {m}")
        for m, mat in enumerate(p_constraints)
    ])
    coeffs = np.concatenate([np.conj(np.swapaxes(P[:0:-1], 1, 2)), P])
    return SpectralDensity(dim=dim, coeffs=coeffs, grid_size=grid_size)


def least_favorable_dm_interpolation(
    p_constraints: Sequence,
    weights: FunctionalWeights,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> LeastFavorableResult:
    """Worst density whose inverse has the given cosine moments.

    ``p_constraints`` lists the moment matrices P(0..M). The worst density
    is autoregressive, f0 = the inverse of the moment polynomial, and the
    robust characteristic is solved by exact interpolation on the worst
    density, ``interpolate(f0, None, weights)``: its block-Toeplitz system
    is the one of the moment matrices. For M < n (scalar case only) the
    missing moments are the ones that make the solved coefficients vanish
    beyond M; they follow by forward substitution from one solve of the
    constrained band, which reports the class infeasible when that section
    is not positive definite. The (extended) moment polynomial must pass
    ``check_minimality``, otherwise it is not positive definite on the
    circle and the class is reported infeasible.
    """
    if weights.horizon != "interpolation":
        raise ValueError("weights must carry the interpolation horizon")
    K = weights.dim
    n = weights.n
    M = len(p_constraints) - 1
    if M < 0:
        raise ValueError("need at least the zero-lag constraint")
    extended = _moment_polynomial(p_constraints, K, grid_size)
    system_residual = 0.0
    if M < n:
        if K != 1:
            raise ValueError(
                "unconstrained moments beyond the horizon are only supported "
                "in the scalar case"
            )
        a = weights.blocks.reshape(-1)
        p_vals = extended.coeffs[M:, 0, 0]
        band = np.arange(M + 1)
        toep = extended.coeffs[np.subtract.outer(band, band) + M, 0, 0]
        alpha_head, _ = _solve_hermitian(
            toep, a[: M + 1], "moment system", indefinite=InfeasibleClassError
        )
        if abs(alpha_head[0]) < 1e-14 * max(np.abs(alpha_head).max(), 1.0):
            raise InfeasibleClassError(
                "leading solver coefficient vanishes; the missing moments are "
                "not determined"
            )
        p_ext = dict(enumerate(p_vals))
        for l in range(M + 1, n + 1):
            acc = a[l]
            for j in range(1, M + 1):
                m = l - j
                pm = p_ext[m] if m >= 0 else np.conj(p_ext[-m])
                acc = acc - alpha_head[j] * pm
            p_ext[l] = acc / alpha_head[0]
        ext = np.array([p_ext[m] for m in range(n + 1)])
        ext = np.concatenate([ext[:0:-1].conj(), ext]).reshape(-1, 1, 1)  # lags -n..n
        extended = SpectralDensity(dim=1, coeffs=ext, grid_size=grid_size)
        # all rows of the extended Toeplitz system, by construction ~ 0
        rows = extended.coeffs[np.subtract.outer(np.arange(n + 1), band) + n, 0, 0]
        system_residual = float(np.abs(rows @ alpha_head - a).max())

    if not check_minimality(extended).passed:
        raise InfeasibleClassError(
            "moment polynomial is not positive definite on the grid; "
            "the class has no usable worst density"
        )
    f0 = SpectralDensity.from_grid(np.linalg.inv(extended.values))
    h0 = interpolate(f0, None, weights)
    certificate = {
        "kind": "lagrange",
        "alpha": h0.solved_blocks,
        "ar_coeffs": spectral_factorize(extended).coeffs,
        "n_constraints": M + 1,
        "system_residual": system_residual,
    }
    return LeastFavorableResult(
        f0=f0, g0=None, minimax_mse=h0.mse, h0=h0, certificate=certificate
    )


# -- scalar filtering under trace power and contaminated noise ------------


@dataclass(frozen=True)
class FilteringRelationReport:
    """Grid residuals of the filtering optimality relations."""

    residual_signal_relation: float
    residual_noise_relation: float
    rel_residual_signal_relation: float
    rel_residual_noise_relation: float
    slackness_residual: float
    phi_positive: bool
    signal_power: float
    noise_power: float
    mixture_floor_violation: float


def _relation_residuals(fv, gv, A, D, alpha2, beta2, phi):
    """Grid residuals of the two filtering optimality relations.

    The noise relation is (g A* + D*)(g A* + D*)^H = alpha2 (f+g)^2 and the
    signal relation (f A* - D*)(f A* - D*)^H = (beta2 + phi) (f+g)^2, for
    (G, K, K) densities, (G, K) symbols A and D (D of the filtering solve
    at the candidate) and a (G,) multiplier phi. Returns the largest
    absolute residual of the noise and of the signal relation, then each
    relative to its multiplier alpha2 or beta2 times max |(f+g)^2|.
    """
    total = fv + gv
    total_sq = total @ total
    sides = (
        (np.einsum("gkn,gn->gk", gv, A.conj()) + D.conj(), alpha2 * total_sq),
        (np.einsum("gkn,gn->gk", fv, A.conj()) - D.conj(),
         (beta2 + phi)[:, None, None] * total_sq),
    )
    res_noise, res_signal = (
        float(np.abs(np.einsum("gk,gn->gkn", v, v.conj()) - rhs).max())
        for v, rhs in sides
    )
    scale = float(np.abs(total_sq).max())
    return (
        res_noise,
        res_signal,
        res_noise / max(abs(alpha2) * scale, 1e-300),
        res_signal / max(abs(beta2) * scale, 1e-300),
    )


def filtering_relation_residuals(
    f: SpectralDensity,
    g: SpectralDensity,
    weights: FunctionalWeights,
    alpha2: float,
    beta2: float,
    phi,
    eps: float,
    g2: SpectralDensity,
    truncation: int | None = None,
) -> FilteringRelationReport:
    """Evaluate the minimax filtering optimality relations for a candidate.

    Solves the filtering problem at (f, g), forms the two rank-one outer
    products of the optimality relations, and reports their grid residuals
    against the multiplier sides, the complementary-slackness defect of
    ``phi`` on the set where the noise is above its contamination floor,
    and the realized class quantities (powers and floor violation).
    Residuals are reported, never asserted; the relative ones are those of
    :func:`_relation_residuals`.
    """
    grid_size = f.grid_size
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 0:
        phi = np.full(grid_size, float(phi))
    if phi.shape != (grid_size,):
        raise ValueError("phi must be a scalar or a grid-sized vector")
    sol = filtering(f, g, weights, truncation=truncation)
    fv, gv, g2v = f.values, g.values, g2.values
    A = functional_symbol(weights, grid_size)
    first = sol.diagnostics.get("first_index", 1)
    D = _blocks_symbol(sol.solved_blocks, first, grid_size)
    res_noise, res_signal, rel_noise, rel_signal = _relation_residuals(
        fv, gv, A, D, alpha2, beta2, phi
    )

    tr_g = np.trace(gv, axis1=1, axis2=2).real
    tr_floor = (1.0 - eps) * np.trace(g2v, axis1=1, axis2=2).real
    active = tr_g >= tr_floor - 1e-10
    slackness = float(np.abs(phi[active]).max(initial=0.0))
    floor_eigs = _node_eigenvalues(gv - (1.0 - eps) * g2v)
    return FilteringRelationReport(
        residual_signal_relation=res_signal,
        residual_noise_relation=res_noise,
        rel_residual_signal_relation=rel_signal,
        rel_residual_noise_relation=rel_noise,
        slackness_residual=slackness,
        phi_positive=bool(phi.max(initial=0.0) > 1e-12),
        signal_power=_trace_power(fv),
        noise_power=_trace_power(gv),
        mixture_floor_violation=float(-min(floor_eigs.min(), 0.0)),
    )


def _trace_power(values: np.ndarray) -> float:
    return float(np.trace(values, axis1=1, axis2=2).real.mean())


def _nonnegative_root(aq, bq, cq, fallback):
    """Largest nonnegative root of aq x^2 + bq x + cq = 0, elementwise.

    Degenerate or rootless nodes keep the fallback value; the caller's
    damping and residual gate decide whether that matters.
    """
    disc = np.maximum(bq**2 - 4.0 * aq * cq, 0.0)
    sqrt_disc = np.sqrt(disc)
    with np.errstate(divide="ignore", invalid="ignore"):
        quad1 = (-bq + sqrt_disc) / (2.0 * aq)
        quad2 = (-bq - sqrt_disc) / (2.0 * aq)
        linear = -cq / bq
    out = np.where(np.abs(aq) > 1e-30, np.maximum(quad1, quad2), linear)
    out = np.where(np.isfinite(out) & (out >= 0.0), out, fallback)
    return out


# step size of the d0eps fixed-point iteration, and its convergence gate on the
# relation residuals
_DAMPING = 0.5
_RELATION_TOL = 1e-6


def least_favorable_d0eps_filtering_scalar(
    weights: FunctionalWeights,
    signal_power: float,
    noise_power: float,
    eps: float,
    g2: SpectralDensity,
    grid_size: int | None = None,
    truncation: int | None = None,
    max_iter: int = 200,
) -> LeastFavorableResult:
    """Scalar least-favorable pair for filtering under power constraints.

    The signal class fixes the mean trace power; the noise class is an
    epsilon mixture above the floor (1 - eps) g2 with fixed power. A damped
    fixed-point iteration alternates the filtering solve with pointwise
    reconstruction of (f, g) from the optimality relations, projecting onto
    the class constraints; multipliers are recovered from the power
    normalizations. On convergence (relation residuals below 1e-6) the
    certificate is marked converged; otherwise the best iterate is returned
    flagged, never silently accepted. ``grid_size``, when given, must be the
    grid of ``g2``.
    """
    if weights.horizon != "filtering":
        raise ValueError("weights must carry the filtering horizon")
    if weights.dim != 1 or g2.dim != 1:
        raise ValueError("only the scalar case is supported")
    if not (0.0 <= eps <= 1.0):
        raise ValueError("eps must lie in [0, 1]")
    if signal_power <= 0 or noise_power <= 0:
        raise ValueError("powers must be positive")
    G = grid_size or g2.grid_size
    if G != g2.grid_size:
        raise ValueError(
            f"grid_size {G} does not match the grid size {g2.grid_size} of g2"
        )
    g2v = g2.values[:, 0, 0].real
    if g2v.min() < -1e-12:
        raise ValueError("contamination baseline must be nonnegative")
    p2 = float(g2v.mean())
    floor = (1.0 - eps) * g2v
    if noise_power < floor.mean() - 1e-12:
        raise InfeasibleClassError(
            "noise power is below the contamination floor; the class is empty"
        )
    if eps == 0.0 and abs(p2 - noise_power) > 1e-8 * max(1.0, noise_power):
        raise InfeasibleClassError(
            "with eps = 0 the noise density is pinned to the baseline, whose "
            "power disagrees with the requested noise power"
        )
    A_col = functional_symbol(weights, G)
    A = A_col[:, 0]
    f_vals = np.full(G, signal_power)
    g_vals = floor + (noise_power - floor.mean())
    # a zero functional makes every feasible pair worst, with zero error and
    # zero multipliers: the starting pair is certified as it stands
    degenerate = float(np.linalg.norm(weights.blocks)) == 0.0
    alpha = beta = 0.0 if degenerate else 0.5
    phi = np.zeros(G)
    res_noise = res_signal = 0.0 if degenerate else np.inf
    converged = degenerate
    iterations = 0
    abs_A2 = np.abs(A) ** 2
    bailed = None
    work_trunc = truncation if truncation is not None else G // 4
    best = None  # (mse, f, g, alpha, beta, phi, res_noise, res_signal)
    while not converged and iterations < max_iter:
        iterations += 1
        fd = SpectralDensity.from_grid(f_vals)
        gd = SpectralDensity.from_grid(g_vals)
        try:
            sol = filtering(fd, gd, weights, truncation=work_trunc)
        except PcwkError as exc:
            bailed = f"iteration left the solvable region: {exc}"
            break
        first = sol.diagnostics.get("first_index", 1)
        D_col = _blocks_symbol(sol.solved_blocks, first, G)
        D = D_col[:, 0]
        cross = (A * D.conj()).real
        dd = np.abs(D) ** 2
        # signal relation |f A - D| = beta (f + g): pointwise quadratic in f
        f_new = _nonnegative_root(
            abs_A2 - beta**2,
            -2.0 * (cross + beta**2 * g_vals),
            dd - beta**2 * g_vals**2,
            f_vals,
        )
        if eps == 0.0:
            # noise pinned to the baseline; only the signal relation moves f
            g_new = g2v.copy()
        else:
            # noise relation |g A + D| = alpha (f + g): quadratic in g
            g_new = _nonnegative_root(
                abs_A2 - alpha**2,
                2.0 * (cross - alpha**2 * f_vals),
                dd - alpha**2 * f_vals**2,
                g_vals,
            )
            g_new = np.maximum(g_new, floor)
        # damped step, then re-project the powers; a small positive floor on
        # the signal keeps the candidate inside the solvable region (clamped
        # iterates carry out-of-band dust that must not flip the sign)
        f_vals = (1 - _DAMPING) * f_vals + _DAMPING * f_new
        g_vals = (1 - _DAMPING) * g_vals + _DAMPING * g_new
        f_vals = np.maximum(f_vals, 1e-5 * signal_power)
        f_vals *= signal_power / f_vals.mean()
        excess = np.maximum(g_vals - floor, 0.0)
        target_excess = noise_power - floor.mean()
        if excess.mean() > 0 and target_excess >= 0:
            g_vals = floor + excess * (target_excess / excess.mean())
        # multipliers refit to the damped iterate, then relation residuals
        # against the D of this iteration's solve
        total = f_vals + g_vals
        u = np.abs(A * g_vals + D)
        v = np.abs(A * f_vals - D)
        alpha = float((u * total).sum() / (total**2).sum())
        on_floor = g_vals <= floor + 1e-10 * max(float(g_vals.max()), 1.0)
        free = ~on_floor
        if free.any():
            beta = float((v[free] * total[free]).sum() / (total[free] ** 2).sum())
        phi = np.where(on_floor, np.minimum((v / total) ** 2 - beta**2, 0.0), 0.0)
        _, _, res_noise, res_signal = _relation_residuals(
            f_vals[:, None, None], g_vals[:, None, None], A_col, D_col,
            alpha**2, beta**2, phi,
        )
        if best is None or sol.mse >= best[0]:
            best = (sol.mse, f_vals.copy(), g_vals.copy(), alpha, beta, phi.copy(),
                    res_noise, res_signal)
        gate = res_signal if eps == 0.0 else max(res_noise, res_signal)
        converged = gate < _RELATION_TOL
    if not converged and best is not None:
        # fall back to the best (largest-error) iterate seen
        _, f_vals, g_vals, alpha, beta, phi, res_noise, res_signal = best
    f0 = SpectralDensity.from_grid(f_vals)
    g0 = SpectralDensity.from_grid(g_vals)
    h0 = filtering(f0, g0, weights, truncation=work_trunc)
    if not converged:
        warnings.warn(
            f"filtering class iteration not certified (relation residuals "
            f"{res_noise:.2e}, {res_signal:.2e} after {iterations} iterations)"
        )
    certificate = {
        "kind": "lagrange",
        "alpha_squared": float(alpha**2),
        "beta_squared": float(beta**2),
        "phi": phi,
        "converged": bool(converged),
        "iterations": iterations,
        "residual_noise_relation": float(res_noise),
        "residual_signal_relation": float(res_signal),
    }
    if bailed:
        certificate["abort_reason"] = bailed
    if degenerate:
        certificate["degenerate"] = True
    return LeastFavorableResult(
        f0=f0, g0=g0, minimax_mse=h0.mse, h0=h0, certificate=certificate
    )


# -- class samplers and membership residuals ------------------------------


def _random_taps(rng, order, dim):
    taps = []
    for u in range(order + 1):
        scale = 0.6**u
        taps.append(
            scale
            * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        )
    return np.array(taps)


def sample_power_class(
    rng: np.random.Generator,
    dim: int,
    order: int,
    total_power: float,
    count: int,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> list[SpectralDensity]:
    """Random moving-average densities with exact total power."""
    out = []
    for _ in range(count):
        taps = _random_taps(rng, order, dim)
        taps *= np.sqrt(total_power / np.sum(np.abs(taps) ** 2))
        out.append(SpectralDensity.from_moving_average(list(taps), grid_size=grid_size))
    return out


def _relative(residual: float, scale: float) -> float:
    """A class residual relative to the class's scale (absolute at scale 0)."""
    return residual / scale if scale > 0 else residual


def power_class_residual(f: SpectralDensity, total_power: float) -> float:
    """Distance of the total power of f from the class's, relative to it."""
    return _relative(abs(_trace_power(f.values) - total_power), total_power)


def sample_d01_class(
    rng: np.random.Generator,
    power_matrix,
    order: int,
    count: int,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> list[SpectralDensity]:
    """Random moving-average densities with an exact zero-lag power matrix.

    P is admitted by the solver's rule (:func:`_power_matrix`), so it may be
    singular; its square root is taken of the eigenvalues clipped at 0.
    """
    P, _, w, v = _power_matrix(power_matrix)
    dim = P.shape[0]
    p_half = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    out = []
    for _ in range(count):
        taps = _random_taps(rng, order, dim)
        S = np.sum(taps @ np.conj(np.transpose(taps, (0, 2, 1))), axis=0)
        ws, vs = np.linalg.eigh(0.5 * (S + S.conj().T))
        ws = np.maximum(ws, 1e-12 * ws.max())
        s_inv_half = (vs / np.sqrt(ws)) @ vs.conj().T
        transform = p_half @ s_inv_half
        taps = np.array([transform @ t for t in taps])
        out.append(SpectralDensity.from_moving_average(list(taps), grid_size=grid_size))
    return out


def d01_class_residual(f: SpectralDensity, power_matrix) -> float:
    """Frobenius distance from P of the power matrix of f, its grid mean,
    relative to ||P||_F."""
    P = np.atleast_2d(np.asarray(power_matrix, dtype=complex))
    residual = float(np.linalg.norm(f.values.mean(axis=0) - P))
    return _relative(residual, float(np.linalg.norm(P)))


def sample_dm_class(
    rng: np.random.Generator,
    p_constraints: Sequence,
    extra_degree: int,
    count: int,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> list[SpectralDensity]:
    """Random densities whose inverses keep the prescribed cosine moments.

    Perturbs the moment polynomial at lags beyond the constrained band and
    rejects draws that fail ``check_minimality``, the solver's definiteness
    rule, with a budget of 200 draws per requested sample. The bumps are
    sized by the smallest eigenvalue of the moment polynomial on the grid.
    """
    first = np.atleast_2d(np.asarray(p_constraints[0], dtype=complex))
    dim = first.shape[0]
    base = _moment_polynomial(p_constraints, dim, grid_size)
    M = len(p_constraints) - 1
    if not check_minimality(base).passed:
        raise InfeasibleClassError("moment polynomial is not positive definite")
    margin = float(base.eigenvalues.min())
    out: list[SpectralDensity] = []
    tries = 0
    while len(out) < count and tries < 200 * count:
        tries += 1
        L = M + extra_degree
        coeffs = np.zeros((2 * L + 1, dim, dim), dtype=complex)
        coeffs[L - M : L + M + 1] = base.coeffs
        for i in range(1, extra_degree + 1):
            bump = (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ) * (0.25 * margin * 0.5**i / dim)
            coeffs[L + M + i] = bump
            coeffs[L - M - i] = bump.conj().T
        draw = SpectralDensity(dim=dim, coeffs=coeffs, grid_size=grid_size)
        if check_minimality(draw).passed:
            out.append(SpectralDensity.from_grid(np.linalg.inv(draw.values)))
    if len(out) < count:
        raise InfeasibleClassError(
            "could not sample enough positive definite class members"
        )
    return out


def dm_class_residual(f: SpectralDensity, p_constraints: Sequence) -> float:
    """Largest distance of a cosine moment of f^{-1} from its constraint,
    relative to the largest constraint norm."""
    vals = np.linalg.inv(f.values)
    worst = scale = 0.0
    lam = frequency_grid(vals.shape[0])
    for m, target in enumerate(p_constraints):
        target = np.atleast_2d(np.asarray(target, dtype=complex))
        moment = (vals * np.cos(m * lam)[:, None, None]).mean(axis=0)
        worst = max(worst, float(np.linalg.norm(moment - target)))
        scale = max(scale, float(np.linalg.norm(target)))
    return _relative(worst, scale)


def sample_d0eps_class(
    rng: np.random.Generator,
    signal_power: float,
    noise_power: float,
    eps: float,
    g2: SpectralDensity,
    order: int,
    count: int,
) -> list[tuple[SpectralDensity, SpectralDensity]]:
    """Random scalar (signal, noise) pairs in the power/mixture classes."""
    if g2.dim != 1:
        raise ValueError("scalar class sampling only")
    G = g2.grid_size
    g2v = g2.values[:, 0, 0].real
    floor_power = (1.0 - eps) * float(g2v.mean())
    if noise_power < floor_power - 1e-12:
        raise InfeasibleClassError("noise power below the contamination floor")
    out = []
    for _ in range(count):
        f_taps = _random_taps(rng, order, 1)
        f_taps *= np.sqrt(signal_power / np.sum(np.abs(f_taps) ** 2))
        f = SpectralDensity.from_moving_average(list(f_taps), grid_size=G)
        if eps == 0.0:
            g = SpectralDensity.from_grid(g2v)
        else:
            g_taps = _random_taps(rng, order, 1)
            g_taps *= np.sqrt(
                (noise_power - floor_power) / np.sum(np.abs(g_taps) ** 2)
            )
            g1 = SpectralDensity.from_moving_average(list(g_taps), grid_size=G)
            gv = (1.0 - eps) * g2v + g1.values[:, 0, 0].real
            g = SpectralDensity.from_grid(gv)
        out.append((f, g))
    return out


def d0eps_class_residual(
    f: SpectralDensity,
    g: SpectralDensity,
    signal_power: float,
    noise_power: float,
    eps: float,
    g2: SpectralDensity,
) -> float:
    """Largest violation of the signal power, the noise power and the
    contamination floor, relative to the larger of the two powers."""
    fv, gv, g2v = f.values, g.values, g2.values
    res = abs(_trace_power(fv) - signal_power)
    res = max(res, abs(_trace_power(gv) - noise_power))
    eigs = _node_eigenvalues(gv - (1.0 - eps) * g2v)
    res = max(res, float(-min(eigs.min(), 0.0)))
    return _relative(res, max(signal_power, noise_power))


# -- saddle-point certification -------------------------------------------


# largest class residual of a sample that the saddle check accepts; the
# residuals are relative to the class's scale, the margins stay absolute
_VALIDATION_TOL = 1e-8


@dataclass(frozen=True)
class SaddleReport:
    """Margins of the robust characteristic over sampled class members."""

    margins: np.ndarray
    min_margin: float
    base_mse: float
    n_rejected: int
    rejected: tuple[str, ...]


def saddle_point_check(
    solution: EstimateSolution,
    f0: SpectralDensity,
    g0: SpectralDensity | None,
    samples: Sequence,
    weights: FunctionalWeights,
    validator: Callable | None = None,
    optimal_error: Callable | None = None,
) -> SaddleReport:
    """Check that no sampled class member beats the nominal pair.

    For each sample (f, g), the margin is the error of the fixed robust
    characteristic at the nominal pair minus its error at the sample;
    nonnegative margins over the class certify the saddle point. Samples
    are first validated against the class (``validator`` returns a residual,
    relative to the class's scale like the ``*_class_residual`` functions,
    and anything above ``_VALIDATION_TOL`` is rejected with a diagnostic).
    The margins are absolute.
    Passing ``optimal_error`` replaces the fixed-characteristic error with
    a per-sample optimal error, which certifies least-favorability directly
    for degenerate classes.
    """
    base = float(solution.mse)
    margins = []
    rejected = []
    for idx, sample in enumerate(samples):
        if isinstance(sample, SpectralDensity):
            f_s, g_s = sample, None
        else:
            f_s, g_s = sample
        if validator is not None:
            residual = float(validator(f_s, g_s) if g_s is not None else validator(f_s))
            if residual > _VALIDATION_TOL:
                rejected.append(
                    f"sample {idx}: class residual {residual:.3e} exceeds "
                    f"{_VALIDATION_TOL:.1e}"
                )
                continue
        if optimal_error is not None:
            value = float(optimal_error(f_s, g_s))
        else:
            value = evaluate_mse(solution, f_s, g_s, weights)
        margins.append(base - value)
    margins_arr = np.asarray(margins, dtype=float)
    return SaddleReport(
        margins=margins_arr,
        min_margin=float(margins_arr.min(initial=np.inf)),
        base_mse=base,
        n_rejected=len(rejected),
        rejected=tuple(rejected),
    )
