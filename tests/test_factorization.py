import functools
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcwk import (
    FunctionalWeights,
    MultiplicityError,
    SingularFactorError,
    SpectralDensity,
    check_minimality,
    extrapolate,
    extrapolate_factorized,
    fourier_coefficients,
    frequency_grid,
    left_inverse,
    spectral_factorize,
    write_density_csv,
)
from pcwk import factorization
from pcwk.cli import main
from pcwk.factorization import (
    FACTOR_COND_LIMIT,
    MIN_ITERATION_GRID,
    Factorization,
    _fixed_point,
    _hermitian_values,
    _iteration_grids,
    _start,
)
from conftest import GRID, ar1, coupled_ma2, ma1, white


def random_psd_density(rng, dim, order, floor=0.1):
    """Random PSD trig-polynomial density, kept away from the unit circle."""
    taps = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(order + 1)
    ]
    taps = [t * 0.5**u for u, t in enumerate(taps)]
    base = SpectralDensity.from_moving_average(taps, grid_size=GRID)
    coeffs = base.coeffs.copy()
    coeffs[base.max_lag] += floor * np.eye(dim)  # lag 0
    return SpectralDensity(dim, coeffs, grid_size=GRID)


class TestSpectralFactorize:
    def test_constant_scalar(self):
        fact = spectral_factorize(white(scale=4.0))
        assert fact.order == 0
        assert fact.coeffs[0, 0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_ma1_exact_taps(self):
        fact = spectral_factorize(ma1())
        assert fact.order == 1
        assert fact.coeffs[0, 0, 0] == pytest.approx(1.0, abs=1e-10)
        assert fact.coeffs[1, 0, 0] == pytest.approx(0.5, abs=1e-10)
        assert fact.residual < 1e-10

    def test_identity_matrix(self):
        fact = spectral_factorize(white(dim=2))
        assert fact.order == 0
        np.testing.assert_allclose(fact.coeffs[0], np.eye(2), atol=1e-10)

    def test_gauge_lower_triangular_positive(self):
        fact = spectral_factorize(coupled_ma2())
        d0 = fact.coeffs[0]
        np.testing.assert_allclose(d0, np.tril(d0), atol=1e-10)
        assert np.all(np.diag(d0).real > 0)
        np.testing.assert_allclose(np.diag(d0).imag, 0.0, atol=1e-10)

    def test_reconstruction_residual(self):
        f = coupled_ma2()
        fact = spectral_factorize(f)
        P = fact.symbol()
        recon = P @ np.conj(np.transpose(P, (0, 2, 1)))
        target = f.values
        assert np.abs(recon - target).max() < 1e-10

    def test_ar_density_factorizes(self):
        fact = spectral_factorize(ar1())
        # the causal factor of the inverse-polynomial density has geometric
        # taps phi^u; check the first few
        lead = fact.coeffs[0, 0, 0]
        for u in range(5):
            assert fact.coeffs[u, 0, 0] == pytest.approx(
                lead * 0.5**u, rel=1e-8
            )

    def test_rank_deficient_rejected(self):
        taps = [np.array([[1.0, 0.0], [1.0, 0.0]])]  # rank-1 constant density
        f = SpectralDensity.from_moving_average(taps, grid_size=GRID)
        with pytest.raises(MultiplicityError):
            spectral_factorize(f)

    def test_unit_circle_zero_rejected(self):
        f = SpectralDensity.from_coeffs({0: 2.0, 1: -1.0, -1: -1.0}, grid_size=GRID)
        with pytest.raises(MultiplicityError):
            spectral_factorize(f)

    def test_outer_property_negative_lags_of_inverse(self):
        # Q = P^{-1} of an outer factor is causal; its anticausal taps vanish
        fact = spectral_factorize(coupled_ma2())
        anticausal = fourier_coefficients(left_inverse(fact), np.arange(1, GRID // 2))
        assert np.abs(anticausal).max() < 1e-6


class TestLeftInverse:
    def test_identity(self):
        fact = spectral_factorize(white(dim=2))
        np.testing.assert_allclose(
            left_inverse(fact), np.tile(np.eye(2), (GRID, 1, 1)), atol=1e-12
        )

    def test_scalar_reciprocal(self, grid):
        fact = spectral_factorize(ma1())
        expected = 1.0 / (1.0 + 0.5 * np.exp(-1j * grid))
        np.testing.assert_allclose(
            left_inverse(fact)[:, 0, 0], expected, atol=1e-10
        )

    def test_left_inverse_identity_residual(self):
        fact = spectral_factorize(coupled_ma2())
        Q = left_inverse(fact)
        P = fact.symbol()
        resid = np.abs(Q @ P - np.eye(2)).max()
        assert resid < 1e-10

    def test_singular_factor_rejected(self):
        taps = np.zeros((2, 1, 1), dtype=complex)
        taps[0, 0, 0] = 1.0
        taps[1, 0, 0] = 1.0  # 1 + e^{-il} vanishes at the band edge
        fact = Factorization(coeffs=taps, residual=0.0, iterations=0, grid_size=GRID)
        with pytest.raises(SingularFactorError):
            left_inverse(fact)


    @pytest.mark.parametrize(
        "cond, seed",
        [(cond, seed) for cond in (1e9, 4e11, 6e11, 1e12, 2e12, 1e13, np.inf)
         for seed in (None, 1)]
        + [(1e12 * (1.0 - 1e-5), seed) for seed in range(20)],
    )
    def test_bound_keeps_the_svd_decision(self, cond, seed):
        # d(0) = U diag(1, 1/cond) V: refused exactly when the singular
        # values of P, largest over smallest, exceed FACTOR_COND_LIMIT, and
        # otherwise Q is the plain inverse of P
        d0 = np.diag([1.0, 1.0 / cond]).astype(complex)
        if seed is not None:
            z = np.random.default_rng(seed).standard_normal((4, 2, 2))
            u, v = (np.linalg.qr(z[i] + 1j * z[i + 2])[0] for i in range(2))
            d0 = u @ d0 @ v
        fact = Factorization(coeffs=d0[None], residual=0.0, iterations=0, grid_size=GRID)
        p = fact.symbol()
        sv = np.linalg.svd(p, compute_uv=False)
        if sv.min() <= 0.0 or sv.max() / sv.min() > FACTOR_COND_LIMIT:
            with pytest.raises(SingularFactorError):
                left_inverse(fact)
        else:
            np.testing.assert_array_equal(left_inverse(fact), np.linalg.inv(p))


class TestFactorizedExtrapolation:
    def test_white(self):
        w = FunctionalWeights.extrapolation([[1.0]])
        assert extrapolate_factorized(white(), w).mse == pytest.approx(1.0, abs=1e-12)

    def test_ma1_tap_sums(self):
        w = FunctionalWeights.extrapolation([[1.0], [1.0]])
        sol = extrapolate_factorized(ma1(), w)
        np.testing.assert_allclose(sol.solved_blocks[:, 0], [1.5, 1.0], atol=1e-9)
        assert sol.mse == pytest.approx(3.25, rel=1e-10)

    def test_zero_weights(self):
        w = FunctionalWeights.extrapolation(np.zeros((3, 1)))
        assert extrapolate_factorized(ma1(), w).mse == pytest.approx(0.0, abs=1e-12)

    def test_accepts_ready_factorization(self):
        fact = spectral_factorize(ma1())
        w = FunctionalWeights.extrapolation([[1.0], [1.0]])
        assert extrapolate_factorized(fact, w).mse == pytest.approx(3.25, rel=1e-10)

    def test_finite_variant(self):
        w = FunctionalWeights.extrapolation_finite([[1.0], [1.0]])
        assert extrapolate_factorized(ma1(), w).mse == pytest.approx(
            3.25, rel=1e-10
        )
        w0 = FunctionalWeights.extrapolation_finite([[1.0]])
        assert extrapolate_factorized(white(), w0).mse == pytest.approx(1.0)

    def test_finite_variant_identity_component(self):
        w = FunctionalWeights.extrapolation_finite([[1.0, 0.0], [0.0, 0.0]])
        assert extrapolate_factorized(white(dim=2), w).mse == pytest.approx(
            1.0, abs=1e-12
        )

    def test_forbidden_lags(self):
        w = FunctionalWeights.extrapolation([[1.0], [1.0]])
        sol = extrapolate_factorized(ma1(), w)
        assert sol.diagnostics["forbidden_lag_residual"] < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_route_agreement(self, seed, dim):
        rng = np.random.default_rng(100 + seed)
        f = random_psd_density(rng, dim, order=2)
        blocks = rng.normal(size=(3, dim)) * [[1.0], [0.6], [0.3]]
        w = FunctionalWeights.extrapolation(blocks)
        toeplitz = extrapolate(f, None, w).mse
        factorized = extrapolate_factorized(f, w).mse
        assert factorized == pytest.approx(toeplitz, rel=1e-5)

    def test_noise_vanishing_consistency(self):
        w = FunctionalWeights.extrapolation([[1.0], [0.5]])
        f = ma1()
        target = extrapolate_factorized(f, w).mse
        previous = np.inf
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            noisy = extrapolate(f, white(scale=eps), w).mse
            assert noisy <= previous + 1e-12
            previous = noisy
        assert previous == pytest.approx(target, rel=1e-2)


TOL = 1e-10


def residual_target(f):
    """The residual target of ``spectral_factorize`` at the default tolerance."""
    return TOL * max(1.0, float(np.abs(f.values).max()))


def reconstruction_error(fact, f):
    P = fact.symbol()
    return float(np.abs(P @ np.conj(np.transpose(P, (0, 2, 1))) - f.values).max())


def padded_taps(fact, order):
    out = np.zeros((order + 1,) + fact.coeffs.shape[1:], dtype=complex)
    out[: fact.order + 1] = fact.coeffs[: order + 1]
    return out


@functools.lru_cache(maxsize=None)
def benchmark_ma2(dim, seed):
    """The seeded MA(2) draw of the wide-blocks benchmark on G = 2048.

    Taps I, 0.15 N, 0.075 N with N complex standard normal, redrawn until
    the grid condition is at most 100.
    """
    rng = np.random.default_rng([seed, 1])
    for _ in range(100):
        noise = [
            (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            / np.sqrt(2)
            for _ in range(2)
        ]
        taps = [np.eye(dim), 0.15 * noise[0], 0.075 * noise[1]]
        f = SpectralDensity.from_moving_average(taps, grid_size=2048)
        report = check_minimality(f)
        if report.passed and report.max_condition <= 100.0:
            return f
    raise RuntimeError("no well-conditioned draw")


@functools.lru_cache(maxsize=None)
def fine_factor(dim, seed):
    return spectral_factorize(benchmark_ma2(dim, seed))


class TestIterationGrid:
    def test_narrow_band_grids(self):
        # G = 512: coarser grids first, then finer ones up to the default grid
        assert _iteration_grids(coupled_ma2()) == [128, 256, 1024, 2048]
        # G = 4096: up to 2 G, for a band whose coarser grids all stall
        f = SpectralDensity(1, np.ones((41, 1, 1)), grid_size=4096)
        assert _iteration_grids(f) == [256, 512, 1024, 2048, 8192]  # 8 (L + 1) = 168
        f = SpectralDensity(1, np.ones((1201, 1, 1)), grid_size=8192)
        assert _iteration_grids(f) == []  # 8 (L + 1) = 4808 rounds up to G

    def test_small_output_grids_iterate_finer(self):
        small = SpectralDensity.from_coeffs({0: 2.0, 1: 0.5, -1: 0.5}, grid_size=8)
        assert _iteration_grids(small) == [128, 256, 512, 1024, 2048]
        f = SpectralDensity(1, np.ones((31, 1, 1)), grid_size=128)
        assert _iteration_grids(f) == [256, 512, 1024, 2048]

    def test_wide_band_keeps_output_grid(self):
        f = SpectralDensity(1, np.ones((65, 1, 1)), grid_size=256)
        assert _iteration_grids(f) == []

    def test_wide_band_from_grid_takes_output_grid_path(self):
        # the AR(1) density's coefficients 0.9^|m| stay above 1e-15 of the
        # largest for hundreds of lags: a wide band on G = 512
        phi = 0.9
        lam = frequency_grid(GRID)
        vals = 1.0 / np.abs(1.0 - phi * np.exp(-1j * lam)) ** 2
        f = SpectralDensity.from_grid(vals)
        assert 8 * f.max_lag >= GRID
        assert _iteration_grids(f) == []
        fact = spectral_factorize(f)
        fv = _hermitian_values(f)
        psi, residual, steps = _fixed_point(fv, *_start(fv, None), residual_target(f))
        assert fact.iterations == steps
        assert fact.residual == residual
        taps = fourier_coefficients(psi, -np.arange(fact.order + 1))[:, 0, 0]
        # equal up to the gauge's rotation of round-off phases
        np.testing.assert_allclose(
            fact.coeffs[:, 0, 0], taps, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            fact.coeffs[:20, 0, 0], phi ** np.arange(20), atol=1e-9
        )

    def test_falls_back_when_iteration_grid_is_not_positive(self):
        # 1 + a cos(3 lambda + pi/32) dips below zero between the 32 output
        # nodes, which all stay positive; some of the 128 nodes see the dip
        c = 0.5 * 1.003 * np.exp(1j * np.pi / 32)
        f = SpectralDensity.from_coeffs({0: 1.0, 3: c, -3: np.conj(c)}, grid_size=32)
        assert f.values.real.min() > 0
        fine = SpectralDensity(1, f.coeffs, grid_size=MIN_ITERATION_GRID)
        assert _hermitian_values(fine).real.min() < 0
        fact = spectral_factorize(f)
        fv = _hermitian_values(f)
        psi, residual, steps = _fixed_point(fv, *_start(fv, None), residual_target(f))
        assert fact.iterations == steps
        assert fact.residual == residual <= residual_target(f)


class TestSmallOutputGrids:
    """The benchmark's MA(2) draws on grids that alias the iterates' taps.

    Iterated on their own 32 or 64 nodes, 10 of these 12 draws stalled
    above the target at G = 32 and 2 of 12 at G = 64.
    """

    @pytest.mark.parametrize("grid", [32, 64])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_factorizes_with_the_fine_grid_taps(self, dim, seed, grid):
        coarse = SpectralDensity(dim, benchmark_ma2(dim, seed).coeffs, grid_size=grid)
        fact = spectral_factorize(coarse, tol=TOL)
        assert fact.grid_size == grid
        assert fact.residual <= residual_target(coarse)
        assert reconstruction_error(fact, coarse) <= residual_target(coarse)
        reference = fine_factor(dim, seed)
        order = max(fact.order, reference.order)
        np.testing.assert_allclose(
            padded_taps(fact, order), padded_taps(reference, order), rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("b, grid", [(0.8, 128), (0.95, 256), (0.99, 2048)])
    def test_root_near_the_circle_on_a_moderate_grid(self, b, grid):
        # the inverse factor's taps b^u alias on the output grid itself, where
        # the residual stalls above the target; finer iteration grids resolve
        # them, for G = 2048 one of 2 G = 4096 nodes
        f = SpectralDensity.from_moving_average(
            [np.eye(1), b * np.eye(1)], grid_size=grid
        )
        fact = spectral_factorize(f, tol=TOL)
        assert reconstruction_error(fact, f) <= residual_target(f)
        np.testing.assert_allclose(fact.coeffs[:, 0, 0], [1.0, b], atol=1e-10)

    def test_cli_factorize_on_32_nodes(self, tmp_path):
        f = SpectralDensity(8, benchmark_ma2(8, 1).coeffs, grid_size=32)
        write_density_csv(f, tmp_path / "f.csv")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "task": "factorize",
            "densities": {"f": "f.csv"},
            "numerics": {"grid": 32},
        }))
        out = tmp_path / "out"
        assert main(["--spec", str(spec), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        summary = dict(row.split(",", 1) for row in rows)
        assert int(summary["order"]) == 2
        assert float(summary["residual"]) <= TOL


@st.composite
def stable_moving_averages(draw):
    """An MA(q) density with d(0) = I and sum_u ||d(u)|| <= 0.8 over u >= 1,
    so that P is invertible on the closed disk; K <= 4, q <= 3."""
    dim = draw(st.integers(1, 4))
    order = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    grid = draw(st.sampled_from([32, 256, 2048]))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((order, dim, dim)) + 1j * rng.standard_normal(
        (order, dim, dim)
    )
    weights = rng.uniform(0.1, 1.0, order)
    norms = np.linalg.norm(raw, ord=2, axis=(1, 2))
    scale = 0.8 * weights / weights.sum() / norms
    taps = [np.eye(dim), *(raw * scale[:, None, None])]
    return SpectralDensity.from_moving_average(taps, grid_size=grid)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(f=stable_moving_averages())
def test_factor_reproduces_density_and_fine_grid_taps(f):
    fact = spectral_factorize(f, tol=TOL)
    assert reconstruction_error(fact, f) <= residual_target(f)
    reference = spectral_factorize(
        SpectralDensity(f.dim, f.coeffs, grid_size=2048), tol=TOL
    )
    order = max(fact.order, reference.order)
    np.testing.assert_allclose(
        padded_taps(fact, order), padded_taps(reference, order), rtol=0, atol=1e-10
    )


class TestOutputGridVisitedOnce:
    """The output grid of a factor whose iteration grid met the target.

    Its gauged taps are synthesized there once and returned with that
    symbol, which the predictor and the left inverse then read.
    """

    @staticmethod
    def _counted(monkeypatch, G):
        calls = {"output-grid steps": 0, "factor syntheses": 0}
        fixed_point = factorization._fixed_point
        grid_symbol = factorization._grid_symbol

        def counted_fixed_point(fv, *args, **kwargs):
            psi, residual, steps = fixed_point(fv, *args, **kwargs)
            calls["output-grid steps"] += steps if fv.shape[0] == G else 0
            return psi, residual, steps

        def counted_symbol(coeffs, first_lag, grid_size):
            calls["factor syntheses"] += coeffs.ndim == 3 and grid_size == G
            return grid_symbol(coeffs, first_lag, grid_size)

        monkeypatch.setattr(factorization, "_fixed_point", counted_fixed_point)
        monkeypatch.setattr(factorization, "_grid_symbol", counted_symbol)
        return calls

    @pytest.mark.parametrize("dim, order", [(1, 2), (3, 3)])
    def test_moving_average_factors_with_one_synthesis(self, monkeypatch, dim, order):
        rng = np.random.default_rng(dim + order)
        raw = rng.standard_normal((order, dim, dim)) + 1j * rng.standard_normal(
            (order, dim, dim)
        )
        scale = 0.8 / order / np.linalg.norm(raw, ord=2, axis=(1, 2))
        f = SpectralDensity.from_moving_average(
            [np.eye(dim), *(raw * scale[:, None, None])], grid_size=2048
        )
        calls = self._counted(monkeypatch, 2048)
        fact = spectral_factorize(f)
        w = FunctionalWeights.extrapolation(np.ones((3, dim)))
        extrapolate_factorized(fact, w)
        left_inverse(fact)
        assert calls == {"output-grid steps": 0, "factor syntheses": 1}
        assert fact.order == order
        d0 = fact.coeffs[0]
        np.testing.assert_allclose(d0, np.tril(d0), rtol=0, atol=1e-14)
        assert np.all(np.diag(d0).real > 0)
        np.testing.assert_allclose(np.diag(d0).imag, 0.0, atol=1e-14)
        assert fact.residual <= residual_target(f)
        assert reconstruction_error(fact, f) <= residual_target(f)
        # the kept symbol is the synthesis of the returned taps
        fresh = Factorization(fact.coeffs, fact.residual, fact.iterations, 2048)
        np.testing.assert_array_equal(fact.symbol(), fresh.symbol())

    def test_stalled_iteration_grids_still_step_on_the_output_grid(self, monkeypatch):
        # the inverse factor's taps 0.99^u alias on every iteration grid, so
        # each stalls above the target; the output grid then takes its own
        # Newton step, warm-started from the last grid's taps
        f = SpectralDensity.from_moving_average([np.eye(1), 0.99 * np.eye(1)],
                                                grid_size=GRID)
        calls = self._counted(monkeypatch, GRID)
        fact = spectral_factorize(f)
        assert calls["output-grid steps"] == 1
        assert fact.residual <= residual_target(f)
        assert reconstruction_error(fact, f) <= residual_target(f)
        np.testing.assert_allclose(fact.coeffs[:, 0, 0], [1.0, 0.99], atol=1e-8)

    def test_density_argument_factors_it(self):
        f = coupled_ma2()
        w = FunctionalWeights.extrapolation(np.array([[1.0, -0.5], [0.3, 0.2j]]))
        direct = extrapolate_factorized(f, w)
        ready = extrapolate_factorized(spectral_factorize(f), w)
        assert direct.mse == ready.mse
        np.testing.assert_array_equal(direct.h_grid, ready.h_grid)
        np.testing.assert_array_equal(direct.solved_blocks, ready.solved_blocks)

    def test_density_keeps_its_factor(self, monkeypatch, caplog):
        # the first call factors f and keeps the factor on it; the next one
        # reuses it, and a Factorization argument is used as given
        calls = []
        factorize = factorization.spectral_factorize
        monkeypatch.setattr(
            factorization, "spectral_factorize",
            lambda f: calls.append(f) or factorize(f),
        )
        f = coupled_ma2()
        w = FunctionalWeights.extrapolation(np.array([[1.0, -0.5], [0.3, 0.2j]]))
        with caplog.at_level(logging.DEBUG, logger="pcwk"):
            first = extrapolate_factorized(f, w)
            again = extrapolate_factorized(f, FunctionalWeights.extrapolation_finite(w.blocks))
        assert calls == [f]
        assert [r.getMessage() for r in caplog.records if r.name == "pcwk"] == [
            f"causal factor (G = {GRID}, K = 2): {how}" for how in ("computed", "memo")
        ]
        fact = vars(f)["_factor"]
        assert again.diagnostics["factor_residual"] == fact.residual
        ready = factorize(f)
        handed = extrapolate_factorized(ready, w)
        assert calls == [f] and vars(f)["_factor"] is fact
        assert handed.mse == first.mse
        np.testing.assert_array_equal(handed.h_grid, first.h_grid)

    def test_left_inverse_is_computed_once_per_factor(self, monkeypatch):
        # the factor keeps its left inverse Q, read-only, next to its symbol:
        # later calls on the factor read it and return the same bits
        calls = []
        values = factorization._left_inverse_values
        monkeypatch.setattr(
            factorization, "_left_inverse_values",
            lambda p: calls.append(p.shape) or values(p),
        )
        f = coupled_ma2()
        w = FunctionalWeights.extrapolation(np.array([[1.0, -0.5], [0.3, 0.2j]]))
        first = extrapolate_factorized(f, w)
        again = extrapolate_factorized(f, FunctionalWeights.extrapolation(w.blocks[:1]))
        handed = extrapolate_factorized(vars(f)["_factor"], w)
        assert calls == [(GRID, 2, 2)]
        np.testing.assert_array_equal(handed.h_grid, first.h_grid)
        assert again.mse != first.mse
        Q = left_inverse(vars(f)["_factor"])
        assert calls == [(GRID, 2, 2)] and Q is vars(f)["_factor"]._left_inverse
        with pytest.raises(ValueError):
            Q[0, 0, 0] = 0.0

    def test_refused_density_keeps_no_factor(self):
        f = SpectralDensity.constant(np.diag([1.0, 0.0]), grid_size=GRID)
        w = FunctionalWeights.extrapolation(np.ones((1, 2)))
        for _ in range(2):
            with pytest.raises(MultiplicityError):
                extrapolate_factorized(f, w)
        assert "_factor" not in vars(f)

    def test_coefficients_and_symbol_are_read_only(self):
        taps = np.array([[[1.0]], [[0.5]]])
        fact = Factorization(coeffs=taps, residual=0.0, iterations=0, grid_size=GRID)
        taps[1] = 0.9  # the factor holds a copy
        assert fact.coeffs[1, 0, 0] == 0.5
        with pytest.raises(ValueError):
            fact.coeffs[0, 0, 0] = 2.0
        assert fact.symbol() is fact.symbol()
        for fact in (fact, spectral_factorize(coupled_ma2())):
            with pytest.raises(ValueError):
                fact.symbol()[0, 0, 0] = 0.0
