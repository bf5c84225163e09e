import numpy as np
import pytest

from pcwk import (
    FunctionalWeights,
    MultiplicityError,
    SingularFactorError,
    SpectralDensity,
    extrapolate,
    extrapolate_factorized,
    left_inverse,
    spectral_factorize,
)
from pcwk.factorization import Factorization, _taps_from_grid
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
        q_taps = _taps_from_grid(left_inverse(fact))
        anticausal = q_taps[GRID // 2 :]
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
