import numpy as np
import pytest

from pcwk import (
    FunctionalWeights,
    IllPosedError,
    compare_report,
    covariances_from_density,
    empirical_mse,
    extrapolate,
    filtering,
    simulate_sequence,
    spectral_factorize,
    time_domain_projection,
    time_domain_projection_converged,
)
from pcwk.factorization import Factorization
from pcwk.oracle import observation_indices
from conftest import GRID, ar1, coupled_ma2, ma1, white


class TestCovariances:
    def test_white(self):
        table = covariances_from_density(white(dim=2), 4)
        np.testing.assert_allclose(table.cov(0), np.eye(2), atol=1e-12)
        for j in (1, -3, 4):
            np.testing.assert_allclose(table.cov(j), 0.0, atol=1e-12)

    def test_ma1_values(self):
        table = covariances_from_density(ma1(), 3)
        assert table.cov(0)[0, 0] == pytest.approx(1.25, abs=1e-12)
        assert table.cov(1)[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert table.cov(2)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_pairing(self):
        table = covariances_from_density(coupled_ma2(), 5)
        for j in range(6):
            np.testing.assert_allclose(
                table.cov(-j), table.cov(j).conj().T, atol=1e-12
            )

    def test_moving_average_identity(self):
        # covariances of P P^* equal sum_u d(u+j) d(u)^H
        f = coupled_ma2()
        fact = spectral_factorize(f)
        table = covariances_from_density(f, 3)
        d = fact.coeffs
        for j in range(3):
            expected = np.zeros((2, 2), dtype=complex)
            for u in range(fact.order + 1 - j):
                expected += d[u + j] @ d[u].conj().T
            np.testing.assert_allclose(table.cov(j), expected, atol=1e-10)


class TestObservationIndices:
    def test_patterns(self):
        assert observation_indices("interpolation", 1, 2) == [-2, -1, 2, 3]
        assert observation_indices("extrapolation", 0, 3) == [-3, -2, -1]
        assert observation_indices("filtering", 0, 2) == [-2, -1, 0]


class TestProjection:
    def test_white_filtering(self):
        w = FunctionalWeights.filtering([[1.0]])
        proj = time_domain_projection(white(), white(), w, window=64)
        assert proj.mse == pytest.approx(0.5, abs=1e-8)

    def test_ar_single_gap_converges(self):
        w = FunctionalWeights.interpolation([[1.0]])
        proj, history = time_domain_projection_converged(ar1(), None, w)
        assert proj.mse == pytest.approx(0.8, rel=1e-6)
        values = [h.mse for h in history]
        for early, late in zip(values, values[1:]):
            assert late <= early + 1e-12

    def test_zero_weights(self):
        w = FunctionalWeights.filtering(np.zeros((1, 1)))
        proj = time_domain_projection(white(), white(), w, window=8)
        assert proj.mse == pytest.approx(0.0, abs=1e-12)

    def test_singular_observations_refused(self):
        zero = white(scale=0.0)
        w = FunctionalWeights.filtering([[1.0]])
        with pytest.raises(IllPosedError):
            time_domain_projection(zero, zero, w, window=4)


class TestSimulation:
    def test_unit_variance_band(self):
        fact = spectral_factorize(white())
        path = simulate_sequence(fact, 100_000, seed=42)
        var = float(np.mean(np.abs(path) ** 2))
        # variance of x^2 for standard normal is 2: a 3 sigma band
        assert abs(var - 1.0) < 3.0 * np.sqrt(2.0 / 100_000)

    def test_zero_factor(self):
        taps = np.zeros((1, 1, 1), dtype=complex)
        fact = Factorization(coeffs=taps, residual=0.0, iterations=0, grid_size=GRID)
        path = simulate_sequence(fact, 100, seed=1)
        np.testing.assert_allclose(path, 0.0)

    def test_ma1_lag_one_covariance(self):
        fact = spectral_factorize(ma1())
        n = 100_000
        path = simulate_sequence(fact, n, seed=7)[:, 0].real
        lag1 = float(np.mean(path[1:] * path[:-1]))
        # var of the lag-1 product is roughly E[x^2 y^2] ~ 2.2; 3 sigma band
        assert abs(lag1 - 0.5) < 3.0 * np.sqrt(2.2 / n)

    def test_deterministic_given_seed(self):
        fact = spectral_factorize(ma1())
        a = simulate_sequence(fact, 100, seed=3)
        b = simulate_sequence(fact, 100, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_empirical_mse_in_confidence_band(self):
        f, g = ma1(), white()
        w = FunctionalWeights.filtering([[1.0]])
        sol = filtering(f, g, w)
        report = empirical_mse(
            sol, w, spectral_factorize(f), spectral_factorize(g),
            n_blocks=100_000, seed=11,
        )
        assert abs(report.value - sol.mse) < report.half_width_99

    def test_empirical_mse_prediction(self):
        f = ma1()
        w = FunctionalWeights.extrapolation([[1.0]])
        sol = extrapolate(f, None, w)
        report = empirical_mse(sol, w, spectral_factorize(f), None,
                               n_blocks=100_000, seed=5)
        assert abs(report.value - sol.mse) < report.half_width_99


class TestCompareReport:
    def test_equal(self):
        rep = compare_report(0.8, 0.8)
        assert rep.rel_diff == 0.0
        assert rep.passed

    def test_small_difference_passes(self):
        assert compare_report(0.8, 0.800004, tolerance=1e-5).passed

    def test_large_difference_fails(self):
        rep = compare_report(0.8, 0.81, tolerance=1e-5)
        assert not rep.passed
        assert rep.rel_diff == pytest.approx(1.25e-2, rel=1e-10)
