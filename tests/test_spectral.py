import numpy as np
import pytest

from pcwk import (
    AliasingError,
    FunctionalWeights,
    IllPosedError,
    MinimalityError,
    MultiplicityError,
    PcwkError,
    SpectralDensity,
    check_minimality,
    extrapolate,
    fourier_coefficients,
    interpolate,
    read_density_csv,
    spectral_factorize,
    time_domain_projection_converged,
    validate_density,
    write_density_csv,
)
from conftest import GRID, ar1, coupled_ma2, ma1, white


class TestEvaluateOnGrid:
    def test_constant_scalar(self):
        vals = white().values
        np.testing.assert_allclose(vals[:, 0, 0], 1.0, atol=1e-14)

    def test_ma1_is_shifted_cosine(self, grid):
        vals = ma1().values[:, 0, 0]
        np.testing.assert_allclose(vals, 1.25 + np.cos(grid), atol=1e-12)

    def test_identity_matrix(self):
        vals = white(dim=2).values
        np.testing.assert_allclose(vals, np.tile(np.eye(2), (GRID, 1, 1)), atol=1e-14)

    def test_hermitian_at_every_node(self):
        vals = coupled_ma2().values
        np.testing.assert_allclose(
            vals, np.conj(np.transpose(vals, (0, 2, 1))), atol=1e-12
        )

    def test_values_are_cached_and_read_only(self):
        f = coupled_ma2()
        assert f.values is f.values
        with pytest.raises(ValueError, match="read-only"):
            f.values[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[f.max_lag] = 0.0

    def test_from_grid_keeps_a_copy_of_its_samples(self, grid):
        samples = (1.25 + np.cos(grid)).astype(complex)
        f = SpectralDensity.from_grid(samples)
        samples[:] = 0.0
        np.testing.assert_array_equal(f.values[:, 0, 0], 1.25 + np.cos(grid))
        with pytest.raises(ValueError, match="read-only"):
            f.values[0, 0, 0] = 1.0
        assert f.max_lag == 1  # lags below round-off are pruned


class TestFourierCoefficient:
    def test_identity_lag_zero(self):
        vals = white(dim=2).values
        np.testing.assert_allclose(
            fourier_coefficients(vals, [0])[0], np.eye(2), atol=1e-14
        )

    def test_identity_nonzero_lag(self):
        vals = white(dim=2).values
        np.testing.assert_allclose(
            fourier_coefficients(vals, [3])[0], np.zeros((2, 2)), atol=1e-14
        )

    def test_reads_off_trig_coefficient(self, grid):
        vals = (1.25 + np.cos(grid)).astype(complex)
        assert fourier_coefficients(vals, [1])[0][0, 0] == pytest.approx(0.5, abs=1e-13)

    def test_roundtrip_is_exact(self):
        f = coupled_ma2()
        vals = f.values
        for m in (-1, 0, 1):
            np.testing.assert_allclose(
                fourier_coefficients(vals, [m])[0], f.coeff(m), atol=1e-12
            )

    def test_aliasing_guard(self):
        vals = white().values
        with pytest.raises(AliasingError):
            fourier_coefficients(vals, [GRID // 2])[0]


class TestCheckMinimality:
    def test_white_pair_integral(self):
        rep = check_minimality(white(), white())
        assert rep.passed
        assert rep.integral == pytest.approx(np.pi, abs=1e-10)

    def test_spectral_zero_fails(self, grid):
        # |1 - e^{-il}|^2 vanishes at zero frequency
        f = SpectralDensity.from_coeffs(
            {0: 2.0, 1: -1.0, -1: -1.0}, grid_size=GRID
        )
        rep = check_minimality(f)
        assert not rep.passed
        assert rep.integral == np.inf
        assert rep.worst_node == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_integral(self):
        f = SpectralDensity.constant(np.diag([1.0, 2.0]), grid_size=GRID)
        rep = check_minimality(f)
        assert rep.passed
        assert rep.integral == pytest.approx(3.0 * np.pi, abs=1e-10)

    def test_monotone_in_added_noise(self):
        f = ma1()
        base = check_minimality(f).integral
        for scale in (0.1, 1.0, 5.0):
            assert check_minimality(f, white(scale=scale)).integral <= base + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_minimality(white(dim=1), white(dim=2))


class TestOneGate:
    """Every positive-definiteness decision reads the same node eigenvalues."""

    def test_one_decomposition_per_density(self, monkeypatch):
        G = 2048
        f = SpectralDensity.from_moving_average(
            [np.eye(2), [[0.4, 0.2], [-0.1, 0.3]]], grid_size=G
        )
        blocks = [[1.0, 0.5], [0.25, 0.0]]
        eigvalsh, shapes = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[0] == G:
                shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert validate_density(f).ok
        assert check_minimality(f).passed
        interpolate(f, None, FunctionalWeights.interpolation(blocks))
        extrapolate(f, None, FunctionalWeights.extrapolation(blocks))
        spectral_factorize(f)
        assert shapes == [(G, 2, 2)]
        herm = 0.5 * (f.values + np.conj(np.transpose(f.values, (0, 2, 1))))
        np.testing.assert_array_equal(f.eigenvalues, eigvalsh(herm))
        assert f.eigenvalues is f.eigenvalues
        with pytest.raises(ValueError, match="read-only"):
            f.eigenvalues[0, 0] = 1.0

    @pytest.mark.parametrize("b", [0.9, 1 - 1e-5, 1 - 1e-7, 1.0])
    @pytest.mark.parametrize(
        "solve, error",
        [
            (lambda f, w: interpolate(f, None, w), MinimalityError),
            (lambda f, w: spectral_factorize(f), MultiplicityError),
            (lambda f, w: time_domain_projection_converged(f, None, w), IllPosedError),
        ],
        ids=["interpolate", "spectral_factorize", "oracle"],
    )
    def test_one_rule(self, b, solve, error):
        # MA(1) with taps 1, b: grid condition ((1 + b) / (1 - b))^2, which
        # is 4e10 at b = 1 - 1e-5 and 4e14 at b = 1 - 1e-7
        f = SpectralDensity.from_moving_average([[[1.0]], [[b]]], grid_size=2048)
        passed = check_minimality(f).passed
        assert passed == (b <= 1 - 1e-5)
        refused = False
        try:
            solve(f, FunctionalWeights.interpolation([[1.0]]))
        except error:
            refused = True
        except PcwkError:  # a failure after the gate, such as no convergence
            pass
        assert refused == (not passed)


class TestValidateDensity:
    def test_identity_ok(self):
        rep = validate_density(white(dim=2))
        assert rep.ok
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_non_psd_flagged(self):
        f = SpectralDensity.from_coeffs({0: 1.0, 1: 0.6, -1: 0.6}, grid_size=GRID)
        rep = validate_density(f)
        assert not rep.psd_ok
        assert rep.min_eigenvalue == pytest.approx(-0.2, abs=1e-10)
        assert any("positive semidefinite" in issue for issue in rep.issues)

    def test_missing_partner_flagged(self):
        f = SpectralDensity(dim=1, coeffs={0: np.eye(1), 1: 0.3 * np.eye(1)},
                            grid_size=GRID)
        rep = validate_density(f)
        assert not rep.hermitian_ok
        assert any("partner" in issue for issue in rep.issues)

    def test_asymmetric_pair_flagged(self):
        f = SpectralDensity(
            dim=1,
            coeffs={0: np.eye(1), 1: 0.3 * np.eye(1), -1: 0.1 * np.eye(1)},
            grid_size=GRID,
        )
        rep = validate_density(f)
        assert not rep.hermitian_ok


class TestMovingAverageConstruction:
    def test_ma1_coefficients(self):
        f = ma1()
        assert f.coeff(0)[0, 0] == pytest.approx(1.25)
        assert f.coeff(1)[0, 0] == pytest.approx(0.5)
        assert f.coeff(-1)[0, 0] == pytest.approx(0.5)
        assert f.max_lag == 1

    def test_from_grid_recovers_polynomial(self):
        f = coupled_ma2()
        sampled = SpectralDensity.from_grid(f.values)
        for m in (-1, 0, 1):
            np.testing.assert_allclose(sampled.coeff(m), f.coeff(m), atol=1e-12)

    def test_scaled(self):
        f = ma1().scaled(3.0)
        assert f.coeff(0)[0, 0] == pytest.approx(3.75)


class TestDensityCsv:
    def test_roundtrip(self, tmp_path):
        f = coupled_ma2()
        path = tmp_path / "f.csv"
        write_density_csv(f, path)
        back = read_density_csv(path, grid_size=GRID)
        assert back.dim == 2
        for m in (-1, 0, 1):
            np.testing.assert_allclose(back.coeff(m), f.coeff(m), atol=0.0)

    def test_autofill_warns(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text(
            "m,row,col,re,im\n0,0,0,1.25,0.0\n1,0,0,0.5,0.0\n", encoding="utf-8"
        )
        with pytest.warns(UserWarning, match="Hermitian symmetry"):
            f = read_density_csv(path, grid_size=GRID)
        assert f.coeff(-1)[0, 0] == pytest.approx(0.5)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,row,col,re,im\n0,0,0,one,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            read_density_csv(path)

    def test_ar_density_survives_roundtrip_via_grid(self, tmp_path):
        f = ar1()
        path = tmp_path / "ar.csv"
        write_density_csv(f, path)
        back = read_density_csv(path, grid_size=GRID)
        orig = f.values
        again = back.values
        np.testing.assert_allclose(again, orig, atol=1e-10)
