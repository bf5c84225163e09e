import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcwk import (
    FunctionalWeights,
    InfeasibleClassError,
    SpectralDensity,
    check_minimality,
    filtering_relation_residuals,
    frequency_grid,
    interpolate,
    least_favorable_class_y,
    least_favorable_d01_extrapolation,
    least_favorable_d0eps_filtering_scalar,
    least_favorable_dm_interpolation,
    read_density_csv,
    saddle_point_check,
    sample_d01_class,
    sample_d0eps_class,
    sample_dm_class,
    sample_power_class,
    write_density_csv,
)
from pcwk.estimators import _ErrorFunctional, evaluate_mse
from pcwk.minimax import (
    _weight_gram,
    d01_class_residual,
    d0eps_class_residual,
    dm_class_residual,
    power_class_residual,
)
from pcwk import minimax, spectral
from pcwk.spectral import _all_fourier_coefficients, _node_eigenvalues
from conftest import GRID, ar1, white

GOLDEN_TOP = (3.0 + np.sqrt(5.0)) / 2.0  # top eigenvalue of [[2, 1], [1, 1]]


def finite_weights(blocks):
    return FunctionalWeights.extrapolation_finite(blocks)


def gram_matrix(weights):
    """The weight gram operator flattened to its (R K, R K) matrix."""
    gram = _weight_gram(weights)
    R, _, K, _ = gram.shape
    return gram.transpose(0, 2, 1, 3).reshape(R * K, R * K)


class TestQOperator:
    """The gram operator Q of shifted weight blocks (``minimax._weight_gram``)."""

    def test_single_unit_block(self):
        dense = gram_matrix(finite_weights([[1.0]]))
        assert dense.shape == (1, 1)
        assert dense[0, 0] == pytest.approx(1.0)

    def test_two_unit_blocks(self):
        dense = gram_matrix(finite_weights([[1.0], [1.0]]))
        np.testing.assert_allclose(dense, [[2.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_zero_weights(self):
        dense = gram_matrix(finite_weights(np.zeros((2, 1))))
        np.testing.assert_allclose(dense, 0.0)

    def test_hermitian_psd_and_floor(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        dense = gram_matrix(FunctionalWeights.extrapolation(blocks))
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-13)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > -1e-12
        assert eigs.max() >= np.linalg.norm(blocks[0]) ** 2 - 1e-12

    def test_padding_extends_range(self):
        dense = gram_matrix(finite_weights([[1.0], [0.0], [0.0]]))
        assert dense.shape == (3, 3)

    @pytest.mark.parametrize("n_range", [None, 1, 6])
    def test_matches_the_loop_reference(self, n_range):
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        R = 4 if n_range is None else n_range + 1
        ref = np.zeros((R, R, 3, 3), dtype=complex)
        for p in range(R):
            for q in range(R):
                for s in range(4 - max(p, q)):
                    ref[p, q] += np.outer(blocks[s + p], blocks[s + q].conj())
        # a smaller range is a corner of the stored gram, a larger one the
        # gram of the weights padded with zero blocks
        padded = np.concatenate([blocks, np.zeros((max(R - 4, 0), 3))])
        got = _weight_gram(FunctionalWeights.extrapolation(padded))[:R, :R]
        np.testing.assert_array_equal(got, ref)  # the same sums in the same order


class TestClassY:
    def test_single_block(self):
        result = least_favorable_class_y(finite_weights([[1.0]]), 1.0)
        assert result.minimax_mse == pytest.approx(1.0, abs=1e-12)
        vals = result.f0.values
        np.testing.assert_allclose(vals[:, 0, 0], 1.0, atol=1e-12)

    def test_two_blocks_golden(self):
        result = least_favorable_class_y(finite_weights([[1.0], [1.0]]), 1.0)
        assert result.certificate["nu_squared"] == pytest.approx(
            GOLDEN_TOP, abs=1e-12
        )
        assert result.minimax_mse == pytest.approx(GOLDEN_TOP, abs=1e-12)
        assert result.h0.mse == pytest.approx(GOLDEN_TOP, abs=1e-9)

    def test_rank_one_vector_case(self):
        w = finite_weights([[1.0, 0.0]])
        result = least_favorable_class_y(w, 2.0)
        assert result.minimax_mse == pytest.approx(2.0, abs=1e-12)

    def test_power_scales_error(self):
        w = finite_weights([[1.0], [1.0]])
        one = least_favorable_class_y(w, 1.0)
        five = least_favorable_class_y(w, 5.0)
        assert five.minimax_mse == pytest.approx(5.0 * one.minimax_mse, rel=1e-12)

    def test_monotone_in_horizon(self):
        # the top eigenvalue of the operator least_favorable_class_y solves,
        # embedded in ever larger shift ranges (the weights padded with zero
        # blocks)
        w = finite_weights([[1.0], [0.5]])
        nu = [
            np.linalg.eigvalsh(np.conj(gram_matrix(finite_weights(
                [[1.0], [0.5]] + [[0.0]] * (n - 1)))))[-1]
            for n in (1, 2, 4)
        ]
        assert nu[0] <= nu[1] + 1e-12 <= nu[2] + 2e-12
        solved = least_favorable_class_y(w, 1.0).certificate["nu_squared"]
        assert nu[0] == pytest.approx(solved, rel=1e-14)

    @pytest.mark.parametrize(
        "build",
        [
            lambda w: least_favorable_class_y(w, 3.0),
            lambda w: least_favorable_d01_extrapolation(w, np.array([[3.0]])),
        ],
        ids=["class_y", "d01"],
    )
    def test_zero_weights_degenerate(self, build):
        result = build(finite_weights(np.zeros((2, 1))))
        assert result.minimax_mse == 0.0
        assert result.certificate.get("degenerate")
        assert result.h0.mse == 0.0
        assert not np.any(result.h0.h_grid)
        assert power_class_residual(result.f0, 3.0) < 1e-12

    def test_saddle_margins_nonnegative(self):
        w = finite_weights([[1.0], [1.0]])
        result = least_favorable_class_y(w, 1.0, grid_size=GRID)
        rng = np.random.default_rng(123)
        samples = sample_power_class(rng, 1, 1, 1.0, 40, grid_size=GRID)
        report = saddle_point_check(
            result.h0, result.f0, None, samples, w,
            validator=lambda fs: power_class_residual(fs, 1.0),
        )
        assert report.n_rejected == 0
        assert report.min_margin >= -1e-8

    def test_out_of_class_sample_rejected(self):
        w = finite_weights([[1.0], [1.0]])
        result = least_favorable_class_y(w, 1.0, grid_size=GRID)
        bad = [white(scale=7.0)]
        report = saddle_point_check(
            result.h0, result.f0, None, bad, w,
            validator=lambda fs: power_class_residual(fs, 1.0),
        )
        assert report.n_rejected == 1
        assert report.margins.size == 0


class TestD01:
    def test_single_block(self):
        result = least_favorable_d01_extrapolation(
            finite_weights([[1.0]]), np.array([[1.0]])
        )
        assert result.minimax_mse == pytest.approx(1.0, abs=1e-12)

    def test_golden_instance(self):
        result = least_favorable_d01_extrapolation(
            finite_weights([[1.0], [1.0]]), np.array([[1.0]])
        )
        assert result.minimax_mse == pytest.approx(GOLDEN_TOP, abs=1e-12)
        assert result.certificate["eigen_residual"] < 1e-8
        assert "mse_mismatch" not in result.certificate
        assert result.h0.mse == pytest.approx(result.minimax_mse, abs=1e-10)

    def test_matrix_power_reduction(self):
        w = finite_weights([[1.0, 0.0]])
        with pytest.warns(UserWarning, match="not certified"):
            result = least_favorable_d01_extrapolation(w, np.eye(2))
        assert result.minimax_mse == pytest.approx(2.0, abs=1e-12)
        # one eigenvector family cannot match a full-rank power matrix
        assert result.certificate["power_constraint_residual"] > 0.1
        assert result.certificate["in_class"] is False
        realized = result.f0.values.mean(axis=0)
        assert np.trace(realized).real == pytest.approx(2.0, abs=1e-10)

    def test_agreement_with_power_class(self):
        w = finite_weights([[1.0, 0.5], [0.25, -0.3]])
        p_total = 2.0
        via_y = least_favorable_class_y(w, p_total)
        via_d01 = least_favorable_d01_extrapolation(
            w, (p_total / 2.0) * np.eye(2)
        )
        assert via_d01.minimax_mse == pytest.approx(via_y.minimax_mse, abs=1e-8)

    def test_invalid_power_matrix(self):
        w = finite_weights([[1.0]])
        with pytest.raises(ValueError):
            least_favorable_d01_extrapolation(w, np.array([[0.0]]))
        with pytest.raises(ValueError):
            least_favorable_d01_extrapolation(w, np.array([[-1.0]]))

    @pytest.mark.parametrize(
        "P",
        [np.eye(2), np.diag([1.0, -5e-11]), np.array([[2.0, 0.5j], [-0.5j, 1.0]])],
        ids=["identity", "round_off", "coupled"],
    )
    def test_power_constraint_residual_is_the_class_residual(self, P):
        w = finite_weights([[1.0, 0.0], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = least_favorable_d01_extrapolation(w, P, grid_size=GRID)
        residual = result.certificate["power_constraint_residual"]
        assert residual == d01_class_residual(result.f0, P)

    @pytest.mark.parametrize(
        "P, admitted",
        [
            (np.diag([1.0, -5e-11]), True),  # round-off below zero
            (np.diag([1.0, 0.0]), True),
            (np.diag([1.0, -2e-10]), False),
            (np.zeros((2, 2)), False),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), False),
        ],
        ids=["round_off", "singular", "indefinite", "zero_trace", "non_hermitian"],
    )
    def test_solver_and_sampler_admit_the_same_matrices(self, P, admitted):
        w = finite_weights([[1.0, 0.0]])
        calls = [
            lambda: least_favorable_d01_extrapolation(w, P, grid_size=GRID),
            lambda: sample_d01_class(np.random.default_rng(0), P, 1, 2, grid_size=GRID),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if admitted:
                    call()
                else:
                    with pytest.raises(ValueError, match="power matrix must"):
                        call()

    def test_saddle_margins(self):
        w = finite_weights([[1.0], [1.0]])
        P = np.array([[1.0]])
        result = least_favorable_d01_extrapolation(w, P, grid_size=GRID)
        rng = np.random.default_rng(99)
        samples = sample_d01_class(rng, P, 1, 50, grid_size=GRID)
        report = saddle_point_check(
            result.h0, result.f0, None, samples, w,
            validator=lambda fs: d01_class_residual(fs, P),
        )
        assert report.n_rejected == 0
        assert report.min_margin >= -1e-8


class TestDmInterpolation:
    def test_white_class(self):
        w = FunctionalWeights.interpolation([[1.0]])
        result = least_favorable_dm_interpolation([np.array([[1.0]])], w,
                                                  grid_size=GRID)
        assert result.minimax_mse == pytest.approx(1.0, abs=1e-10)
        vals = result.f0.values
        np.testing.assert_allclose(vals[:, 0, 0], 1.0, atol=1e-10)

    def test_autoregressive_class(self):
        w = FunctionalWeights.interpolation([[1.0]])
        result = least_favorable_dm_interpolation(
            [np.array([[1.25]]), np.array([[0.5]])], w, grid_size=GRID
        )
        assert result.minimax_mse == pytest.approx(0.8, abs=1e-10)
        # the worst density is the inverse of the moment polynomial
        lam = -np.pi + 2 * np.pi * np.arange(GRID) / GRID
        vals = result.f0.values[:, 0, 0]
        np.testing.assert_allclose(vals, 1.0 / (1.25 + np.cos(lam)), atol=1e-10)

    def test_reported_error_matches_solver(self):
        w = FunctionalWeights.interpolation([[1.0], [0.5]])
        p = [np.array([[1.5]]), np.array([[0.4]]), np.array([[0.1]])]
        result = least_favorable_dm_interpolation(p, w, grid_size=GRID)
        check = interpolate(result.f0, None, w)
        assert check.mse == pytest.approx(result.minimax_mse, abs=1e-10)

    def test_moment_reproduction(self):
        w = FunctionalWeights.interpolation([[1.0], [0.5]])
        p = [np.array([[1.5]]), np.array([[0.4]]), np.array([[0.1]])]
        result = least_favorable_dm_interpolation(p, w, grid_size=GRID)
        assert dm_class_residual(result.f0, p) < 1e-8

    def test_underdetermined_class_is_unbounded(self):
        # with moments P(0..1) and horizon n = 2 the free moment p2 ranges
        # over every positive definite Toeplitz section, p2 > -1.38. The
        # MA(2) member taps T^{-1} e0 / sqrt((T^{-1})_00) of each section
        # lies in the class and errs by a^T T^{-1} a, which grows without
        # bound as the section nears singularity
        p = [np.array([[1.5]]), np.array([[0.3]])]
        a = np.array([1.0, 0.5, 0.25])
        w = FunctionalWeights.interpolation(a.reshape(-1, 1))
        grid = 8192  # 512 nodes do not resolve the d = 1e-2 member
        for d, expected in ((0.1, 5.780), (1e-2, 55.39)):
            p2 = -1.38 + d
            T = np.array([[1.5, 0.3, p2], [0.3, 1.5, 0.3], [p2, 0.3, 1.5]])
            T_inv = np.linalg.inv(T)
            taps = T_inv[:, 0] / np.sqrt(T_inv[0, 0])
            member = SpectralDensity.from_moving_average(list(taps), grid_size=grid)
            assert dm_class_residual(member, p) <= 1e-8
            error = interpolate(member, None, w).mse
            assert error == pytest.approx(a @ T_inv @ a, rel=1e-9)
            assert error == pytest.approx(expected, rel=1e-3)
        with pytest.raises(InfeasibleClassError, match="unbounded"):
            least_favorable_dm_interpolation(p, w, grid_size=grid)

    def test_underdetermined_infeasible_extension_rejected(self):
        # one moment for horizon n = 1 leaves the section's off-diagonal
        # free, so the class is refused before any solve
        w = FunctionalWeights.interpolation([[1.0], [1.0]])
        with pytest.raises(InfeasibleClassError, match="unbounded"):
            least_favorable_dm_interpolation([np.array([[1.0]])], w,
                                             grid_size=GRID)

    def test_underdetermined_block_class_refused(self):
        w = FunctionalWeights.interpolation(np.ones((2, 2)))
        with pytest.raises(InfeasibleClassError, match="unbounded"):
            least_favorable_dm_interpolation([np.eye(2)], w, grid_size=GRID)

    def test_non_hermitian_constraint_rejected(self):
        w = FunctionalWeights.interpolation(np.ones((1, 2)))
        bad = [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]
        with pytest.raises(ValueError, match="Hermitian"):
            least_favorable_dm_interpolation(bad, w, grid_size=GRID)

    def test_indefinite_polynomial_rejected(self):
        w = FunctionalWeights.interpolation([[1.0]])
        bad = [np.array([[1.0]]), np.array([[0.8]])]  # 1 + 1.6 cos dips below 0
        with pytest.raises(InfeasibleClassError):
            least_favorable_dm_interpolation(bad, w, grid_size=GRID)

    @pytest.mark.parametrize("n", [1], ids=["1"])
    def test_indefinite_moment_system_infeasible(self, n):
        # the Toeplitz section [[1, 2], [2, 1]] has eigenvalues 3 and -1:
        # the polynomial gate refuses 1 + 4 cos before any solve
        w = FunctionalWeights.interpolation(np.ones((n + 1, 1)))
        bad = [np.array([[1.0]]), np.array([[2.0]])]
        with pytest.raises(InfeasibleClassError,
                           match="moment polynomial is not positive definite"):
            least_favorable_dm_interpolation(bad, w, grid_size=GRID)

    @pytest.mark.parametrize(
        "p",
        [
            [np.array([[1e-10]]), np.array([[0.3e-10]])],  # grid condition 4
            [np.array([[1.25]]), np.array([[0.5]])],
            [np.array([[1.5]]), np.array([[0.4]]), np.array([[0.1]])],
            [2.0 * np.eye(2), np.array([[0.3, 0.2j], [-0.2j, 0.1]])],
        ],
        ids=["tiny", "ar1", "ar2", "coupled"],
    )
    def test_sampled_members_pass_the_minimality_rule(self, p):
        w = FunctionalWeights.interpolation(np.ones((1, p[0].shape[0])))
        least_favorable_dm_interpolation(p, w, grid_size=GRID)  # the class solves
        rng = np.random.default_rng(6)
        samples = sample_dm_class(rng, p, extra_degree=3, count=20, grid_size=GRID)
        assert len(samples) == 20
        assert all(check_minimality(s).passed for s in samples)
        assert max(dm_class_residual(s, p) for s in samples) < 1e-8

    @pytest.mark.parametrize(
        "p",
        [
            [np.array([[1.5]]), np.array([[0.4]]), np.array([[0.1]])],
            [2.0 * np.eye(2), np.array([[0.3, 0.2j], [-0.2j, 0.1]])],
        ],
        ids=["ar2", "coupled"],
    )
    def test_saddle_check_inverts_each_member_once(self, monkeypatch, p):
        # the sampler inverts each draw into a member and seeds the member's
        # kernel memo from the draw's own values and lags, so the validator
        # and interpolate invert and transform nothing: one grid inversion
        # and one (G, K, K) FFT (that of from_grid) a member
        K = p[0].shape[0]
        w = FunctionalWeights.interpolation(np.ones((2, K)))
        result = least_favorable_dm_interpolation(p, w, grid_size=GRID)
        calls = {"inverse": 0, "grid fft": 0}
        grid_inverse, fft = spectral._grid_inverse, np.fft.fft

        def inverse(values):
            calls["inverse"] += 1
            return grid_inverse(values)

        def counted_fft(a, *args, **kwargs):
            calls["grid fft"] += np.ndim(a) == 3
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "_grid_inverse", inverse)
        monkeypatch.setattr(np.fft, "fft", counted_fft)
        members = sample_dm_class(
            np.random.default_rng(10), p, extra_degree=3, count=5, grid_size=GRID
        )
        report = saddle_point_check(
            result.h0, result.f0, None, members, w,
            validator=lambda fs: dm_class_residual(fs, p),
            optimal_error=lambda fs, gs: interpolate(fs, None, w).mse,
        )
        assert report.n_rejected == 0 and report.margins.size == 5
        assert calls == {"inverse": 5, "grid fft": 5}
        # the seeded memo is the member's own grid inverse and one FFT of it,
        # to round-off, and so are the moments read from it
        scale = max(float(np.linalg.norm(target)) for target in p)
        for member in members:
            inverse = grid_inverse(member.values)
            table = _all_fourier_coefficients(np.transpose(inverse, (0, 2, 1)))
            _, seeded, seeded_table, *_ = vars(member)["_exact_kernel"]
            np.testing.assert_allclose(seeded, inverse, rtol=0, atol=1e-13)
            np.testing.assert_allclose(seeded_table, table, rtol=0, atol=1e-13)
            worst = max(
                float(np.linalg.norm(0.5 * (table[m] + table[-m]).T - target))
                for m, target in enumerate(p)
            )
            assert dm_class_residual(member, p) == pytest.approx(worst / scale, abs=1e-15)

    @pytest.mark.parametrize(
        "p",
        [
            [np.array([[1.5]]), np.array([[0.4]]), np.array([[0.1]])],
            [2.0 * np.eye(2), np.array([[0.3, 0.2j], [-0.2j, 0.1]])],
        ],
        ids=["ar2", "coupled"],
    )
    def test_worst_density_kernel_is_the_moment_polynomial(self, p):
        # f0 is the inverse of the moment polynomial P: its exact-data kernel
        # is P's own values and lags, and its solve agrees with one that
        # inverts f0 back, to round-off
        K = p[0].shape[0]
        w = FunctionalWeights.interpolation(np.ones((len(p), K)))
        result = least_favorable_dm_interpolation(p, w, grid_size=GRID)
        f0 = result.f0
        assert dm_class_residual(f0, p) <= 1e-15
        fresh = interpolate(SpectralDensity.from_grid(f0.values), None, w)
        assert result.minimax_mse == pytest.approx(fresh.mse, rel=1e-12)
        np.testing.assert_allclose(result.h0.h_grid, fresh.h_grid, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "p",
        [
            [np.array([[1e-10]]), np.array([[0.3e-10]])],
            [np.array([[1.5]]), np.array([[0.4]]), np.array([[0.1]])],
            [2.0 * np.eye(2), np.array([[0.3, 0.2j], [-0.2j, 0.1]])],
        ],
        ids=["tiny", "ar2", "coupled"],
    )
    def test_every_member_errs_by_the_minimax_error(self, p):
        # for M >= n every member's error is a*T^{-1}a with the section T of
        # the prescribed moments, so f0 is a worst case with no gap
        K, M = p[0].shape[0], len(p) - 1
        w = FunctionalWeights.interpolation(0.5 ** np.arange(M + 1)[:, None]
                                            * np.ones((M + 1, K)))
        result = least_favorable_dm_interpolation(p, w, grid_size=GRID)
        rng = np.random.default_rng(6)
        samples = sample_dm_class(rng, p, extra_degree=3, count=20, grid_size=GRID)
        for s in samples:
            assert interpolate(s, None, w).mse == pytest.approx(
                result.minimax_mse, rel=1e-12
            )

    def test_outsider_of_a_small_class_rejected(self):
        # a white density of variance 1.01e8 has zero-lag inverse moment
        # 9.9e-9, about 100 times the class's 1e-10; its absolute distance
        # from the class is below the tolerance 1e-8, its relative one is 98
        p = [np.array([[1e-10]]), np.array([[0.3e-10]])]
        w = FunctionalWeights.interpolation([[1.0]])
        result = least_favorable_dm_interpolation(p, w, grid_size=GRID)
        outsider = white(scale=1.01e8)
        assert dm_class_residual(outsider, p) == pytest.approx(98.0099, rel=1e-6)
        members = sample_dm_class(
            np.random.default_rng(6), p, extra_degree=3, count=5, grid_size=GRID
        )
        report = saddle_point_check(
            result.h0, result.f0, None, [outsider, *members], w,
            validator=lambda fs: dm_class_residual(fs, p),
            optimal_error=lambda fs, gs: interpolate(fs, None, w).mse,
        )
        assert report.n_rejected == 1
        assert report.rejected[0].startswith("sample 0:")
        assert report.margins.size == 5

    def test_optimal_error_margins(self):
        # within the constrained band every class member shares the solver
        # blocks, so the optimal errors coincide and margins are ~ 0
        w = FunctionalWeights.interpolation([[1.0]])
        p = [np.array([[1.25]]), np.array([[0.5]])]
        result = least_favorable_dm_interpolation(p, w, grid_size=GRID)
        rng = np.random.default_rng(10)
        samples = sample_dm_class(rng, p, extra_degree=3, count=30, grid_size=GRID)
        report = saddle_point_check(
            result.h0, result.f0, None, samples, w,
            validator=lambda fs: dm_class_residual(fs, p),
            optimal_error=lambda fs, gs: interpolate(fs, None, w).mse,
        )
        assert report.n_rejected == 0
        assert report.min_margin >= -1e-8


@pytest.mark.parametrize(
    "residual",
    [
        lambda f, c: power_class_residual(f.scaled(c), 2.0 * c),
        lambda f, c: d01_class_residual(f.scaled(c), c * np.array([[2.0]])),
        lambda f, c: dm_class_residual(
            f.scaled(c), [np.array([[0.5 / c]]), np.array([[0.1 / c]])]
        ),
        lambda f, c: d0eps_class_residual(
            f.scaled(c), f.scaled(0.5 * c), 2.0 * c, 1.0 * c, 0.5, white(scale=c)
        ),
    ],
    ids=["power", "d01", "dm", "d0eps"],
)
def test_class_residuals_are_relative_to_the_class_scale(residual):
    # scaling a density and its class together leaves every residual as it is
    f = SpectralDensity.from_moving_average([[[1.2]], [[0.3]]], grid_size=GRID)
    base = residual(f, 1.0)
    assert base > 1e-3  # f is not a member of these classes
    for c in (1e-10, 1e8):
        assert residual(f, c) == pytest.approx(base, rel=1e-9)


# -- the error of a fixed characteristic, from coefficients -----------------

HORIZONS = {
    "interpolation": FunctionalWeights.interpolation,
    "extrapolation": FunctionalWeights.extrapolation,
    "filtering": FunctionalWeights.filtering,
}


def _random_case(seed, dim, horizon):
    """Random weights (two blocks) and a random characteristic on GRID."""
    rng = np.random.default_rng(seed)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    return rng, HORIZONS[horizon](cplx(2, dim)), cplx(GRID, dim)


def _random_ma(rng, dim, order):
    taps = rng.standard_normal((order + 1, dim, dim)) + 1j * rng.standard_normal(
        (order + 1, dim, dim)
    )
    return SpectralDensity.from_moving_average(list(taps), grid_size=GRID)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 4]),
    horizon=st.sampled_from(sorted(HORIZONS)),
    orders=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    noisy=st.booleans(),
    on_grid=st.booleans(),
)
def test_error_from_coefficients_equals_the_grid_quadrature(
    seed, dim, horizon, orders, noisy, on_grid
):
    rng, weights, h = _random_case(seed, dim, horizon)
    f = _random_ma(rng, dim, orders[0])
    g = _random_ma(rng, dim, orders[1]) if noisy else None
    if on_grid:
        # from_grid members: the grid inverses of the moving averages, whose
        # bands run to the Nyquist pair -G/2, G/2
        f, g = (None if d is None else SpectralDensity.from_grid(np.linalg.inv(d.values))
                for d in (f, g))
    value = _ErrorFunctional(h, weights)(f, g)
    if not on_grid:  # scored from the coefficients alone
        assert "values" not in vars(f) and (g is None or "values" not in vars(g))
    reference = evaluate_mse(h, f, g, weights)
    assert value == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_error_of_a_from_grid_member_is_its_grid_quadrature(dim, noisy):
    # a from_grid member is scored from its coefficients like any density,
    # and they describe its held grid values
    _, weights, h = _random_case(7, dim, "filtering" if noisy else "extrapolation")
    f = ar1(dim, phi=0.6)
    g = ar1(dim, phi=-0.3) if noisy else None
    value = _ErrorFunctional(h, weights)(f, g)
    assert value == pytest.approx(evaluate_mse(h, f, g, weights), rel=1e-12)


def _grid_power(f):
    return float(np.trace(f.values, axis1=1, axis2=2).real.mean())


@settings(derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 4]),
       order=st.integers(0, 4))
def test_class_residuals_equal_their_grid_forms(seed, dim, order):
    rng = np.random.default_rng(seed)
    f, g = _random_ma(rng, dim, order), _random_ma(rng, dim, order)
    P = rng.standard_normal((dim, dim))
    P = P @ P.T + np.eye(dim)
    power = float(np.trace(P))
    new = (power_class_residual(f, power), d01_class_residual(f, P))
    grid = (
        abs(_grid_power(f) - power) / power,
        float(np.linalg.norm(f.values.mean(axis=0) - P)) / float(np.linalg.norm(P)),
    )
    np.testing.assert_allclose(new, grid, rtol=1e-14, atol=1e-14)

    moments = [P, 0.3 * P, -0.1 * P.T]
    inverse = np.linalg.inv(f.values)
    lam = frequency_grid(GRID)
    worst = max(
        float(np.linalg.norm((inverse * np.cos(m * lam)[:, None, None]).mean(axis=0)
                             - target))
        for m, target in enumerate(moments)
    )
    scale = max(float(np.linalg.norm(target)) for target in moments)
    assert dm_class_residual(f, moments) == pytest.approx(worst / scale, rel=1e-14,
                                                          abs=1e-14)

    if dim == 1:  # the d0eps classes are scalar
        g2 = white(scale=0.5)
        eps, signal, noise = 0.4, 2.0, 1.5
        eigs = _node_eigenvalues(g.values - (1.0 - eps) * g2.values)
        res = max(abs(_grid_power(f) - signal), abs(_grid_power(g) - noise),
                  float(-min(eigs.min(), 0.0)))
        assert d0eps_class_residual(f, g, signal, noise, eps, g2) == pytest.approx(
            res / max(signal, noise), rel=1e-14, abs=1e-14
        )


@pytest.mark.parametrize("kind", ["class_y", "d01"])
def test_saddle_check_of_moving_averages_computes_no_grid_values(kind):
    # the cost property: each member is validated and scored from coefficients
    weights = finite_weights([[1.0, 0.5], [0.3, -0.2j]])
    rng = np.random.default_rng(4)
    if kind == "class_y":
        result = least_favorable_class_y(weights, 1.5, grid_size=GRID)
        members = sample_power_class(rng, 2, weights.n, 1.5, 20, grid_size=GRID)
        validator = lambda fs: power_class_residual(fs, 1.5)  # noqa: E731
    else:
        P = np.array([[1.0, 0.2], [0.2, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the d01 worst case is not in class
            result = least_favorable_d01_extrapolation(weights, P, grid_size=GRID)
        members = sample_d01_class(rng, P, weights.n, 20, grid_size=GRID)
        validator = lambda fs: d01_class_residual(fs, P)  # noqa: E731
    report = saddle_point_check(result.h0, result.f0, None, members, weights,
                                validator=validator)
    assert report.n_rejected == 0 and report.margins.size == 20
    assert report.min_margin >= -1e-8
    assert all("values" not in vars(member) for member in members)


class TestFilteringRelations:
    def test_white_candidate_satisfies_relations(self):
        w = FunctionalWeights.filtering([[1.0]])
        report = filtering_relation_residuals(
            white(), white(), w, alpha2=0.25, beta2=0.25,
            phi=0.0, eps=1.0, g2=white(),
        )
        assert report.rel_residual_noise_relation < 1e-10
        assert report.rel_residual_signal_relation < 1e-10
        assert report.slackness_residual == 0.0
        assert not report.phi_positive
        assert report.signal_power == pytest.approx(1.0, abs=1e-12)
        assert report.noise_power == pytest.approx(1.0, abs=1e-12)

    def test_zero_weights_need_zero_multiplier(self):
        w = FunctionalWeights.filtering(np.zeros((1, 1)))
        ok = filtering_relation_residuals(
            white(), white(), w, alpha2=0.0, beta2=0.0, phi=0.0, eps=1.0,
            g2=white(),
        )
        assert ok.residual_noise_relation == pytest.approx(0.0, abs=1e-12)
        bad = filtering_relation_residuals(
            white(), white(), w, alpha2=0.25, beta2=0.0, phi=0.0, eps=1.0,
            g2=white(),
        )
        assert bad.residual_noise_relation > 0.5

    def test_positive_phi_flagged(self):
        w = FunctionalWeights.filtering([[1.0]])
        report = filtering_relation_residuals(
            white(), white(), w, alpha2=0.25, beta2=0.25,
            phi=np.full(GRID, 0.1), eps=1.0, g2=white(),
        )
        assert report.phi_positive


class TestD0EpsSolver:
    def test_symmetric_case_certified(self):
        w = FunctionalWeights.filtering([[1.0]])
        result = least_favorable_d0eps_filtering_scalar(
            w, 1.0, 1.0, 1.0, white(), grid_size=GRID
        )
        cert = result.certificate
        assert cert["converged"]
        assert cert["residual_noise_relation"] <= 1e-6
        assert cert["residual_signal_relation"] <= 1e-6
        assert cert["alpha_squared"] == pytest.approx(0.25, abs=1e-6)
        assert cert["beta_squared"] == pytest.approx(0.25, abs=1e-6)
        assert result.minimax_mse == pytest.approx(0.5, abs=1e-6)

    def test_symmetric_saddle_margins(self):
        w = FunctionalWeights.filtering([[1.0]])
        result = least_favorable_d0eps_filtering_scalar(
            w, 1.0, 1.0, 1.0, white(), grid_size=GRID
        )
        rng = np.random.default_rng(21)
        samples = sample_d0eps_class(rng, 1.0, 1.0, 1.0, white(), 1, 50)
        report = saddle_point_check(
            result.h0, result.f0, result.g0, samples, w,
            validator=lambda fs, gs: d0eps_class_residual(
                fs, gs, 1.0, 1.0, 1.0, white()
            ),
        )
        assert report.n_rejected == 0
        assert report.min_margin >= -1e-8

    def test_collapsed_noise_class(self):
        w = FunctionalWeights.filtering([[1.0]])
        result = least_favorable_d0eps_filtering_scalar(
            w, 1.0, 1.0, 0.0, white(), grid_size=GRID
        )
        assert result.certificate["converged"]
        vals = result.g0.values[:, 0, 0]
        np.testing.assert_allclose(vals, 1.0, atol=1e-8)

    def test_zero_weights_degenerate(self):
        w = FunctionalWeights.filtering(np.zeros((1, 1)))
        result = least_favorable_d0eps_filtering_scalar(
            w, 1.0, 1.0, 0.5, white(), grid_size=GRID
        )
        assert result.minimax_mse == pytest.approx(0.0, abs=1e-12)
        assert result.certificate["degenerate"]

    def test_infeasible_class(self):
        w = FunctionalWeights.filtering([[1.0]])
        with pytest.raises(InfeasibleClassError):
            least_favorable_d0eps_filtering_scalar(
                w, 1.0, 0.3, 0.5, white(scale=2.0), grid_size=GRID
            )

    def test_nonconvergence_is_flagged_not_asserted(self):
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = least_favorable_d0eps_filtering_scalar(
                w, 1.0, 1.0, 1.0, white(), grid_size=GRID, max_iter=40
            )
        cert = result.certificate
        if cert["converged"]:
            assert cert["residual_noise_relation"] <= 1e-6
            assert cert["residual_signal_relation"] <= 1e-6
        else:
            assert any("not certified" in str(w.message) for w in caught)

    def test_least_favorable_csvs_read_back_to_the_solved_pair(self, tmp_path):
        # the hard instance's pair holds a Nyquist term, which its coefficient
        # CSVs used to drop: they read back 0.485 off at every node
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = least_favorable_d0eps_filtering_scalar(
                w, 1.0, 1.0, 1.0, white(), grid_size=GRID, max_iter=60
            )
        for name, density in (("f", result.f0), ("g", result.g0)):
            path = tmp_path / f"least_favorable_{name}.csv"
            write_density_csv(density, path)
            back = read_density_csv(path, grid_size=GRID).values
            scale = np.abs(density.values).max()
            assert np.abs(back - density.values).max() <= 1e-12 * scale, name

    def test_grid_size_must_match_the_baseline(self):
        w = FunctionalWeights.filtering([[1.0]])
        with pytest.raises(ValueError, match=f"grid_size {GRID // 2} .* {GRID} of g2"):
            least_favorable_d0eps_filtering_scalar(
                w, 1.0, 1.0, 0.5, white(), grid_size=GRID // 2
            )

    def test_scalar_only(self):
        w = FunctionalWeights.filtering(np.ones((1, 2)))
        with pytest.raises(ValueError):
            least_favorable_d0eps_filtering_scalar(
                w, 1.0, 1.0, 0.5, white(), grid_size=GRID
            )


def _refusal(call):
    """The type and message of the exception ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestSamplersAdmitByTheSolversRules:
    """A class sampler refuses a class with its solver's error and message."""

    @pytest.mark.parametrize("signal, noise, eps, dim, expected", [
        (1.0, 1.0, 1.5, 1, "eps must lie in [0, 1]"),
        (1.0, 2.0, 0.0, 1, "pinned to the baseline"),
        (-1.0, 1.0, 0.5, 1, "powers must be positive"),
        (1.0, 0.2, 0.5, 1, "below the contamination floor"),
        (1.0, 1.0, 0.5, 2, "only the scalar case is supported"),
    ], ids=["eps", "eps0-power", "signal-power", "floor", "dim"])
    def test_d0eps(self, signal, noise, eps, dim, expected):
        # the sampler used to return members for eps = 1.5, and for the pinned
        # eps = 0 class members its validator rejects
        g2 = white(dim=dim)
        w = FunctionalWeights.filtering(np.ones((1, dim)))
        refusal = _refusal(lambda: least_favorable_d0eps_filtering_scalar(
            w, signal, noise, eps, g2))
        assert expected in refusal[1]
        assert _refusal(lambda: sample_d0eps_class(
            np.random.default_rng(0), signal, noise, eps, g2, 1, 2)) == refusal

    @pytest.mark.parametrize("power", [-1.0, 0.0])
    def test_power(self, power):
        # -1 used to fail on non-finite taps, and 0 to return zero densities
        refusal = _refusal(lambda: least_favorable_class_y(
            finite_weights([[1.0]]), power, grid_size=GRID))
        assert refusal == (ValueError, "total_power must be positive")
        assert _refusal(lambda: sample_power_class(
            np.random.default_rng(0), 1, 1, power, 2, grid_size=GRID)) == refusal

    @pytest.mark.parametrize("moments, expected", [
        ([], "need at least the zero-lag constraint"),
        ([[[2.0]], [[0.5j]]], "constraint 1 must be Hermitian"),
        ([[[1.0]], [[0.8]]], "moment polynomial is not positive definite on the grid"),
    ], ids=["empty", "hermitian", "indefinite"])
    def test_dm(self, moments, expected):
        refusal = _refusal(lambda: least_favorable_dm_interpolation(
            moments, FunctionalWeights.interpolation([[1.0]]), grid_size=GRID))
        assert expected in refusal[1]
        assert _refusal(lambda: sample_dm_class(
            np.random.default_rng(0), moments, 3, 2, grid_size=GRID)) == refusal
