import warnings

import numpy as np
import pytest

from pcwk import (
    FunctionalWeights,
    InfeasibleClassError,
    SpectralDensity,
    build_q_operator,
    check_minimality,
    filtering_relation_residuals,
    interpolate,
    least_favorable_class_y,
    least_favorable_d01_extrapolation,
    least_favorable_d0eps_filtering_scalar,
    least_favorable_dm_interpolation,
    saddle_point_check,
    sample_d01_class,
    sample_d0eps_class,
    sample_dm_class,
    sample_power_class,
)
from pcwk.minimax import (
    d01_class_residual,
    d0eps_class_residual,
    dm_class_residual,
    power_class_residual,
)
from conftest import GRID, white

GOLDEN_TOP = (3.0 + np.sqrt(5.0)) / 2.0  # top eigenvalue of [[2, 1], [1, 1]]


def finite_weights(blocks):
    return FunctionalWeights.extrapolation_finite(blocks)


class TestQOperator:
    def test_single_unit_block(self):
        q = build_q_operator(finite_weights([[1.0]]))
        assert q.dense.shape == (1, 1)
        assert q.dense[0, 0] == pytest.approx(1.0)

    def test_two_unit_blocks(self):
        q = build_q_operator(finite_weights([[1.0], [1.0]]))
        np.testing.assert_allclose(q.dense, [[2.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_zero_weights(self):
        q = build_q_operator(finite_weights(np.zeros((2, 1))))
        np.testing.assert_allclose(q.dense, 0.0)

    def test_hermitian_psd_and_floor(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        q = build_q_operator(FunctionalWeights.extrapolation(blocks))
        dense = q.dense
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-13)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > -1e-12
        assert eigs.max() >= np.linalg.norm(blocks[0]) ** 2 - 1e-12

    def test_padding_extends_range(self):
        q = build_q_operator(finite_weights([[1.0]]), n_range=2)
        assert q.dense.shape == (3, 3)

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
        got = build_q_operator(FunctionalWeights.extrapolation(blocks), n_range).blocks
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
        # embedded in ever larger shift ranges
        w = finite_weights([[1.0], [0.5]])
        nu = [
            np.linalg.eigvalsh(np.conj(build_q_operator(w, n).dense))[-1]
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

    def test_scalar_underdetermined_moments(self):
        # fewer constraints than the horizon: the solver extends the moments
        # (weights chosen so the extended polynomial stays positive)
        w = FunctionalWeights.interpolation([[1.0], [0.25]])
        result = least_favorable_dm_interpolation([np.array([[1.0]])], w,
                                                  grid_size=GRID)
        assert result.certificate["system_residual"] < 1e-8
        assert dm_class_residual(result.f0, [np.array([[1.0]])]) < 1e-8
        check = interpolate(result.f0, None, w)
        assert check.mse == pytest.approx(result.minimax_mse, abs=1e-9)

    def test_underdetermined_infeasible_extension_rejected(self):
        # the forward-substituted moments can leave the positive cone; that
        # must surface as class infeasibility, not a bogus density
        w = FunctionalWeights.interpolation([[1.0], [1.0]])
        with pytest.raises(InfeasibleClassError):
            least_favorable_dm_interpolation([np.array([[1.0]])], w,
                                             grid_size=GRID)

    def test_underdetermined_needs_scalar(self):
        w = FunctionalWeights.interpolation(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
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

    @pytest.mark.parametrize(
        "n, message",
        [(1, "moment polynomial is not positive definite"), (3, "moment system")],
        ids=["1", "3"],
    )
    def test_indefinite_moment_system_infeasible(self, n, message):
        # the Toeplitz section [[1, 2], [2, 1]] has eigenvalues 3 and -1. In
        # the band case (n = 1) the polynomial gate refuses 1 + 4 cos before
        # any solve; the forward-substituted case (n = 3) first solves the
        # section, whose Cholesky factorization fails
        w = FunctionalWeights.interpolation(np.ones((n + 1, 1)))
        bad = [np.array([[1.0]]), np.array([[2.0]])]
        with pytest.raises(InfeasibleClassError, match=message):
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
