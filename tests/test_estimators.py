import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pcwk import (
    AliasingError,
    FunctionalWeights,
    IllPosedError,
    MinimalityError,
    SpectralDensity,
    TruncationError,
    build_block_matrix,
    check_minimality,
    evaluate_mse,
    extrapolate,
    extrapolate_factorized,
    filtering,
    forbidden_lag_residual,
    forbidden_lags,
    frequency_grid,
    interpolate,
)
from pcwk import estimators, spectral
from pcwk.cholesky import PANEL, SectionFactor, backward, forward
from pcwk.spectral import _grid_symbol
from pcwk.oracle import time_domain_projection_converged
from conftest import GRID, ar1, coupled_ma2, ma1, white


def section_solve(section, matrix, rhs):
    """Solve matrix x = rhs through a read of the section factor."""
    strips = section.strips(rhs.size, lambda i, j: matrix[i:j, :j], "test")
    return backward(strips, forward(strips, rhs))


def unit_interp(n=0, dim=1):
    blocks = np.zeros((n + 1, dim), dtype=complex)
    blocks[0, 0] = 1.0
    return FunctionalWeights.interpolation(blocks)


@st.composite
def stable_ma_densities(draw, dim):
    """A complex MA(1) density with taps (I + E, D): ||E|| <= 0.43 and
    ||D|| <= 0.22, so I + E + D z is invertible on the unit circle."""
    raw = draw(arrays(np.float64, (2, dim, dim, 2), elements=st.floats(-0.1, 0.1)))
    e, d = raw[..., 0] + 1j * raw[..., 1]
    return SpectralDensity.from_moving_average([np.eye(dim) + e, 0.5 * d], grid_size=GRID)


class TestBlockMatrices:
    def test_inverse_kernel_block(self):
        bm = build_block_matrix("B", white(), white(), [0], [0])
        assert bm[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_error_floor_kernel_block(self):
        # f (f+g)^{-1} g = 1/2 for the white pair; its lag-0 coefficient is 1/2
        bm = build_block_matrix("W", white(), white(), [0], [0])
        assert bm[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_hankel_block_vanishes_for_constant_kernel(self):
        bm = build_block_matrix("V", white(), white(), [1], [0])
        assert abs(bm[0, 0]) < 1e-13

    def test_hermitian_and_psd_kinds(self):
        f, g = ma1(2, 0.4), white(dim=2, scale=0.5)
        rng = range(0, 3)
        for kind in ("B", "U", "R", "W"):
            dense = build_block_matrix(kind, f, g, rng, rng)
            np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(dense).min() > -1e-12

    @pytest.mark.parametrize("kind", ["D", "V", "R", "W"])
    def test_exact_data_kernels_are_identity_and_zero(self, kind):
        # without noise f (f+g)^{-1} is I (kinds D and V, at lag 0) and
        # f (f+g)^{-1} g is zero (kinds R and W)
        rows = range(3)
        cols = range(0, -3, -1) if kind == "V" else rows  # V reads lag row + col
        dense = build_block_matrix(kind, ma1(2, 0.4), None, rows, cols)
        expected = np.eye(6) if kind in "DV" else np.zeros((6, 6))
        np.testing.assert_array_equal(dense, expected)

    def test_minimality_gate(self):
        f = SpectralDensity.from_coeffs({0: 2.0, 1: -1.0, -1: -1.0}, grid_size=GRID)
        with pytest.raises(MinimalityError):
            build_block_matrix("B", f, None, [0], [0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_block_matrix("X", white(), None, [0], [0])

    @pytest.mark.parametrize("kind", estimators.BLOCK_KINDS)
    @pytest.mark.parametrize("dim, rows, cols", [
        (1, range(40), range(40)), (3, range(1, 6), range(0, -4, -1)),
        (2, [4], range(3)), (2, range(1, 1), range(1, 1)),
    ])
    def test_gather_fills_the_blocks_of_the_table(self, kind, dim, rows, cols):
        # bit for bit the dense reference: block (r, c) is the table at its lag
        rng = np.random.default_rng(dim)
        shape = (256, dim, dim)
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
        lag = np.add.outer(rows, cols) if kind == "V" else np.subtract.outer(rows, cols)
        lag = -lag if kind == "W" else lag
        reference = table[lag % 256].transpose(0, 2, 1, 3)
        reference = reference.reshape(rows.size * dim, cols.size * dim)
        np.testing.assert_array_equal(estimators._gather(table, kind, rows, cols), reference)

    @pytest.mark.parametrize("kind", estimators.BLOCK_KINDS)
    def test_only_the_returned_kernel_is_tabulated(self, monkeypatch, kind):
        # build_block_matrix reads the solvers' one kernel memo, which
        # tabulates (f+g)^{-1} once; kinds D, V, R and W tabulate their own
        # kernel on demand besides, by the same transform
        calls = []
        table = spectral._all_fourier_coefficients

        def counted(values):
            calls.append(kind)
            return table(values)

        monkeypatch.setattr(spectral, "_all_fourier_coefficients", counted)
        build_block_matrix(kind, coupled_ma2(), white(dim=2, scale=0.5), [0, 1], [0, 1])
        assert len(calls) == (1 if kind in "BU" else 2)


class TestInterpolation:
    def test_horizon_beyond_grid_resolution_refused_before_the_kernel(self):
        # the solve reads lag n, which a grid of 16 nodes resolves up to 7
        f = SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=16)
        interpolate(f, None, unit_interp(n=7))
        f = SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=16)
        with pytest.raises(AliasingError, match="horizon 8 is not resolvable"):
            interpolate(f, None, unit_interp(n=8))
        assert "_exact_kernel" not in vars(f)

    def test_white_noisy_single_gap(self):
        sol = interpolate(white(), white(), unit_interp())
        assert sol.mse == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(sol.h_grid, 0.0, atol=1e-12)

    def test_zero_weights(self):
        w = FunctionalWeights.interpolation(np.zeros((1, 1)))
        sol = interpolate(white(), white(), w)
        assert sol.mse == pytest.approx(0.0, abs=1e-14)

    def test_noiseless_white_variance(self):
        sol = interpolate(white(scale=2.5), None, unit_interp())
        assert sol.mse == pytest.approx(2.5, abs=1e-10)

    def test_absent_noise_routes_to_noiseless(self):
        sol = interpolate(ar1(), None, unit_interp())
        assert sol.mse == pytest.approx(0.8, abs=1e-9)

    def test_identity_two_blocks(self):
        w = FunctionalWeights.interpolation(np.ones((2, 2)))
        sol = interpolate(white(dim=2), None, w)
        assert sol.mse == pytest.approx(4.0, abs=1e-10)

    def test_ma1_single_gap_closed_form(self):
        # 1 / ((1/2pi) int 1/f) with f = |1 + b e^{-il}|^2 equals 1 - b^2
        sol = interpolate(ma1(), None, unit_interp())
        assert sol.mse == pytest.approx(0.75, rel=1e-10)

    def test_ma1_single_gap_matches_oracle(self):
        sol = interpolate(ma1(), None, unit_interp())
        proj, _ = time_domain_projection_converged(ma1(), None, unit_interp())
        assert sol.mse == pytest.approx(proj.mse, rel=1e-6)

    def test_noisy_coupled_matches_oracle(self):
        rng = np.random.default_rng(5)
        blocks = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w = FunctionalWeights.interpolation(blocks)
        f, g = coupled_ma2(), white(dim=2, scale=0.7)
        sol = interpolate(f, g, w)
        proj, _ = time_domain_projection_converged(f, g, w)
        assert sol.mse == pytest.approx(proj.mse, rel=1e-6)

    def test_long_gap_matches_oracle(self):
        rng = np.random.default_rng(8)
        blocks = rng.normal(size=(9, 1)) * 0.8 ** np.arange(9)[:, None]
        w = FunctionalWeights.interpolation(blocks)
        f, g = ma1(), white(scale=0.5)
        sol = interpolate(f, g, w)
        proj, _ = time_domain_projection_converged(f, g, w)
        assert sol.mse == pytest.approx(proj.mse, rel=1e-5)

    def test_formula_agrees_with_quadrature(self):
        w = FunctionalWeights.interpolation(np.array([[1.0, -0.5], [0.3, 0.2]]))
        f, g = coupled_ma2(), white(dim=2, scale=0.7)
        sol = interpolate(f, g, w)
        assert evaluate_mse(sol, f, g, w) == pytest.approx(sol.mse, abs=1e-10)

    def test_wrong_horizon_rejected(self):
        w = FunctionalWeights.filtering([[1.0]])
        with pytest.raises(ValueError):
            interpolate(white(), white(), w)


class TestExtrapolation:
    def test_white_noisy(self):
        w = FunctionalWeights.extrapolation([[1.0]])
        sol = extrapolate(white(), white(), w)
        assert 0.5 <= sol.mse <= 1.0 + 1e-12
        proj, _ = time_domain_projection_converged(white(), white(), w)
        assert sol.mse == pytest.approx(proj.mse, rel=1e-6)

    def test_zero_weights(self):
        w = FunctionalWeights.extrapolation(np.zeros((2, 1)))
        sol = extrapolate(white(), white(), w)
        assert sol.mse == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.h_grid, 0.0, atol=1e-12)

    def test_white_noiseless_sum_of_squares(self):
        w = FunctionalWeights.extrapolation([[1.0], [0.5], [0.25]])
        sol = extrapolate(white(), None, w)
        assert sol.mse == pytest.approx(1.0 + 0.25 + 0.0625, abs=1e-10)

    def test_ma1_one_step(self):
        w = FunctionalWeights.extrapolation([[1.0]])
        sol = extrapolate(ma1(), None, w)
        assert sol.mse == pytest.approx(1.0, rel=1e-8)

    def test_ma1_two_blocks(self):
        w = FunctionalWeights.extrapolation([[1.0], [1.0]])
        sol = extrapolate(ma1(), None, w)
        assert sol.mse == pytest.approx(3.25, rel=1e-8)

    def test_exact_data_ignore_trailing_zero_weight_blocks(self):
        # exact data read D a = a from the weights' coefficient table, which
        # trailing zero blocks leave unchanged
        blocks = np.array([[1.0, -0.5], [0.3, 0.2j]])
        short = extrapolate(coupled_ma2(), None, FunctionalWeights.extrapolation(blocks))
        padded = np.concatenate([blocks, np.zeros((3, 2))])
        long = extrapolate(coupled_ma2(), None, FunctionalWeights.extrapolation(padded))
        assert long.mse == short.mse
        np.testing.assert_array_equal(long.h_grid, short.h_grid)
        np.testing.assert_array_equal(long.solved_blocks, short.solved_blocks)

    def test_truncation_must_cover_weights(self):
        w = FunctionalWeights.extrapolation([[1.0], [1.0], [1.0]])
        with pytest.raises(ValueError):
            extrapolate(ma1(), None, w, truncation=1)

    def test_automatic_truncation_on_small_grid(self):
        # on G = 128 the doubling schedule used to start at its cap, hold that
        # single level and never pass its Cauchy test; it now starts at 16
        w = FunctionalWeights.extrapolation([[1.0]])
        sol = extrapolate(SpectralDensity.white(1, grid_size=128), None, w)
        assert sol.mse == pytest.approx(1.0, abs=1e-12)
        assert [J for J, _ in sol.diagnostics["history"]] == [16, 32]

    def test_non_summable_weight_tail_warns(self):
        w = FunctionalWeights.extrapolation(np.ones((16, 1)))
        with pytest.warns(UserWarning, match="weight tail looks non-summable"):
            sol = extrapolate(white(), None, w)
        assert sol.mse == pytest.approx(16.0, rel=1e-12)

    def test_non_summable_warning_fires_on_every_call(self):
        # the verdict is computed once per weights object, the warning is
        # given by each solve that reads it
        w = FunctionalWeights.extrapolation(np.ones((16, 1)))
        f = white()
        for _ in range(2):
            with pytest.warns(UserWarning, match="weight tail looks non-summable"):
                extrapolate(f, None, w)

    def test_weights_beyond_grid_resolution_refused(self):
        w = FunctionalWeights.extrapolation(0.5 ** np.arange(40).reshape(40, 1))
        with pytest.raises(AliasingError, match="is not resolvable"):
            extrapolate(SpectralDensity.white(1, grid_size=64), None, w)

    def test_monotone_and_cauchy_in_truncation(self):
        w = FunctionalWeights.extrapolation([[1.0], [0.5]])
        f, g = ma1(), white(scale=0.5)
        values = [extrapolate(f, g, w, truncation=J).mse for J in (8, 16, 32, 64, 128)]
        for early, late in zip(values, values[1:]):
            assert late <= early + 1e-10
        assert abs(values[-1] - values[-2]) < 1e-8


def slow_ar1(a, grid_size):
    """The AR(1) density 1/|1 - a e^{-il}|^2, built from its grid values."""
    lam = frequency_grid(grid_size)
    vals = 1.0 / np.abs(1.0 - a * np.exp(-1j * lam)) ** 2
    vals = vals.reshape(-1, 1, 1).astype(complex)
    return SpectralDensity.from_grid(vals)


class TestTruncationSchedule:
    def test_start_is_twice_the_last_weight_block(self):
        w = FunctionalWeights.extrapolation(0.5 ** np.arange(21).reshape(21, 1))
        assert w.last_nonzero == 20
        sol = extrapolate(white(), None, w)
        assert [J for J, _ in sol.diagnostics["history"]] == [40, 80]

    def test_grid_below_the_first_level(self):
        # on G = 32 the cap 15 lies below 16: two levels, half the cap and the cap
        w = FunctionalWeights.extrapolation([[1.0]])
        sol = extrapolate(SpectralDensity.white(1, grid_size=32), None, w)
        assert sol.mse == pytest.approx(1.0, abs=1e-12)
        assert [J for J, _ in sol.diagnostics["history"]] == [7, 15]

    @pytest.mark.parametrize(
        "a, grid_size, reference",
        # the reference truncation is G/2 - 4 at G = 2048; at G = 8192 that
        # system of 4092 unknowns takes about 0.8 GB, and J = 2048 already
        # gives the same error value to the last digit
        [(0.9, 2048, 1020), (0.99, 8192, 2048)],
    )
    def test_slow_decay_small_error_runs_to_convergence(self, a, grid_size, reference):
        # (f + g)^{-1} decays slowly and the error is about 1.25e-3; a Cauchy
        # test absolute below |mse| = 1 used to stop up to 1.3e-6 short of it
        f = slow_ar1(a, grid_size)
        g = SpectralDensity.white(1, scale=1e-3, grid_size=grid_size)
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        sol = filtering(f, g, w)
        explicit = filtering(f, g, w, truncation=reference)
        assert sol.mse == pytest.approx(explicit.mse, rel=1e-12, abs=0)

    def test_last_relative_step_above_tolerance_refused(self):
        # |mse| = 0.12: the step 512 -> 1022 changes it by 5e-8 of itself,
        # which the relative test refuses at the cap, where the former
        # absolute test accepted it
        f = slow_ar1(0.99, 2048)
        g = SpectralDensity.white(1, scale=0.1, grid_size=2048)
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        with pytest.raises(TruncationError, match="did not stabilise"):
            filtering(f, g, w)


class TestFiltering:
    def test_white_pair(self):
        w = FunctionalWeights.filtering([[1.0]])
        sol = filtering(white(), white(), w)
        assert sol.mse == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(sol.solved_blocks, 0.0, atol=1e-12)

    def test_zero_weights(self):
        w = FunctionalWeights.filtering(np.zeros((1, 1)))
        sol = filtering(white(), white(), w)
        assert sol.mse == pytest.approx(0.0, abs=1e-14)

    def test_scalar_wiener(self):
        w = FunctionalWeights.filtering([[1.0]])
        sol = filtering(white(scale=2.0), white(), w)
        assert sol.mse == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_requires_noise(self):
        w = FunctionalWeights.filtering([[1.0]])
        with pytest.raises(ValueError):
            filtering(white(), None, w)

    def test_truncation_beyond_grid_resolution_refused(self):
        # the Hankel block's largest lag J + n_blocks - 1 stays below G/2 up
        # to J = G/2 - n_blocks, the largest truncation the grid resolves
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        f, g = ma1(), white(scale=0.5)
        sol = filtering(f, g, w, truncation=GRID // 2 - 2)
        assert sol.diagnostics["truncation"] == GRID // 2 - 2
        proj, _ = time_domain_projection_converged(f, g, w)
        assert sol.mse == pytest.approx(proj.mse, rel=1e-6)
        with pytest.raises(AliasingError, match="is not resolvable"):
            filtering(f, g, w, truncation=GRID // 2 - 1)

    def test_ma1_matches_oracle(self):
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        f, g = ma1(), white(scale=0.5)
        sol = filtering(f, g, w)
        proj, _ = time_domain_projection_converged(f, g, w)
        assert sol.mse == pytest.approx(proj.mse, rel=1e-6)


class TestEvaluateMse:
    def test_zero_estimate_gives_functional_variance(self):
        w = FunctionalWeights.extrapolation([[1.0], [1.0]])
        f = ma1()
        value = evaluate_mse(np.zeros((GRID, 1)), f, None, w)
        # var = a^T C a with C the lag covariances of the moving average
        expected = 2 * 1.25 + 2 * 0.5
        assert value == pytest.approx(expected, rel=1e-10)

    def test_matches_solver_value(self):
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        f, g = ma1(), white(scale=0.5)
        sol = filtering(f, g, w)
        assert evaluate_mse(sol, f, g, w) == pytest.approx(sol.mse, abs=1e-10)

    def test_perturbations_in_subspace_never_improve(self):
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        f, g = ma1(), white(scale=0.5)
        sol = filtering(f, g, w)
        lam = -np.pi + 2 * np.pi * np.arange(GRID) / GRID
        rng = np.random.default_rng(17)
        for _ in range(10):
            lag = int(rng.integers(0, 40))  # allowed lags are <= 0
            scale = rng.normal() * 0.1
            delta = scale * np.exp(-1j * lag * lam).reshape(GRID, 1)
            worse = evaluate_mse(sol.h_grid + delta, f, g, w)
            assert worse >= sol.mse - 1e-12

    def test_joint_scaling(self):
        w = FunctionalWeights.filtering([[1.0], [0.5]])
        f, g = ma1(), white(scale=0.5)
        base = filtering(f, g, w)
        scaled = filtering(f.scaled(3.0), g.scaled(3.0), w)
        assert scaled.mse == pytest.approx(3.0 * base.mse, rel=1e-12)
        np.testing.assert_allclose(scaled.h_grid, base.h_grid, atol=1e-10)


class TestForbiddenLags:
    def test_masks(self):
        lags = np.arange(-3, 4)
        np.testing.assert_array_equal(
            forbidden_lags("interpolation", 1, lags),
            [False, False, False, True, True, False, False],
        )
        np.testing.assert_array_equal(
            forbidden_lags("extrapolation", 0, lags),
            [False, False, False, True, True, True, True],
        )
        np.testing.assert_array_equal(
            forbidden_lags("filtering", 0, lags),
            [False, False, False, False, True, True, True],
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: interpolate(ma1(), white(scale=0.5),
                                unit_interp(n=2)),
            lambda: extrapolate(ma1(), white(scale=0.5),
                                FunctionalWeights.extrapolation([[1.0], [0.5]])),
            lambda: filtering(ma1(), white(scale=0.5),
                              FunctionalWeights.filtering([[1.0], [0.5]])),
            lambda: interpolate(ar1(), None, unit_interp()),
        ],
    )
    def test_solutions_live_in_their_subspace(self, make):
        sol = make()
        assert forbidden_lag_residual(sol) < 1e-8


SOLVES = {
    "interpolate": lambda: interpolate(coupled_ma2(), white(dim=2, scale=0.5),
                                       FunctionalWeights.interpolation([[1, 0.5], [0.2, 0]])),
    "interpolate-exact": lambda: interpolate(ma1(), None, unit_interp(n=2)),
    "extrapolate": lambda: extrapolate(ma1(), white(scale=0.5),
                                       FunctionalWeights.extrapolation([[1.0], [0.5]])),
    "extrapolate-exact": lambda: extrapolate(coupled_ma2(), None,
                                             FunctionalWeights.extrapolation([[1, 0.5]])),
    "filtering": lambda: filtering(ma1(), white(scale=0.5),
                                   FunctionalWeights.filtering([[1.0], [0.5]])),
    "extrapolate-factorized": lambda: extrapolate_factorized(
        coupled_ma2(), FunctionalWeights.extrapolation([[1, 0.5], [0.2, 0]])),
}


class TestDeferredCoefficientView:
    """h's coefficients derive from h_grid alone and are taken when read."""

    @pytest.mark.parametrize("read", ["h_lags", "h_coeffs", "residual"])
    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_no_transform_until_read(self, monkeypatch, name, read):
        calls = []
        transform = estimators._vector_coefficients

        def counted(h_grid):
            calls.append(h_grid)
            return transform(h_grid)

        monkeypatch.setattr(estimators, "_vector_coefficients", counted)
        sol = SOLVES[name]()
        assert calls == [] and "forbidden_lag_residual" not in sol.diagnostics
        if read == "residual":
            forbidden_lag_residual(sol)
        else:
            getattr(sol, read)
        assert len(calls) == 1 and calls[0] is sol.h_grid
        forbidden_lag_residual(sol)
        assert sol.h_lags is not None and sol.h_coeffs is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_first_read_is_the_transform_read_only_and_kept(self, name):
        sol = SOLVES[name]()
        lags, coeffs = sol.h_lags, sol.h_coeffs
        expected = estimators._vector_coefficients(sol.h_grid)
        for view, reference in zip((lags, coeffs), expected):
            assert view.dtype == reference.dtype and view.shape == reference.shape
            assert view.tobytes() == reference.tobytes()
            assert not view.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0, 0] = 1.0
        assert sol.h_lags is lags and sol.h_coeffs is coeffs

    @pytest.mark.parametrize("task", ["interpolation", "extrapolation", "filtering"])
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(dim=st.sampled_from([1, 2, 3]), data=st.data())
    def test_noisy_mse_is_the_error_of_h(self, task, dim, data):
        # the error floor is read as vdot(A g, v) / G, which equals the grid
        # mean of v g conj(A) for Hermitian g: a noise density that is not
        # white still gives the error of the returned characteristic
        f = data.draw(stable_ma_densities(dim))
        g = data.draw(stable_ma_densities(dim)).scaled(data.draw(st.floats(0.05, 2.0)))
        rng = np.random.default_rng(dim)
        w = FunctionalWeights(
            blocks=rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim)),
            horizon=task)
        solve = {"interpolation": interpolate, "extrapolation": extrapolate,
                 "filtering": filtering}[task]
        sol = solve(f, g, w)
        assert evaluate_mse(sol.h_grid, f, g, w) == pytest.approx(sol.mse, rel=1e-12)


class TestEqualityIsIdentity:
    """The immutable types compare by identity, so they hash and key dicts."""

    @pytest.mark.parametrize("make", [
        lambda: FunctionalWeights.extrapolation([[1, 2], [0.5, 0.1]]),
        lambda: SpectralDensity.white(2),
        SOLVES["filtering"],
    ], ids=["weights", "density", "solution"])
    def test_equal_values_are_distinct_objects(self, make):
        a, b = make(), make()
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a)
        assert a in {a} and b not in {a}
        assert {a: 1, b: 2}[b] == 2


class TestOnePath:
    @pytest.mark.parametrize(
        "task", ["interp", "interp_noiseless", "extrap", "extrap_noiseless", "filter"]
    )
    def test_one_minimality_check_and_one_inversion(self, monkeypatch, task):
        # one check_minimality call, with one grid eigvalsh (of f+g, or
        # f.eigenvalues of the fresh density without noise), and one
        # inversion of f+g (of f). One (G, K, K) FFT, that of the inverse:
        # D a and a* R a come from the (G, K) weight symbol, and only B (U
        # for filtering) is gathered
        calls = {"check_minimality": 0, "inv": 0, "grid eigvalsh": 0, "grid fft": 0}
        kinds = set()

        def counted(name, fn, grid_only=False):
            def wrapper(a, *args, **kwargs):
                calls[name] += not grid_only or np.ndim(a) == 3
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            spectral, "check_minimality",
            counted("check_minimality", spectral.check_minimality),
        )
        monkeypatch.setattr(
            estimators.np.linalg, "inv", counted("inv", estimators.np.linalg.inv)
        )
        monkeypatch.setattr(
            estimators.np.linalg, "eigvalsh",
            counted("grid eigvalsh", estimators.np.linalg.eigvalsh, grid_only=True),
        )
        monkeypatch.setattr(np.fft, "fft", counted("grid fft", np.fft.fft, grid_only=True))
        gather = estimators._gather
        monkeypatch.setattr(
            estimators, "_gather",
            lambda table, kind, *args: kinds.add(kind) or gather(table, kind, *args),
        )
        f = coupled_ma2()
        g = None if task.endswith("noiseless") else white(dim=2, scale=0.5)
        blocks = np.array([[1.0, -0.5], [0.3, 0.2]])
        if task.startswith("interp"):
            interpolate(f, g, FunctionalWeights.interpolation(blocks))
        elif task.startswith("extrap"):
            extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
        else:
            filtering(f, g, FunctionalWeights.filtering(blocks))
        assert calls == {
            "check_minimality": 1, "inv": 1, "grid eigvalsh": 1, "grid fft": 1
        }
        assert kinds == {"U" if task == "filter" else "B"}

    @pytest.mark.parametrize("task", ["interp40", "interp47", "extrap", "filter"])
    def test_section_rows_are_gathered_one_chunk_at_a_time(self, monkeypatch, task):
        # the section factor gathers from the kernel table one slab per chunk
        # of PANEL rows, each against the columns up to its last row; a warm
        # re-solve of the same pair finds every chunk and every tail stored,
        # so it gathers and factors nothing and returns the same bits
        shapes, factored = [], []
        gather, cholesky = estimators._gather, np.linalg.cholesky

        def spy(*args):
            out = gather(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(estimators, "_gather", spy)
        monkeypatch.setattr(
            np.linalg, "cholesky",
            lambda m: (np.ndim(m) == 2 and factored.append(m.shape[0])) or cholesky(m),
        )
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        blocks = np.array([[1.0, -0.5], [0.3, 0.2j]])
        if task.startswith("interp"):
            solve = lambda: interpolate(f, g, unit_interp(n=int(task[6:]), dim=2))
        elif task == "extrap":
            solve = lambda: extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
        else:
            solve = lambda: filtering(f, g, FunctionalWeights.filtering(blocks))
        first = solve()
        levels = [(J + (task != "filter")) * 2
                  for J, _ in first.diagnostics.get("history", [(first.diagnostics["n"], 0)])]
        expected, stored = [], 0
        for n in levels:
            expected += [(min(i + PANEL, n) - i, min(i + PANEL, n))
                         for i in range(stored, n, PANEL)]
            stored = n // PANEL * PANEL
        assert shapes == expected and max(rows for rows, _ in shapes) <= PANEL
        assert factored == [rows for rows, _ in expected]
        shapes.clear()
        factored.clear()
        again = solve()
        assert shapes == [] and factored == []
        assert again.mse == first.mse
        np.testing.assert_array_equal(again.solved_blocks, first.solved_blocks)
        np.testing.assert_array_equal(again.h_grid, first.h_grid)

    def test_grid_values_computed_once_per_density(self, monkeypatch):
        grids = []
        ifft = np.fft.ifft

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 3:  # a density's (G, K, K) grid; symbols are (G, K)
                grids.append(np.shape(a))
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        blocks = np.array([[1.0, -0.5], [0.3, 0.2]])
        first = extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
        again = extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
        interpolate(f, g, FunctionalWeights.interpolation(blocks))
        assert len(grids) == 2  # f once and g once, over three solves
        assert again.mse == first.mse

    @pytest.mark.parametrize(
        "solver, make",
        [
            (interpolate, FunctionalWeights.interpolation),
            (extrapolate, FunctionalWeights.extrapolation),
        ],
    )
    def test_exact_kernel_is_memoized_on_the_density(self, monkeypatch, solver, make):
        # the first exact-data solve of f gates f and stores f^{-1} and its
        # table; a later one, of any task, reads them with no gate, inverts
        # nothing and returns the bits a fresh copy of f returns
        inverses, checks = [], []
        grid_inverse, check = spectral._grid_inverse, spectral.check_minimality
        monkeypatch.setattr(
            spectral, "_grid_inverse",
            lambda v: inverses.append(v.shape) or grid_inverse(v),
        )
        monkeypatch.setattr(
            spectral, "check_minimality", lambda *a: checks.append(a) or check(*a)
        )
        f = coupled_ma2()
        blocks = np.array([[1.0, -0.5], [0.3, 0.2j]])
        interpolate(f, None, FunctionalWeights.interpolation(blocks[:1]))
        assert inverses == [(GRID, 2, 2)]
        again = solver(f, None, make(blocks))
        assert inverses == [(GRID, 2, 2)] and len(checks) == 1
        copy = SpectralDensity(f.dim, f.coeffs, grid_size=GRID)
        fresh = solver(copy, None, make(blocks))
        assert len(inverses) == 2
        assert again.mse == fresh.mse
        np.testing.assert_array_equal(again.h_grid, fresh.h_grid)
        np.testing.assert_array_equal(again.solved_blocks, fresh.solved_blocks)
        assert again.diagnostics["condition"] == fresh.diagnostics["condition"]
        assert again.diagnostics.get("history") == fresh.diagnostics.get("history")

    def test_memoized_kernel_is_read_only(self):
        f = coupled_ma2()
        interpolate(f, None, unit_interp(dim=2))
        interpolate(f, white(dim=2, scale=0.5), unit_interp(dim=2))
        for memo in (*vars(f)["_exact_kernel"][1:3], *vars(f)["_noisy_kernel"][1:3]):
            with pytest.raises(ValueError):
                memo[0, 0, 0] = 0.0

    def test_noisy_kernel_is_memoized_per_pair(self, monkeypatch):
        # a second solve of the same (f, g), of any task, runs no gate,
        # inversion or FFT of the kernel: it reads the arrays of f's slot and
        # returns the same bits. (f+g)^{-1} is not f's exact-data kernel
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        w = FunctionalWeights.extrapolation(np.array([[1.0, -0.5], [0.3, 0.2j]]))
        first = extrapolate(f, g, w)
        held, inv, table, *_ = vars(f)["_noisy_kernel"]
        assert held is g
        calls = []
        for name in ("check_minimality", "_grid_inverse", "_transposed_coefficients"):
            monkeypatch.setattr(spectral, name, lambda *a, name=name: calls.append(name))
        again = extrapolate(f, g, w)
        interpolate(f, g, FunctionalWeights.interpolation(w.blocks))
        filtering(f, g, FunctionalWeights.filtering(w.blocks))
        assert calls == []
        read = spectral._kernel_slot(f, g)
        assert read.inv is inv and read.g is g and read.table is table
        assert again.mse == first.mse
        np.testing.assert_array_equal(again.h_grid, first.h_grid)
        assert "_exact_kernel" not in vars(f)
        assert not {"_exact_kernel", "_noisy_kernel"} & set(vars(g))

    def test_other_noise_density_takes_the_slot(self):
        # the slot holds g itself: a new density with equal values is gated
        # and inverted afresh, to the same bits, and replaces it
        f, g, twin = coupled_ma2(), white(dim=2, scale=0.5), white(dim=2, scale=0.5)
        first = interpolate(f, g, unit_interp(dim=2))
        _, inv, table, *_ = vars(f)["_noisy_kernel"]
        second = interpolate(f, twin, unit_interp(dim=2))
        held, twin_inv, twin_table, *_ = vars(f)["_noisy_kernel"]
        assert held is twin and twin_inv is not inv and twin_table is not table
        np.testing.assert_array_equal(twin_inv, inv)
        np.testing.assert_array_equal(twin_table, table)
        assert second.mse == first.mse

    def test_refused_pair_stores_no_kernel(self):
        # f + g = 0 fails the gate on every call and leaves the slot as it was
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        interpolate(f, g, unit_interp(dim=2))
        slot = vars(f)["_noisy_kernel"]
        for _ in range(2):
            with pytest.raises(MinimalityError):
                interpolate(f, f.scaled(-1.0), unit_interp(dim=2))
        assert vars(f)["_noisy_kernel"] is slot
        coarse = SpectralDensity.white(2, scale=0.5, grid_size=2 * GRID)
        for _ in range(2):
            with pytest.raises(ValueError, match="dimension mismatch"):
                interpolate(f, coarse, unit_interp(dim=2))
        assert vars(f)["_noisy_kernel"] is slot
        fresh = coupled_ma2()
        with pytest.raises(MinimalityError):
            interpolate(fresh, fresh.scaled(-1.0), unit_interp(dim=2))
        assert "_noisy_kernel" not in vars(fresh)

    def test_kernel_records_say_computed_or_memo(self, caplog):
        # f keeps one slot for exact data and one for noise, so solves that
        # alternate g and None on one f compute each kernel once; a density
        # built as the inverse of a polynomial has its exact slot seeded
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        alternating, g2 = coupled_ma2(), white(dim=2, scale=0.25)
        inverse = spectral._inverse_density(coupled_ma2())
        with caplog.at_level(logging.DEBUG, logger="pcwk"):
            for noise in (g, g, None, None):
                interpolate(f, noise, unit_interp(dim=2))
            for noise in (g2, None, g2, None):
                interpolate(alternating, noise, unit_interp(dim=2))
            interpolate(inverse, None, unit_interp(dim=2))
        assert [r.getMessage() for r in caplog.records
                if r.name == "pcwk" and r.getMessage().startswith("kernel")] == [
            f"kernel {name} (G = {GRID}, K = 2): {how}"
            for name, how in [("(f+g)^-1", "computed"), ("(f+g)^-1", "memo"),
                              ("f^-1", "computed"), ("f^-1", "memo"),
                              ("(f+g)^-1", "computed"), ("f^-1", "computed"),
                              ("(f+g)^-1", "memo"), ("f^-1", "memo"),
                              ("f^-1", "memo")]
        ]

    def test_refused_density_stores_no_kernel(self):
        f = SpectralDensity.constant(np.diag([1.0, 1e-13]), grid_size=GRID)
        for _ in range(2):
            with pytest.raises(MinimalityError):
                interpolate(f, None, unit_interp(dim=2))
        assert "_exact_kernel" not in vars(f)

    @pytest.mark.parametrize(
        "solver, make",
        [
            (interpolate, FunctionalWeights.interpolation),
            (extrapolate, FunctionalWeights.extrapolation),
        ],
    )
    def test_noiseless_case_is_the_vanishing_noise_limit(self, solver, make):
        rng = np.random.default_rng(3)
        w = make(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        f = coupled_ma2()
        exact = solver(f, None, w)
        noisy = solver(f, white(dim=2, scale=1e-10), w)
        assert noisy.mse == pytest.approx(exact.mse, abs=1e-8)
        np.testing.assert_allclose(noisy.h_grid, exact.h_grid, atol=1e-8)


class TestSectionFactor:
    """The Cholesky factor of the kernel's sections, kept on its memo slot."""

    TASKS = ["interp", "interp_noiseless", "extrap", "extrap_noiseless", "filter"]

    @staticmethod
    def _task(task, g):
        blocks = np.array([[1.0, -0.5], [0.3, 0.2j], [0.1, 0.0]])
        if task.startswith("interp"):
            return lambda f: interpolate(f, g, FunctionalWeights.interpolation(blocks))
        if task.startswith("extrap"):
            return lambda f: extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
        return lambda f: filtering(f, g, FunctionalWeights.filtering(blocks))

    @pytest.mark.parametrize("warm_rows", [-1, 1])
    @pytest.mark.parametrize("task", TASKS)
    def test_warm_solve_equals_fresh(self, task, warm_rows):
        # after a smaller and after a larger section of the same pair, a solve
        # returns the bits of a fresh copy of f, whose factor starts empty
        f = coupled_ma2()
        g = None if task.endswith("noiseless") else white(dim=2, scale=0.5)
        solve = self._task(task, g)
        fresh = solve(SpectralDensity(f.dim, f.coeffs, grid_size=GRID))
        rows = fresh.solved_blocks.size
        # a section ending inside a chunk, half as long or two chunks longer
        warm = rows // 2 + 1 if warm_rows < 0 else rows + 2 * PANEL + 6
        interpolate(f, g, unit_interp(n=warm // 2 - 1, dim=2))
        again = solve(f)
        assert again.mse == fresh.mse
        np.testing.assert_array_equal(again.h_grid, fresh.h_grid)
        np.testing.assert_array_equal(again.solved_blocks, fresh.solved_blocks)
        assert again.diagnostics["condition"] == fresh.diagnostics["condition"]
        assert again.diagnostics.get("history") == fresh.diagnostics.get("history")

    def test_warm_resolve_records_say_memo(self, caplog):
        # a cold solve computes its kernel and grows its factor level by
        # level; the same solve again reads every kernel and section from
        # the memo: "memo" means it gathered and factored nothing
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        w = FunctionalWeights.extrapolation([[1.0, -0.5], [0.3, 0.2j]])

        def records():
            with caplog.at_level(logging.DEBUG, logger="pcwk"):
                sol = extrapolate(f, g, w)
            out = [r.getMessage().rpartition(": ")[2] for r in caplog.records
                   if r.getMessage().startswith(("kernel", "section"))]
            caplog.clear()
            return sol, out

        cold, first = records()
        levels = [(J + 1) * 2 for J, _ in cold.diagnostics["history"]]
        assert first == ["computed", f"computed {levels[0] // PANEL} chunks"] + [
            f"extended by {n // PANEL - m // PANEL} chunks"
            for m, n in zip(levels, levels[1:])
        ]
        warm, again = records()
        assert again == ["memo"] * (1 + len(levels))
        assert warm.mse == cold.mse

    def test_tail_bits_do_not_depend_on_earlier_reads(self):
        # the tail of order n (its last n mod PANEL rows) read cold, after a
        # smaller order, and after the factor has grown past n: equal bits,
        # stored read-only once, and returned as stored by a repeated read
        n = 70
        rng = np.random.default_rng(n)
        z = rng.standard_normal((130, 130)) + 1j * rng.standard_normal((130, 130))
        matrix = z @ z.conj().T + 130 * np.eye(130)
        rows = lambda i, j: matrix[i:j, :j]
        strips = {}
        for name, before in [("cold", []), ("after 40", [40]), ("after 130", [130])]:
            section = SectionFactor()
            for m in before:
                section.strips(m, rows, "test")
            strips[name] = section.strips(n, rows, "test")
            assert set(section._tails) == {*(m for m in before if m % PANEL), n}
            tail = section._tails[n]
            assert tail is strips[name][-1] and tail[0].shape == (n % PANEL, n)
            assert not tail[0].flags.writeable and not tail[1].flags.writeable
            again = section.strips(n, lambda i, j: pytest.fail("gathered"), "test")
            assert again[-1] is tail
        for name in ("after 40", "after 130"):
            assert len(strips[name]) == len(strips["cold"])
            for (s, inv), (s0, inv0) in zip(strips[name], strips["cold"]):
                np.testing.assert_array_equal(s, s0)
                np.testing.assert_array_equal(inv, inv0)

    def test_refused_read_stores_no_tail(self):
        # positive definite on the first 64 rows alone: a read of order 70
        # is refused in its tail, before and after the two chunks are stored
        matrix = np.diag(np.r_[np.ones(64), -np.ones(6)]).astype(complex)
        rows = lambda i, j: matrix[i:j, :j]
        section = SectionFactor()
        for stored in (0, 2):
            with pytest.raises(IllPosedError, match="not positive definite"):
                section.strips(70, rows, "test")
            assert len(section._strips) == stored and section._tails == {}
            section.strips(64, rows, "test")
        assert section.status(70) == "tail factored"

    def test_section_records_say_computed_extended_or_memo(self, caplog):
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        with caplog.at_level(logging.DEBUG, logger="pcwk"):
            for n in (0, 40, 40, 5, 70):
                interpolate(f, g, unit_interp(n=n, dim=2))
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("section")] == [
            f"section of (f+g)^-1 (G = {GRID}, K = 2, {rows} rows): {how}"
            for rows, how in [(2, "computed 0 chunks"), (82, "extended by 2 chunks"),
                              (82, "memo"), (12, "tail factored"),
                              (142, "extended by 2 chunks")]
        ]

    @pytest.mark.parametrize("task", TASKS)
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(dim=st.sampled_from([1, 2, 3]), data=st.data())
    def test_solve_is_backward_stable(self, task, dim, data):
        # a section is solved from its Cholesky factor alone, with no
        # refinement step: at the returned truncation the residual against
        # the independently assembled system B c = D a stays at the round-off
        # of a backward-stable solve, plus that of the two right-hand sides:
        # the solver forms D a from the weight symbol by FFT, at the scale of
        # the lag-0 block, which is all there is when V a vanishes, as for
        # filtering a white signal
        f = data.draw(stable_ma_densities(dim))
        scale = data.draw(st.floats(0.05, 2.0))
        g = None if task.endswith("noiseless") else white(dim=dim, scale=scale)
        rng = np.random.default_rng(dim)
        blocks = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        if task.startswith("interp"):
            sol = interpolate(f, g, FunctionalWeights.interpolation(blocks))
        elif task.startswith("extrap"):
            sol = extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
        else:
            sol = filtering(f, g, FunctionalWeights.filtering(blocks))
        first = 1 if task == "filter" else 0
        rows = np.arange(first, sol.diagnostics.get("truncation", 2) + 1)
        B = build_block_matrix("U" if first else "B", f, g, rows, rows)
        D = build_block_matrix("V" if first else "D", f, g, rows, range(3))
        lag0 = np.linalg.norm(build_block_matrix("D", f, g, [0], [0]))
        a, c = blocks.reshape(-1), sol.solved_blocks.reshape(-1)
        scale = np.linalg.norm(B, 2) * np.linalg.norm(c) + lag0 * np.linalg.norm(a)
        assert np.linalg.norm(B @ c - D @ a) <= 16 * c.size * np.finfo(float).eps * scale

    def test_cold_solve_peak_is_the_factor_and_one_slab(self):
        # K = 8, truncation 255: 2048 rows. The factor holds about n^2 / 2
        # entries and each read gathers one slab of PANEL rows, so the peak
        # stays below 3/4 of one dense n x n complex matrix
        K, G = 8, 512
        rng = np.random.default_rng(0)
        taps = [np.eye(K), 0.15 * (rng.standard_normal((K, K))
                                   + 1j * rng.standard_normal((K, K)))]
        f = SpectralDensity.from_moving_average(taps, grid_size=G)
        g = SpectralDensity.white(K, scale=0.5, grid_size=G)
        w = FunctionalWeights.extrapolation(0.7 ** np.arange(3)[:, None] * np.ones((1, K)))
        tracemalloc.start()
        try:
            sol = extrapolate(f, g, w, truncation=255)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = sol.solved_blocks.size
        assert n == 2048
        assert peak < 0.75 * n * n * 16

    def test_other_noise_density_drops_the_section_factor(self):
        f, g, twin = coupled_ma2(), white(dim=2, scale=0.5), white(dim=2, scale=0.5)
        extrapolate(f, g, FunctionalWeights.extrapolation([[1.0, 0.5]]))
        section = vars(f)["_noisy_kernel"][3]
        assert section._strips and section.status(0) == "memo"
        interpolate(f, twin, unit_interp(dim=2))
        replaced = vars(f)["_noisy_kernel"][3]
        assert replaced is not section
        # read once, at order 2, which stores no chunk
        assert replaced._strips == [] and replaced.status(2) == "memo"
        assert vars(f)["_noisy_kernel"][0] is twin

    def test_factor_arrays_are_read_only(self):
        f, g = coupled_ma2(), white(dim=2, scale=0.5)
        interpolate(f, g, unit_interp(n=40, dim=2))
        interpolate(f, None, unit_interp(n=40, dim=2))
        for key in ("_exact_kernel", "_noisy_kernel"):
            strips = vars(f)[key][3]._strips
            assert len(strips) == 82 // PANEL
            for strip, inv in strips:
                for arr in (strip, inv):
                    with pytest.raises(ValueError):
                        arr[0, 0] = 0.0

    def test_refused_section_stores_no_chunk(self):
        # the second chunk of the first matrix is not positive definite: the
        # refusal stores no chunk and counts as no read. The second matrix
        # (condition 1e14) has a Cholesky factor, and no section condition
        # is estimated (the grid gate bounds the solvers' sections), so its
        # sections solve and each stores its own new full chunks
        rhs = np.ones(70, dtype=complex)
        indefinite = np.diag(np.r_[np.ones(40), -np.ones(30)]).astype(complex)
        section = SectionFactor()
        with pytest.raises(IllPosedError, match="not positive definite"):
            section_solve(section, indefinite, rhs)
        assert section._strips == [] and section.status(70) == "computed 2 chunks"
        ill = np.diag(np.r_[np.ones(40), np.full(30, 1e-14)]).astype(complex)
        section_solve(section, ill[:40, :40], rhs[:40])
        assert len(section._strips) == 1 and section.status(40) == "memo"
        x = section_solve(section, ill, rhs)
        assert len(section._strips) == 2 and section.status(70) == "memo"
        np.testing.assert_allclose(x, rhs / np.diag(ill), rtol=1e-12)

    def test_empty_system_reads_no_section(self):
        section = SectionFactor()
        x = section_solve(section, np.zeros((0, 0), dtype=complex),
                          np.zeros(0, dtype=complex))
        assert x.shape == (0,)
        assert section._strips == [] and section.status(0) == "computed 0 chunks"


class TestKernelTail:
    @pytest.mark.parametrize("b", [0.9, 0.99, 0.999])
    def test_unresolved_inverse_is_flagged(self, b):
        # the coefficients b^|m| of 1/f alias over 2048 nodes once b nears 1;
        # the interpolation error 1 - b^2 is then off by about the tail squared
        f = SpectralDensity.from_moving_average([[[1.0]], [[b]]], grid_size=2048)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = interpolate(f, None, unit_interp())
        tail = sol.diagnostics["kernel_tail"]
        unresolved = tail > estimators.KERNEL_TAIL_TOL
        assert unresolved == (b == 0.999)
        assert any("kernel tail" in str(w.message) for w in caught) == unresolved
        error = abs(sol.mse - (1.0 - b**2)) / (1.0 - b**2)
        assert error <= tail**2 + 1e-12
        if unresolved:
            assert error >= 0.25 * tail**2

    def test_noisy_tail_reads_the_inverse_of_the_sum(self, grid):
        f, g = ma1(dim=2, b=0.99), white(dim=2, scale=1e-4)
        with pytest.warns(UserWarning, match="kernel tail"):
            sol = interpolate(f, g, FunctionalWeights.interpolation([[1.0, 0.5]]))
        inv = np.linalg.inv(f.values + g.values)
        lag0, lag_half = (
            np.linalg.norm(np.mean(inv * np.exp(-1j * m * grid)[:, None, None], axis=0))
            for m in (0, GRID // 2)
        )
        assert sol.diagnostics["kernel_tail"] == pytest.approx(lag_half / lag0, rel=1e-6)

    def test_tail_is_kept_on_the_slot_and_warned_on_every_solve(self):
        # the tail depends on the kernel alone: the slot computes it once,
        # and each solve that reads the slot gives the warning again
        f = SpectralDensity.from_moving_average([[[1.0]], [[0.999]]], grid_size=2048)
        tails = []
        for _ in range(2):
            with pytest.warns(UserWarning, match="kernel tail"):
                tails.append(interpolate(f, None, unit_interp()).diagnostics["kernel_tail"])
        slot = spectral._kernel_slot(f, None)
        table = slot.table
        assert tails == [slot.tail, slot.tail]
        assert slot.tail == float(np.linalg.norm(table[1024]) / np.linalg.norm(table[0]))


def constant_pair(spectrum, seed=None, skew=0.0):
    """Constant f = g with f + g = U diag(spectrum) U^H + skew [[0, 1], [-1, 0]].

    U is a seeded random unitary, or the identity when ``seed`` is None.
    """
    u = np.eye(2)
    if seed is not None:
        z = np.random.default_rng(seed).standard_normal((2, 2, 2))
        u = np.linalg.qr(z[0] + 1j * z[1])[0]
    total = u @ np.diag(spectrum) @ u.conj().T
    total = total + skew * np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = SpectralDensity.constant(0.5 * total, grid_size=64)
    return f, f


# f + g at grid conditions on both sides of the threshold 1e12, plus an
# indefinite sum (its inverse has small norms), a singular one (inv fails)
# and a non-Hermitian one whose Hermitian part has condition 1e13
GATE_CASES = [
    pytest.param(([1.0, 1.0 / cond], seed), id=f"cond{cond:.0e}-{name}")
    for cond in (1e9, 1e11, 4e11, 6e11, 1e12, 2e12, 1e13)
    for seed, name in ((None, "diagonal"), (1, "rotated"))
] + [
    pytest.param(([1.0, -0.5], 1), id="indefinite"),
    pytest.param(([1.0, 0.0], None), id="singular"),
    pytest.param(([1.0, 1e-13], None, 1.0), id="skew"),
] + [
    # within the rounding of eigvalsh and inv of the threshold
    pytest.param(([1.0, 1.0 / (1e12 * (1.0 - 1e-5))], seed), id=f"edge-{seed}")
    for seed in range(20)
]


class TestMinimalityBound:
    def test_kernel_inverse_is_hermitian(self):
        # LAPACK's inverse of the rotated pair of grid condition 4e11 has a
        # skew part of 3.5e6; the slot keeps its Hermitian part, so the
        # sections of the kernel have a Cholesky factor
        f, g = constant_pair([1.0, 1.0 / 4e11], 1)
        inv = spectral._kernel_slot(f, g).inv
        np.testing.assert_array_equal(inv, np.conj(np.transpose(inv, (0, 2, 1))))

    @pytest.mark.filterwarnings("ignore:discarding imaginary part")
    @pytest.mark.parametrize("case", GATE_CASES)
    def test_bound_never_changes_the_decision(self, case):
        # every entry takes the decision and the message of the one gate,
        # check_minimality(f, g); a pair it admits solves, with the gate's
        # bound as its condition
        f, g = constant_pair(*case)
        report = check_minimality(f, g)
        blocks = np.array([[1.0, 0.5]])
        entries = [
            lambda: interpolate(f, g, FunctionalWeights.interpolation(blocks)),
            lambda: extrapolate(f, g, FunctionalWeights.extrapolation(blocks)),
            lambda: filtering(f, g, FunctionalWeights.filtering(blocks)),
            lambda: build_block_matrix("B", f, g, [0, 1], [0, 1]),
        ]
        message = (
            "minimality condition violated: observed density is singular near "
            f"lambda = {report.worst_node:.6f} "
            f"(grid condition {report.max_condition:.3e})"
        )
        for entry in entries:
            if report.passed:
                out = entry()
                if not isinstance(out, np.ndarray):
                    assert out.diagnostics["condition"] == report.max_condition
            else:
                with pytest.raises(MinimalityError) as refused:
                    entry()
                assert str(refused.value) == message


class TestFunctionalSymbol:
    @pytest.mark.parametrize("horizon", ["interpolation", "extrapolation", "filtering"])
    def test_one_read_only_symbol_per_grid_size(self, horizon):
        # the weights keep one symbol per grid size, bit-equal to the lag ->
        # grid transform of their blocks, in the powers of their horizon
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        w = FunctionalWeights(blocks, horizon)
        first, coeffs = (-3, blocks[::-1]) if horizon == "filtering" else (0, blocks)
        symbols = {}
        for G in (64, 128):
            A = estimators.functional_symbol(w, G)
            assert A.shape == (G, 2) and not A.flags.writeable
            np.testing.assert_array_equal(A, _grid_symbol(coeffs, first, G))
            assert estimators.functional_symbol(w, G) is A
            symbols[G] = A
        assert estimators.functional_symbol(w, 64) is symbols[64]
        other = FunctionalWeights(blocks, horizon)
        assert estimators.functional_symbol(other, 64) is not symbols[64]


class TestBlocksSymbol:
    # the solved blocks' symbol C(lambda) = sum_j blocks[j] e^{i (first + j) lambda}
    @pytest.mark.parametrize("first_index", [-9, -1, 0, 1, 5])
    def test_inverse_fft_equals_exponential_sum(self, grid, first_index):
        rng = np.random.default_rng(first_index + 10)
        blocks = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        powers = first_index + np.arange(blocks.shape[0])
        direct = np.exp(1j * np.outer(grid, powers)) @ blocks
        np.testing.assert_allclose(
            _grid_symbol(blocks, first_index, GRID), direct, rtol=0, atol=1e-12
        )


class TestWeightsLongerThanTheGrid:
    def test_blocks_equal_mod_grid_add_up(self):
        # 9 blocks on G = 8: the zero block at lag 8 shares the node of lag 0,
        # where it must add to the weight, not replace it
        f = SpectralDensity.white(1, grid_size=8)
        g = SpectralDensity.white(1, scale=0.5, grid_size=8)
        short = extrapolate(f, g, FunctionalWeights.extrapolation([[1.0]]))
        long = extrapolate(f, g, FunctionalWeights.extrapolation([[1.0]] + 8 * [[0.0]]))
        assert long.mse == pytest.approx(short.mse, rel=1e-12)
        np.testing.assert_allclose(long.h_grid, short.h_grid, rtol=0, atol=1e-12)


class TestConditioning:
    def test_condition_threshold_enforced(self):
        # grid condition 1e13, beyond the threshold 1e12
        f = SpectralDensity.constant(np.diag([1.0, 1e-13]), grid_size=GRID)
        with pytest.raises(MinimalityError):
            interpolate(f, None, unit_interp(dim=2))


class TestSolveGate:
    def test_indefinite_system_refused(self):
        # |eigenvalue| ratio 2, far below the threshold: a ratio guard alone
        # solves it, the Cholesky factor does not exist
        matrix = np.diag([1.0, -2.0]).astype(complex)
        with pytest.raises(IllPosedError, match="not positive definite"):
            section_solve(SectionFactor(), matrix, np.ones(2, dtype=complex))

    @pytest.mark.parametrize("n", [2, 32, 33, 70])
    def test_panels_are_inverted_at_their_own_width(self, n):
        # the section factor's full chunks of PANEL rows and a narrower tail,
        # each stored with the inverse of its diagonal block at its own width
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        matrix = z @ z.conj().T + np.eye(n)
        strips = SectionFactor().strips(n, lambda i, j: matrix[i:j, :j], "test")
        assert [rows.shape for rows, _ in strips] == [
            (min(i + PANEL, n) - i, min(i + PANEL, n)) for i in range(0, n, PANEL)
        ]
        for rows, inv in strips:
            i, j = rows.shape[1] - rows.shape[0], rows.shape[1]
            assert inv.shape == (j - i, j - i)
            np.testing.assert_allclose(inv @ rows[:, i:j], np.eye(j - i), atol=1e-12)

    @pytest.mark.parametrize("task", ["extrap", "extrap_noiseless", "filter"])
    def test_history_levels_equal_explicit_truncation(self, monkeypatch, task):
        # every level reads the kernel's one section factor: each full chunk
        # of PANEL rows is factored once per kernel, by the first level that
        # covers it, and each level factors only its own tail besides; the
        # explicit re-solves of the same pair find every chunk and every
        # tail stored, so they factor nothing and return the same bits
        f = coupled_ma2()
        g = None if task == "extrap_noiseless" else white(dim=2, scale=0.5)
        blocks = np.array([[1.0, -0.5], [0.3, 0.2j]])
        if task == "filter":
            solver, w = filtering, FunctionalWeights.filtering(blocks)
        else:
            solver, w = extrapolate, FunctionalWeights.extrapolation(blocks)
        orders = []
        cholesky = estimators.np.linalg.cholesky
        monkeypatch.setattr(
            estimators.np.linalg,
            "cholesky",
            # system factors only: the noisy minimality gate factors the
            # (G, K, K) grid of f+g
            lambda m: (np.ndim(m) == 2 and orders.append(m.shape[0])) or cholesky(m),
        )
        sol = solver(f, g, w)
        history = sol.diagnostics["history"]
        assert len(history) >= 2
        first = 1 if task == "filter" else 0
        sizes = [(J + 1 - first) * 2 for J, _ in history]
        assert sizes[-1] == sol.solved_blocks.size
        expected, stored = [], 0
        for n in sizes:
            expected += [PANEL] * (n // PANEL - stored) + [n % PANEL] * (n % PANEL > 0)
            stored = n // PANEL
        assert orders == expected
        assert orders.count(PANEL) == sizes[-1] // PANEL
        orders.clear()
        for J, mse in history:
            explicit = solver(f, g, w, truncation=J)
            assert explicit.diagnostics["history"] == [(J, explicit.mse)]
            assert explicit.mse == mse
        np.testing.assert_array_equal(explicit.solved_blocks, sol.solved_blocks)
        assert orders == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "task", ["interp", "interp_noiseless", "extrap", "extrap_noiseless", "filter"]
    )
    @settings(derandomize=True, deadline=None, max_examples=5)
    @given(data=st.data())
    def test_system_condition_within_grid_bound(self, seed, task, data):
        # a solve reports one condition, the gate's grid bound; each section
        # it read (every level of its history) is a principal submatrix of
        # the block circulant of its kernel on the grid, so by interlacing
        # its 2-norm condition obeys that bound
        dim = 1 + seed % 3
        f = data.draw(stable_ma_densities(dim))
        scale = data.draw(st.floats(0.05, 2.0))
        g = None if task.endswith("noiseless") else white(dim=dim, scale=scale)
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        if task.startswith("interp"):
            sol = interpolate(f, g, FunctionalWeights.interpolation(blocks))
            sections = [range(3)]
        elif task.startswith("extrap"):
            sol = extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
            sections = [range(J + 1) for J, _ in sol.diagnostics["history"]]
        else:
            sol = filtering(f, g, FunctionalWeights.filtering(blocks))
            sections = [range(1, J + 1) for J, _ in sol.diagnostics["history"]]
        bound = check_minimality(f, g).max_condition
        assert sol.diagnostics["condition"] == bound
        kind = "U" if task == "filter" else "B"
        for rows in sections:
            dense = build_block_matrix(kind, f, g, rows, rows)
            assert np.linalg.cond(dense) <= bound * (1.0 + 1e-8)
