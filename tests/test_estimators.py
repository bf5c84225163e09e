import numpy as np
import pytest

from pcwk import (
    FunctionalWeights,
    IllPosedError,
    MinimalityError,
    SpectralDensity,
    TruncationError,
    build_block_matrix,
    check_minimality,
    evaluate_mse,
    extrapolate,
    filtering,
    forbidden_lags,
    frequency_grid,
    interpolate,
)
from pcwk import estimators
from pcwk.estimators import _blocks_symbol, _solve_hermitian
from pcwk.oracle import time_domain_projection_converged
from conftest import GRID, ar1, coupled_ma2, ma1, white


def unit_interp(n=0, dim=1):
    blocks = np.zeros((n + 1, dim), dtype=complex)
    blocks[0, 0] = 1.0
    return FunctionalWeights.interpolation(blocks)


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

    def test_minimality_gate(self):
        f = SpectralDensity.from_coeffs({0: 2.0, 1: -1.0, -1: -1.0}, grid_size=GRID)
        with pytest.raises(MinimalityError):
            build_block_matrix("B", f, None, [0], [0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_block_matrix("X", white(), None, [0], [0])

    @pytest.mark.parametrize("kind", estimators.BLOCK_KINDS)
    def test_only_the_returned_kernel_is_tabulated(self, monkeypatch, kind):
        calls = []
        table = estimators._all_fourier_coefficients

        def counted(values):
            calls.append(kind)
            return table(values)

        monkeypatch.setattr(estimators, "_all_fourier_coefficients", counted)
        build_block_matrix(kind, coupled_ma2(), white(dim=2, scale=0.5), [0, 1], [0, 1])
        assert len(calls) == 1


class TestInterpolation:
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

    def test_weights_beyond_grid_resolution_refused(self):
        w = FunctionalWeights.extrapolation(0.5 ** np.arange(40).reshape(40, 1))
        with pytest.raises(TruncationError, match="beyond the largest truncation"):
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
        with pytest.raises(TruncationError, match="exceeds the grid resolution"):
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
        assert sol.diagnostics["forbidden_lag_residual"] < 1e-8


class TestOnePath:
    @pytest.mark.parametrize(
        "task", ["interp", "interp_noiseless", "extrap", "extrap_noiseless", "filter"]
    )
    def test_one_minimality_check_and_one_inversion(self, monkeypatch, task):
        # one inversion of f+g (of f without noise). The well-conditioned
        # noisy pair passes the gate by its bound, so no grid eigenvalues
        # are computed; without noise the one check_minimality call reads
        # f.eigenvalues, computed once for the fresh density
        calls = {"check_minimality": 0, "inv": 0, "grid eigvalsh": 0}

        def counted(name, fn, grid_only=False):
            def wrapper(a, *args, **kwargs):
                calls[name] += not grid_only or np.ndim(a) == 3
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            estimators, "check_minimality",
            counted("check_minimality", estimators.check_minimality),
        )
        monkeypatch.setattr(
            estimators.np.linalg, "inv", counted("inv", estimators.np.linalg.inv)
        )
        monkeypatch.setattr(
            estimators.np.linalg, "eigvalsh",
            counted("grid eigvalsh", estimators.np.linalg.eigvalsh, grid_only=True),
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
        exact = int(g is None)
        assert calls == {"check_minimality": exact, "inv": 1, "grid eigvalsh": exact}

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
    def test_noiseless_case_is_the_vanishing_noise_limit(self, solver, make):
        rng = np.random.default_rng(3)
        w = make(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        f = coupled_ma2()
        exact = solver(f, None, w)
        noisy = solver(f, white(dim=2, scale=1e-10), w)
        assert noisy.mse == pytest.approx(exact.mse, abs=1e-8)
        np.testing.assert_allclose(noisy.h_grid, exact.h_grid, atol=1e-8)


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


# f + g at grid conditions on both sides of the threshold 1e12 and of the
# bound's acceptance limit 5e11, plus sums the bound must never accept: an
# indefinite one (its inverse has small norms), a singular one (inv fails)
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
    # within the rounding of eigvalsh and inv of the threshold: without the
    # bound's factor-two margin, some of these would be accepted by the bound
    # and refused by check_minimality
    pytest.param(([1.0, 1.0 / (1e12 * (1.0 - 1e-5))], seed), id=f"edge-{seed}")
    for seed in range(20)
]


class TestMinimalityBound:
    @pytest.mark.filterwarnings("ignore:discarding imaginary part")
    @pytest.mark.parametrize("case", GATE_CASES)
    def test_bound_never_changes_the_decision(self, case):
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
                try:
                    entry()
                except (IllPosedError, TruncationError):
                    pass  # the solve's own gate, after minimality passed
            else:
                with pytest.raises(MinimalityError) as refused:
                    entry()
                assert str(refused.value) == message


class TestBlocksSymbol:
    @pytest.mark.parametrize("first_index", [-9, -1, 0, 1, 5])
    def test_inverse_fft_equals_exponential_sum(self, grid, first_index):
        rng = np.random.default_rng(first_index + 10)
        blocks = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        powers = first_index + np.arange(blocks.shape[0])
        direct = np.exp(1j * np.outer(grid, powers)) @ blocks
        np.testing.assert_allclose(
            _blocks_symbol(blocks, first_index, GRID), direct, rtol=0, atol=1e-12
        )


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
            _solve_hermitian(matrix, np.ones(2, dtype=complex), "test")

    def test_condition_is_one_norm_estimate(self):
        matrix = np.array(
            [[4.0, 1.0 + 1.0j, 0.0], [1.0 - 1.0j, 3.0, 0.5], [0.0, 0.5, 2.0]]
        )
        rhs = np.array([1.0, 2.0j, 3.0])
        x, cond = _solve_hermitian(matrix, rhs, "test")
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-14)
        assert cond == pytest.approx(np.linalg.cond(matrix, 1), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 65, 260])
    def test_condition_estimate_equals_lapack_pocon(self, n):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        matrix = z @ z.conj().T + 0.1 * np.eye(n)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x, cond = _solve_hermitian(matrix, rhs, "test")
        np.testing.assert_allclose(matrix @ x, rhs, rtol=0, atol=1e-10 * np.abs(rhs).max())
        chol, lower = linalg.cho_factor(matrix)
        (pocon,) = linalg.get_lapack_funcs(("pocon",), dtype=chol.dtype)
        rcond, info = pocon(chol, np.linalg.norm(matrix, 1), uplo="L" if lower else "U")
        assert info == 0
        assert cond == pytest.approx(1.0 / rcond, rel=1e-10)

    @pytest.mark.parametrize("task", ["extrap", "extrap_noiseless", "filter"])
    def test_history_levels_equal_explicit_truncation(self, monkeypatch, task):
        # each level borders the previous level's factor with its new block
        # rows, so the orders factored sum to the last level's: each row of
        # the last system is factored once
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
        assert sum(orders) == sol.solved_blocks.size
        for J, mse in history:
            explicit = solver(f, g, w, truncation=J)
            assert explicit.diagnostics["history"] == [(J, explicit.mse)]
            assert mse == pytest.approx(explicit.mse, rel=1e-12)

    @staticmethod
    def _stable_ma(rng, dim):
        d0 = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim))
        d1 = 0.3 * rng.standard_normal((dim, dim))
        return SpectralDensity.from_moving_average([d0, d1], grid_size=GRID)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "task", ["interp", "interp_noiseless", "extrap", "extrap_noiseless", "filter"]
    )
    def test_system_condition_within_grid_bound(self, seed, task):
        # each system is a principal submatrix of the block circulant of its
        # kernel on the grid, so its 2-norm condition obeys the grid bound
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 3
        f = self._stable_ma(rng, dim)
        g = None if task.endswith("noiseless") else white(dim=dim, scale=0.5)
        blocks = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        if task.startswith("interp"):
            sol = interpolate(f, g, FunctionalWeights.interpolation(blocks))
            rows = range(3)
        elif task.startswith("extrap"):
            sol = extrapolate(f, g, FunctionalWeights.extrapolation(blocks))
            rows = range(sol.diagnostics["truncation"] + 1)
        else:
            sol = filtering(f, g, FunctionalWeights.filtering(blocks))
            rows = range(1, sol.diagnostics["truncation"] + 1)
        kind = "U" if task == "filter" else "B"
        dense = build_block_matrix(kind, f, g, rows, rows)
        bound = check_minimality(f, g).max_condition
        assert np.linalg.cond(dense) <= bound * (1.0 + 1e-8)
        assert np.isfinite(sol.diagnostics["condition"])
