import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pcwk
from pcwk import (
    AliasingError,
    FunctionalWeights,
    IllPosedError,
    MinimalityError,
    SpectralDensity,
    build_block_matrix,
    check_minimality,
    compare_report,
    covariances_from_density,
    empirical_mse,
    extrapolate,
    filtering,
    frequency_grid,
    functional_symbol,
    interpolate,
    simulate_sequence,
    spectral_factorize,
    time_domain_projection_converged,
)
from pcwk.cholesky import PANEL
from pcwk.estimators import _weighted_kernel
from pcwk.factorization import Factorization
from pcwk import oracle
from pcwk.oracle import observation_indices
from pcwk.spectral import _kernel_slot, _node_eigenvalues
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


def one_window(f, g, weights, window):
    """The oracle's projection onto the one window ``window``."""
    proj, _ = time_domain_projection_converged(
        f, g, weights, initial_window=window, max_window=window
    )
    return proj


class TestProjection:
    def test_white_filtering(self):
        w = FunctionalWeights.filtering([[1.0]])
        proj = one_window(white(), white(), w, 64)
        assert proj.mse == pytest.approx(0.5, abs=1e-8)

    def test_ar_single_gap_converges(self):
        w = FunctionalWeights.interpolation([[1.0]])
        proj, history = time_domain_projection_converged(ar1(), None, w)
        assert proj.mse == pytest.approx(0.8, rel=1e-6)
        assert proj.converged and history[-1] is proj
        values = [h.mse for h in history]
        for early, late in zip(values, values[1:]):
            assert late <= early + 1e-12

    def test_zero_weights(self):
        w = FunctionalWeights.filtering(np.zeros((1, 1)))
        proj = one_window(white(), white(), w, 8)
        assert proj.mse == pytest.approx(0.0, abs=1e-12)

    def test_singular_observations_refused(self):
        zero = white(scale=0.0)
        w = FunctionalWeights.filtering([[1.0]])
        with pytest.raises(IllPosedError):
            one_window(zero, zero, w, 4)

    def test_unsettled_window_is_flagged(self):
        # near a unit root the projection error still moves at window 32
        w = FunctionalWeights.extrapolation([[1.0]])
        proj, history = time_domain_projection_converged(
            ma1(b=0.95), None, w, max_window=32
        )
        assert not proj.converged
        assert proj.window == 32
        assert history[-1] is proj
        assert all(h.converged for h in history[:-1])

    def test_window_stops_at_the_grid_resolution(self):
        # still moving at window 254, the largest whose lags the 512 grid
        # resolves for one-step extrapolation: it stops there, flagged
        f, w = ma1(b=0.95), FunctionalWeights.extrapolation([[1.0]])
        proj, history = time_domain_projection_converged(f, None, w)
        assert not proj.converged
        assert [h.window for h in history] == [8, 16, 32, 64, 128, 254]
        with pytest.raises(AliasingError):
            loop_covariance(f, None, w, 255)


def loop_covariance(f, g, weights, window):
    """Reference: the observation covariance of a window, block by block."""
    obs = observation_indices(weights.horizon, weights.n, window)
    span = max(obs) - min(obs) + weights.n_blocks + 1
    cz = covariances_from_density(f, span)
    ct = None if g is None else covariances_from_density(g, span)

    def cov_x(m):
        return cz.cov(m) if ct is None else cz.cov(m) + ct.cov(m)

    return np.block([[cov_x(l - m) for m in obs] for l in obs])


def loop_projection(f, g, weights, window):
    """Reference: the normal equations assembled block by block from ``cov``."""
    task = weights.horizon
    obs = observation_indices(task, weights.n, window)
    blocks, n_a = weights.blocks, weights.n_blocks
    span = max(obs) - min(obs) + n_a + 1
    cz = covariances_from_density(f, span)
    sigma = loop_covariance(f, g, weights, window)
    sign = -1 if task == "filtering" else 1
    cross = np.concatenate(
        [sum(cz.cov(l - sign * j) @ blocks[j].conj() for j in range(n_a)) for l in obs]
    )
    variance = sum(
        blocks[j] @ cz.cov(sign * (j - i)) @ blocks[i].conj()
        for j in range(n_a)
        for i in range(n_a)
    )
    eigs = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))
    mse = (variance - np.vdot(cross, np.linalg.solve(sigma, cross))).real
    return mse, eigs.max() / eigs.min()


class TestAgainstBlockLoop:
    @pytest.mark.parametrize(
        "horizon, noisy",
        [
            (horizon, noisy)
            for horizon in ("interpolation", "extrapolation", "extrapolation_finite")
            for noisy in (True, False)
        ]
        + [("filtering", True)],
    )
    def test_tiny_case(self, horizon, noisy):
        f = coupled_ma2()
        g = white(dim=2, scale=0.5) if noisy else None
        w = FunctionalWeights(
            blocks=np.array([[1.0, -0.5j], [0.3 + 0.2j, 0.4]]), horizon=horizon
        )
        mse, condition = loop_projection(f, g, w, window=3)
        proj = one_window(f, g, w, 3)
        assert proj.mse == pytest.approx(mse, rel=1e-12)
        assert proj.condition == check_minimality(f, g).max_condition >= condition


HISTORY_BLOCKS = np.array([[1.0, -0.5j], [0.3 + 0.2j, 0.4], [0.2, -0.1 + 0.3j]])


class TestConvergedHistory:
    """One section factor gives every window the value of its own solve."""

    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize(
        "horizon, n_blocks",
        [
            ("interpolation", 1),
            ("interpolation", 3),
            ("extrapolation", 3),
            ("extrapolation_finite", 3),
            ("filtering", 2),
        ],
    )
    def test_every_window_matches_its_projection(self, horizon, n_blocks, noisy):
        f = SpectralDensity(2, coupled_ma2().coeffs + 0.6 * ma1(dim=2, b=0.9).coeffs,
                            grid_size=GRID)
        g = white(dim=2, scale=0.5) if noisy else None
        w = FunctionalWeights(blocks=HISTORY_BLOCKS[:n_blocks], horizon=horizon)
        proj, history = time_domain_projection_converged(f, g, w, initial_window=2)
        assert proj.converged and history[-1] is proj
        assert len(history) >= (2 if proj.mse == 0.0 else 3)
        gate = check_minimality(f, g).max_condition
        for entry in history:
            mse, condition = loop_projection(f, g, w, entry.window)
            obs = observation_indices(horizon, w.n, entry.window)
            assert entry.n_observations == len(obs) * f.dim
            assert entry.condition == gate >= condition
            if horizon == "filtering" and not noisy:
                # every block of the functional is observed exactly
                assert entry.mse == 0.0
            assert entry.mse == pytest.approx(mse, rel=1e-12)

    def test_each_full_chunk_is_factored_once(self, monkeypatch):
        # every window reads the one section factor of the call: each full
        # chunk of PANEL rows is factored once, by the first window that
        # covers it, and each window factors its own tail besides
        f = SpectralDensity(2, coupled_ma2().coeffs + 0.6 * ma1(dim=2, b=0.9).coeffs,
                            grid_size=GRID)
        w = FunctionalWeights.extrapolation(HISTORY_BLOCKS[:2])
        orders = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg,
            "cholesky",
            # window factors only, not a (G, K, K) grid of the gate
            lambda m: (np.ndim(m) == 2 and orders.append(m.shape[0])) or cholesky(m),
        )
        # rel_tol 0 tries every window of the schedule
        _, history = time_domain_projection_converged(
            f, None, w, initial_window=3, rel_tol=0.0, max_window=48
        )
        assert [entry.window for entry in history] == [3, 6, 12, 24, 48]
        sizes = [entry.n_observations for entry in history]
        expected, stored = [], 0
        for n in sizes:
            expected += [PANEL] * (n // PANEL - stored) + [n % PANEL] * (n % PANEL > 0)
            stored = n // PANEL
        assert orders == expected
        assert orders.count(PANEL) == sizes[-1] // PANEL

    @pytest.mark.parametrize("horizon", ["interpolation", "filtering"])
    def test_windows_gather_only_rows_not_stored(self, monkeypatch, horizon):
        # each window gathers the covariance of the observations past the
        # chunks its factor stores, and nothing else: its values are, bit for
        # bit, those of the same factor read from each window's full
        # covariance
        f = SpectralDensity(2, coupled_ma2().coeffs + 0.6 * ma1(dim=2, b=0.9).coeffs,
                            grid_size=GRID)
        g = white(dim=2, scale=0.5)
        w = FunctionalWeights(blocks=HISTORY_BLOCKS[:2], horizon=horizon)
        block = oracle._covariance_block
        gathered = []

        def spy(cx, rows, cols):
            gathered.append((rows, cols))
            return block(cx, rows, cols)

        def full(cx, rows, cols):  # the whole window, sliced to the rows asked for
            return block(cx, cols, cols)[(cols.size - rows.size) * 2 :]

        kwargs = dict(initial_window=3, rel_tol=0.0, max_window=40)
        monkeypatch.setattr(oracle, "_covariance_block", spy)
        _, history = time_domain_projection_converged(f, g, w, **kwargs)
        monkeypatch.setattr(oracle, "_covariance_block", full)
        _, reference = time_domain_projection_converged(f, g, w, **kwargs)
        assert [h.mse for h in history] == [h.mse for h in reference]
        assert [h.window for h in history] == [3, 6, 12, 24, 40]
        obs = oracle._nearest_first(horizon, w.n, 40)
        stored = 0
        assert len(gathered) == len(history)
        for entry, (rows, cols) in zip(history, gathered):
            count = entry.n_observations // 2
            np.testing.assert_array_equal(cols, obs[:count])
            np.testing.assert_array_equal(rows, obs[stored // 2 : count])
            stored = entry.n_observations // PANEL * PANEL

    def test_largest_window_peak_memory(self):
        # at 1024 rows the peak holds the factor and the rows past its stored
        # chunks, not the window's whole covariance and its gather copy
        f = SpectralDensity.from_moving_average([np.eye(2), 0.95 * np.eye(2)],
                                                grid_size=2048)
        w = FunctionalWeights.interpolation(0.7 ** np.arange(3)[:, None] * [[1.0, 0.0]])
        tracemalloc.start()
        try:
            proj, _ = time_domain_projection_converged(f, None, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = proj.n_observations
        assert n == 1024
        assert peak < 1.5 * n * n * 8

    def test_windows_follow_the_doubling_schedule(self):
        w = FunctionalWeights.extrapolation([[1.0]])
        _, history = time_domain_projection_converged(
            ma1(b=0.95), None, w, initial_window=3, max_window=40
        )
        assert [h.window for h in history] == [3, 6, 12, 24, 40]

    def test_zero_initial_window_refused(self):
        # doubling a zero window never reaches the largest one
        w = FunctionalWeights.extrapolation([[1.0]])
        with pytest.raises(ValueError, match="initial_window"):
            time_domain_projection_converged(ma1(b=0.5), None, w, initial_window=0)

    def test_symbol_zero_refused(self):
        # |1 + e^{-i lambda}|^2 vanishes at lambda = -pi, a grid node; each
        # finite window's covariance is still positive definite, and the
        # spectral solvers refuse the density as not minimal
        f, w = ma1(b=1.0), FunctionalWeights.extrapolation([[1.0]])
        assert loop_projection(f, None, w, 8)[1] < 1e3
        with pytest.raises(IllPosedError):
            time_domain_projection_converged(f, None, w)
        with pytest.raises(MinimalityError):
            extrapolate(f, None, w)


def test_nyquist_term_is_held_by_the_coefficients_and_refused():
    # samples of 1 + 0.9 cos(lambda) plus a Nyquist term 0.2 (-1)^k: the
    # coefficients hold that term as 0.1 at lags -32 and 32, so they describe
    # the samples, which go negative at odd nodes near lambda = -pi; the
    # oracle and the spectral solver both refuse the density
    grid = 64
    base = 1.0 + 0.9 * np.cos(frequency_grid(grid))
    f = SpectralDensity.from_grid(base + 0.2 * (-1.0) ** np.arange(grid))
    assert f.max_lag == grid // 2
    for m, value in ((-32, 0.1), (-1, 0.45), (0, 1.0), (1, 0.45), (32, 0.1)):
        assert f.coeff(m)[0, 0] == pytest.approx(value, abs=1e-15)
    assert np.abs(f.coeffs[[*range(1, 31), *range(34, 64)]]).max() <= 1e-15
    assert f.values.real.min() < 0.0
    assert not check_minimality(f).passed
    w = FunctionalWeights.extrapolation([[1.0]])
    with pytest.raises(IllPosedError):
        time_domain_projection_converged(f, None, w)
    with pytest.raises(MinimalityError):
        extrapolate(f, None, w)


def _runtime_imports(module):
    """pcwk modules imported by ``module`` outside ``if TYPE_CHECKING`` blocks."""
    tree = ast.parse(Path(pcwk.__file__).with_name(f"{module}.py").read_text())
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pcwk"):
            found.add(node.module.removeprefix("pcwk").lstrip(".") or "__init__")
        elif isinstance(node, ast.Import):
            found |= {a.name[5:] for a in node.names if a.name.startswith("pcwk.")}
    return {name for name in found if (Path(pcwk.__file__).parent / f"{name}.py").exists()}


def test_oracle_does_not_import_the_spectral_solvers():
    seen, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_runtime_imports(module))
    assert "estimators" not in seen
    assert "factorization" not in seen


PROPERTY_GRID = 1024


@st.composite
def stable_problems(draw):
    """A stable MA(1) or MA(2) density, or the AR(1) or AR(2) density that is
    its grid inverse, built with ``from_grid``; K <= 3, grid condition <= 100."""
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(1, 2))
    taps = draw(arrays(np.float64, (order, dim, dim, 2), elements=st.floats(-0.5, 0.5)))
    taps = taps[..., 0] + 1j * taps[..., 1]
    f = SpectralDensity.from_moving_average(
        [np.eye(dim), *taps], grid_size=PROPERTY_GRID
    )
    assume(check_minimality(f).max_condition <= 100.0)
    if draw(st.booleans()):
        f = SpectralDensity.from_grid(np.linalg.inv(f.values))
    n_blocks = draw(st.integers(1, 3))
    raw = draw(arrays(np.float64, (n_blocks, dim, 2), elements=st.floats(-1.0, 1.0)))
    assume(np.abs(raw).max() > 0.1)
    blocks = (raw[..., 0] + 1j * raw[..., 1]) * 0.7 ** np.arange(n_blocks)[:, None]
    return f, blocks


@st.composite
def noise_densities(draw, dim):
    """White noise of scale 0.5, or colored noise that need not commute with
    the signal: M g M^H + 0.05 I, g a random MA(1) and M a random complex
    matrix."""
    if draw(st.booleans()):
        return SpectralDensity.white(dim, scale=0.5, grid_size=PROPERTY_GRID)
    raw = draw(arrays(np.float64, (2, dim, dim, 2), elements=st.floats(-0.5, 0.5)))
    tap, mix = raw[..., 0] + 1j * raw[..., 1]
    g = SpectralDensity.from_moving_average([np.eye(dim), tap], grid_size=PROPERTY_GRID)
    coeffs = mix @ g.coeffs @ mix.conj().T
    coeffs[1] += 0.05 * np.eye(dim)
    return SpectralDensity(dim, coeffs, grid_size=PROPERTY_GRID)


@pytest.mark.parametrize(
    "solver, horizon, noisy",
    [
        (interpolate, "interpolation", True),
        (interpolate, "interpolation", False),
        (extrapolate, "extrapolation", True),
        (extrapolate, "extrapolation", False),
        (extrapolate, "extrapolation_finite", True),
        (extrapolate, "extrapolation_finite", False),
        (filtering, "filtering", True),
    ],
)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(problem=stable_problems(), data=st.data())
def test_spectral_error_agrees_with_oracle(solver, horizon, noisy, problem, data):
    f, blocks = problem
    g = data.draw(noise_densities(f.dim)) if noisy else None
    w = FunctionalWeights(blocks=blocks, horizon=horizon)
    sol = solver(f, g, w)
    proj, _ = time_domain_projection_converged(f, g, w, initial_window=16, rel_tol=1e-8)
    assert proj.converged
    assert abs(sol.mse - proj.mse) <= 1e-5 * max(abs(proj.mse), 1e-300)


HORIZONS = ("interpolation", "extrapolation", "extrapolation_finite", "filtering")


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    problem=stable_problems(),
    horizon=st.sampled_from(HORIZONS),
    noisy=st.booleans(),
    window=st.sampled_from([3, 8, 40]),
)
def test_symbol_bounds_bracket_the_window_covariance(problem, horizon, noisy, window):
    f, blocks = problem
    g = SpectralDensity.white(f.dim, scale=0.5, grid_size=PROPERTY_GRID)
    g = g if noisy else None
    w = FunctionalWeights(blocks=blocks, horizon=horizon)
    # the node eigenvalues of f + g that check_minimality reads
    symbol = f.eigenvalues if g is None else _node_eigenvalues(f.values + g.values)
    lo, hi = symbol.min(), symbol.max()
    sigma = loop_covariance(f, g, w, window)
    eigs = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))
    slack = 1e-12 * hi  # round-off of the two eigenvalue computations
    assert lo - slack <= eigs.min()
    assert eigs.max() <= hi + slack
    _, history = time_domain_projection_converged(
        f, g, w, initial_window=window, max_window=window
    )
    assert [h.window for h in history] == [window]
    assert history[0].condition == hi / lo


@pytest.mark.parametrize("horizon", ["interpolation", "extrapolation", "filtering"])
@settings(derandomize=True, deadline=None, max_examples=20)
@given(problem=stable_problems())
def test_weight_symbol_applies_the_block_matrices(horizon, problem):
    # the solvers read D a and a* R a from the weight symbol; the block
    # matrices tabulate the kernels f (f+g)^{-1} and f (f+g)^{-1} g
    f, blocks = problem
    g = SpectralDensity.white(f.dim, scale=0.5, grid_size=PROPERTY_GRID)
    w = FunctionalWeights(blocks=blocks, horizon=horizon)
    kernel = _kernel_slot(f, g)
    _, table, floor = _weighted_kernel(functional_symbol(w, PROPERTY_GRID), kernel.inv,
                                       kernel.g.values)
    first = 1 if horizon == "filtering" else 0
    kind_d, kind_r = "VW" if first else "DR"
    rows, cols = np.arange(first, 24), np.arange(w.n_blocks)
    a = blocks.reshape(-1)
    rhs = build_block_matrix(kind_d, f, g, rows, cols) @ a
    a_r_a = np.vdot(a, build_block_matrix(kind_r, f, g, cols, cols) @ a)
    # V a vanishes for a constant kernel: the scale includes the lag-0 block
    lag0 = np.linalg.norm(build_block_matrix("D", f, g, [0], [0])) * np.linalg.norm(a)
    np.testing.assert_allclose(
        table[rows].reshape(-1), rhs, rtol=0,
        atol=1e-12 * max(np.linalg.norm(rhs), lag0),
    )
    assert abs(floor - a_r_a) <= 1e-12 * abs(a_r_a)


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
