import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcwk
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
    filtering,
    fourier_coefficients,
    interpolate,
    read_density_csv,
    spectral_factorize,
    time_domain_projection_converged,
    validate_density,
    write_density_csv,
)
from pcwk.factorization import Factorization
from pcwk.spectral import (
    _grid_inverse,
    _grid_symbol,
    _node_eigenvalues,
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


def _exponential_sum(grid, coeffs, first_lag):
    """sum_j coeffs[j] e^{i (first_lag + j) lambda} at each grid node, directly."""
    powers = first_lag + np.arange(coeffs.shape[0])
    return np.tensordot(np.exp(1j * np.outer(grid, powers)), coeffs, axes=1)


class TestGridSymbol:
    @staticmethod
    def _random(seed, shape):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_matrix_coefficients(self, grid):
        coeffs = self._random(1, (5, 2, 3))
        np.testing.assert_allclose(
            _grid_symbol(coeffs, -2, GRID), _exponential_sum(grid, coeffs, -2),
            rtol=0, atol=1e-12,
        )

    def test_factor_symbol_is_the_causal_sum(self, grid):
        # P(lambda) = sum_u d(u) e^{-i u lambda}
        taps = self._random(2, (4, 2, 3))
        fact = Factorization(coeffs=taps, residual=0.0, iterations=0, grid_size=GRID)
        direct = np.tensordot(np.exp(-1j * np.outer(grid, np.arange(4))), taps, axes=1)
        np.testing.assert_allclose(fact.symbol(), direct, rtol=0, atol=1e-12)

    def test_round_trip_through_fourier_coefficients(self):
        coeffs = self._random(3, (12, 2, 2))
        values = _grid_symbol(coeffs, -5, GRID)
        np.testing.assert_allclose(
            fourier_coefficients(values, np.arange(-5, 7)), coeffs, rtol=0, atol=1e-13
        )

    def test_lags_equal_mod_grid_add_up(self):
        # 11 blocks on G = 8: lags -2..8, of which -2, -1 and 0 each share a
        # node with 6, 7 and 8
        blocks = self._random(4, (11, 3))
        folded = np.zeros((8, 3), dtype=complex)
        for j, block in enumerate(blocks):
            folded[(j - 2) % 8] += block
        values = _grid_symbol(blocks, -2, 8)
        np.testing.assert_allclose(values, _grid_symbol(folded, 0, 8), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            values, _exponential_sum(pcwk.frequency_grid(8), blocks, -2),
            rtol=0, atol=1e-13,
        )


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


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       grid=st.sampled_from([8, 64, 512]), nyquist=st.floats(0.1, 2.0))
def test_from_grid_coefficients_describe_their_samples(
    tmp_path_factory, seed, dim, grid, nyquist
):
    # Hermitian samples with a Nyquist term: the coefficients of from_grid,
    # and the density read back from its CSV at the same grid, evaluate to them
    rng = np.random.default_rng(seed)
    shape = (grid, dim, dim)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples = raw + np.conj(np.transpose(raw, (0, 2, 1)))
    samples += nyquist * np.multiply.outer((-1.0) ** np.arange(grid), np.eye(dim))
    f = SpectralDensity.from_grid(samples)
    assert f.max_lag == grid // 2
    np.testing.assert_allclose(f.coeff(grid // 2), f.coeff(-grid // 2), atol=0.0)
    bound = 1e-13 * np.abs(samples).max()
    assert np.abs(SpectralDensity(dim, f.coeffs, grid).values - samples).max() <= bound
    path = tmp_path_factory.mktemp("nyquist") / "f.csv"
    write_density_csv(f, path)
    assert np.abs(read_density_csv(path, grid_size=grid).values - samples).max() <= bound


def test_coefficients_reach_the_nyquist_pair_and_no_further():
    assert SpectralDensity.from_grid([2.0]).coeffs[:, 0, 0].tolist() == [2.0]
    SpectralDensity(1, {-4: 0.5, 0: 2.0, 4: 0.5}, grid_size=8)
    SpectralDensity(1, np.ones((9, 1, 1)), grid_size=8)
    with pytest.raises(AliasingError, match="lag 5"):
        SpectralDensity(1, {5: 0.5, 0: 2.0, -5: 0.5}, grid_size=8)
    with pytest.raises(AliasingError, match="lag 5"):
        SpectralDensity(1, np.ones((11, 1, 1)), grid_size=8)


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

    @pytest.mark.parametrize("body, message", [
        ("lag,row,col,re,im\n0,0,0,1.0,0\n", "expected header m,row,col,re,im"),
        ("m,row,col,re,im\n0,-1,0,1.0,0\n", ":2: negative matrix index"),
        ("m,row,col,re,im\n\n,,\n", "no coefficients found"),
    ], ids=["header", "negative-index", "empty"])
    def test_refused_files(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_density_csv(path)

    def test_ar_density_survives_roundtrip_via_grid(self, tmp_path):
        f = ar1()
        path = tmp_path / "ar.csv"
        write_density_csv(f, path)
        back = read_density_csv(path, grid_size=GRID)
        orig = f.values
        again = back.values
        np.testing.assert_allclose(again, orig, atol=1e-10)


def _hermitian_part(values):
    return 0.5 * (values + np.conj(np.transpose(values, (0, 2, 1))))


class TestScalarKernels:
    """At K = 1 the grid kernels are elementwise and decide as LAPACK does."""

    EPS = np.finfo(float).eps

    def test_real_samples_match_lapack_bitwise(self):
        rng = np.random.default_rng(11)
        values = (rng.standard_normal(GRID) * 10.0 ** rng.uniform(-8, 8, GRID)).astype(
            complex
        ).reshape(-1, 1, 1)
        inverse = _grid_inverse(values)
        np.testing.assert_array_equal(inverse, np.linalg.inv(values))
        np.testing.assert_array_equal(
            _node_eigenvalues(values), np.linalg.eigvalsh(_hermitian_part(values))
        )

    def test_complex_samples_match_lapack(self):
        rng = np.random.default_rng(12)
        values = (rng.standard_normal(GRID) + 1j * rng.standard_normal(GRID)).reshape(
            -1, 1, 1
        ) * 10.0 ** rng.uniform(-100, 100, (GRID, 1, 1))
        reference = np.linalg.inv(values)
        assert np.max(np.abs(_grid_inverse(values) - reference) / np.abs(reference)) <= (
            4 * self.EPS
        )
        eigs = np.linalg.eigvalsh(_hermitian_part(values))
        assert np.max(np.abs(_node_eigenvalues(values) - eigs) / np.abs(eigs)) <= (
            4 * self.EPS
        )

    def test_zero_sample_is_singular(self):
        values = np.ones((8, 1, 1), dtype=complex)
        values[5] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.inv(values)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _grid_inverse(values)

    def test_infinite_samples_invert_to_zero(self):
        values = np.array(
            [np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, -np.inf), 2.0]
        ).reshape(-1, 1, 1)
        inverse = _grid_inverse(values)
        np.testing.assert_array_equal(inverse, np.linalg.inv(values))
        np.testing.assert_array_equal(inverse[:4], 0.0)

    def test_blocks_are_inverted_by_lapack(self):
        values = coupled_ma2().values
        np.testing.assert_array_equal(_grid_inverse(values), np.linalg.inv(values))

    @staticmethod
    def _zero_node_density():
        # |1 + e^{-il}|^2 / 2 with its zero at lambda = -pi set exactly
        values = ma1(b=1.0).values.copy()
        values[0] = 0.0
        return SpectralDensity.from_grid(values)

    @pytest.mark.parametrize(
        "solve, observed",
        [
            (lambda f, w: interpolate(f, None, w), "signal"),
            (lambda f, w: filtering(f, f.scaled(0.5), FunctionalWeights.filtering(
                [[1.0], [0.5]])), "observed"),
        ],
        ids=["interpolate", "noisy-filtering"],
    )
    def test_zero_node_refused_with_the_gate_message(self, solve, observed):
        f = self._zero_node_density()
        report = check_minimality(f, None if observed == "signal" else f.scaled(0.5))
        assert not report.passed
        message = (
            f"minimality condition violated: {observed} density is singular near "
            f"lambda = {report.worst_node:.6f} (grid condition "
            f"{report.max_condition:.3e})"
        )
        with pytest.raises(MinimalityError, match=re.escape(message)):
            solve(f, FunctionalWeights.interpolation([[1.0]]))


def _linalg_inv_sites(tree):
    """Names of the functions holding each reference to ``numpy.linalg.inv``."""
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "inv" and (
            ast.unparse(node.value).endswith("linalg")
        ):
            sites.append(owner)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            sites.extend(owner for alias in node.names if alias.name == "inv")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sites


def test_grid_inverses_go_through_one_helper():
    # every grid-stack inverse is written by _grid_inverse, which takes the
    # elementwise path at K = 1; a direct np.linalg.inv would bypass it
    sites = {
        path.name: _linalg_inv_sites(ast.parse(path.read_text()))
        for path in sorted(Path(pcwk.__file__).parent.glob("*.py"))
    }
    assert {name: owners for name, owners in sites.items() if owners} == {
        "spectral.py": ["_grid_inverse"]
    }


def _vars_write_sites(tree):
    """Names of the functions holding each write ``vars(x)[key] = ...``."""
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Assign):
            sites.extend(
                owner for target in node.targets for sub in ast.walk(target)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Call)
                and ast.unparse(sub.value.func) == "vars"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sites


def test_kernel_slots_are_written_in_spectral():
    # what a density caches in its vars() is written in spectral.py: the
    # grid values of from_grid and the kernel memo, whose one writer is
    # _kernel_slot (_inverse_density seeds through it). The causal factor,
    # which spectral cannot compute, is the one density slot written
    # elsewhere; spectral_factorize caches a Factorization's own symbol
    sites = {
        path.name: _vars_write_sites(ast.parse(path.read_text()))
        for path in sorted(Path(pcwk.__file__).parent.glob("*.py"))
    }
    assert {name: owners for name, owners in sites.items() if owners} == {
        "factorization.py": ["spectral_factorize", "_memoized_factor"],
        "spectral.py": ["from_grid", "_kernel_slot"],
    }


def _fft_sites(tree):
    """Names of the functions holding each reference to ``numpy.fft`` or to
    ``_alternating_signs``, the grid's phase table."""
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
            if node.name == "_alternating_signs":
                sites.append(owner)
        if isinstance(node, ast.Attribute) and (
            ast.unparse(node) in ("np.fft", "numpy.fft")
            or node.attr == "_alternating_signs"
        ):
            sites.append(owner)
        if isinstance(node, ast.Name) and node.id == "_alternating_signs":
            sites.append(owner)
        if isinstance(node, ast.Import):
            sites.extend(owner for alias in node.names
                         if alias.name.startswith("numpy.fft"))
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            sites.extend(
                owner for alias in node.names
                if module.startswith("numpy.fft")
                or (module == "numpy" and alias.name == "fft")
                or alias.name == "_alternating_signs"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sites


def test_grid_transforms_live_in_spectral():
    # the grid convention lambda_g = -pi + 2 pi g / G is written once: every
    # lag -> grid transform is _grid_symbol and every grid -> lag read is
    # _all_fourier_coefficients, the two FFTs of the package
    sites = {
        path.name: _fft_sites(ast.parse(path.read_text()))
        for path in sorted(Path(pcwk.__file__).parent.glob("*.py"))
    }
    assert {name: sorted(set(owners)) for name, owners in sites.items() if owners} == {
        "spectral.py": ["_all_fourier_coefficients", "_alternating_signs", "_grid_symbol"]
    }
