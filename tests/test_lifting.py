import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcwk import (
    FunctionalWeights,
    LiftConfig,
    SpectralDensity,
    check_weight_summability,
    compute_weights,
    conjugate_pair_permutation,
    frequency_index,
    interpolate,
    reconstruct_pc,
)


class TestFrequencyIndex:
    def test_first_values(self):
        assert frequency_index(1) == 0
        assert frequency_index(2) == 1
        assert frequency_index(3) == -1
        assert frequency_index(4) == 2
        assert frequency_index(5) == -2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            frequency_index(0)
        with pytest.raises(ValueError):
            frequency_index(-3)


class TestConjugatePairPermutation:
    def test_examples(self):
        assert conjugate_pair_permutation(1) == 1
        assert conjugate_pair_permutation(2) == 3
        assert conjugate_pair_permutation(5) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            conjugate_pair_permutation(0)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_involution_and_frequency_flip(self, k):
        s = conjugate_pair_permutation(k)
        assert conjugate_pair_permutation(s) == k
        assert frequency_index(s) == -frequency_index(k)


class TestLiftConfig:
    def test_defaults_and_validation(self):
        cfg = LiftConfig(period=2.0, n_harmonics=3)
        assert cfg.quadrature_points >= 4 * 3
        with pytest.raises(ValueError):
            LiftConfig(period=0.0, n_harmonics=1)
        with pytest.raises(ValueError):
            LiftConfig(period=1.0, n_harmonics=0)
        with pytest.raises(ValueError):
            LiftConfig(period=1.0, n_harmonics=4, quadrature_points=8)


class TestComputeWeights:
    def test_constant_function(self):
        cfg = LiftConfig(period=1.0, n_harmonics=3)
        w = compute_weights(lambda t: np.ones_like(t), cfg, 0)
        np.testing.assert_allclose(w.blocks[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_cosine_splits_between_conjugate_pair(self):
        # (1/sqrt(T)) int cos(2 pi u) e^{+-2 pi i u} du = 1/2 analytically
        cfg = LiftConfig(period=1.0, n_harmonics=3)
        w = compute_weights(lambda t: np.cos(2 * np.pi * t), cfg, 0)
        np.testing.assert_allclose(w.blocks[0], [0.0, 0.5, 0.5], atol=1e-12)

    def test_constant_over_two_blocks(self):
        cfg = LiftConfig(period=1.0, n_harmonics=1)
        w = compute_weights(lambda t: np.ones_like(t), cfg, 1)
        np.testing.assert_allclose(w.blocks, [[1.0], [1.0]], atol=1e-12)

    def test_rejects_bad_inputs(self):
        cfg = LiftConfig(period=1.0, n_harmonics=1)
        with pytest.raises(ValueError):
            compute_weights(lambda t: np.ones_like(t), cfg, -1)
        with pytest.raises(ValueError):
            compute_weights(lambda t: np.full_like(t, np.nan), cfg, 0)

    def test_real_function_has_conjugate_pair_symmetry(self):
        cfg = LiftConfig(period=1.5, n_harmonics=5, quadrature_points=128)
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=4)

        def a(t):
            return (
                coeffs[0]
                + coeffs[1] * np.cos(2 * np.pi * t / 1.5)
                + coeffs[2] * np.sin(2 * np.pi * t / 1.5)
                + coeffs[3] * np.cos(4 * np.pi * t / 1.5)
            )

        w = compute_weights(a, cfg, 2)
        for j in range(w.n_blocks):
            for k in range(1, 6):
                s = conjugate_pair_permutation(k)
                assert w.blocks[j, s - 1] == pytest.approx(
                    np.conj(w.blocks[j, k - 1]), abs=1e-12
                )


class TestReconstruction:
    def test_constant_basis_element(self):
        cfg = LiftConfig(period=1.0, n_harmonics=3)
        u = np.linspace(0.0, 1.0, 7, endpoint=False)
        out = reconstruct_pc([[1.0, 0.0, 0.0]], cfg, u)
        np.testing.assert_allclose(out, np.ones((1, 7)), atol=1e-12)

    def test_zero_block(self):
        cfg = LiftConfig(period=1.0, n_harmonics=2)
        out = reconstruct_pc([[0.0, 0.0]], cfg, [0.1, 0.5])
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_conjugate_pair_makes_cosine(self):
        cfg = LiftConfig(period=1.0, n_harmonics=3)
        u = np.linspace(0.0, 1.0, 11, endpoint=False)
        out = reconstruct_pc([[0.0, 0.5, 0.5]], cfg, u)
        np.testing.assert_allclose(out[0], np.cos(2 * np.pi * u), atol=1e-12)

    def test_empty_window_rejected(self):
        cfg = LiftConfig(period=1.0, n_harmonics=1)
        with pytest.raises(ValueError):
            reconstruct_pc(np.zeros((0, 1)), cfg, [0.0])

    def test_lift_reconstruct_roundtrip_on_bandlimited(self):
        # a combination of the retained harmonics survives the round trip:
        # the lifted entries are the expansion coefficients of the conjugate
        # partner, so permuting components recovers the function exactly
        cfg = LiftConfig(period=2.0, n_harmonics=5, quadrature_points=64)
        rng = np.random.default_rng(3)
        c = rng.normal(size=5)

        def a(t):
            u = 2 * np.pi * t / 2.0
            return c[0] + c[1] * np.cos(u) + c[2] * np.sin(u) + c[3] * np.cos(
                2 * u
            ) + c[4] * np.sin(2 * u)

        w = compute_weights(a, cfg, 1)
        perm = [conjugate_pair_permutation(k) - 1 for k in range(1, 6)]
        u = np.arange(cfg.quadrature_points) * (2.0 / cfg.quadrature_points)
        recon = reconstruct_pc(w.blocks[:, perm], cfg, u)
        for j in range(2):
            np.testing.assert_allclose(recon[j].real, a(u + 2.0 * j), atol=1e-10)
            np.testing.assert_allclose(recon[j].imag, 0.0, atol=1e-10)


class TestWeightsAreImmutable:
    def test_blocks_are_a_read_only_copy(self):
        # the weights copy the caller's array, complex or not: a later write
        # to it changes neither the blocks nor a solve with them, and the
        # blocks themselves refuse writes
        a = np.array([[1.0], [0.5]], dtype=complex)
        w = FunctionalWeights.interpolation(a)
        f = SpectralDensity.white(1, grid_size=64)
        before = interpolate(f, None, w).mse
        assert before == pytest.approx(1.25, rel=1e-12)
        a[1, 0] = 5.0
        assert a.flags.writeable and w.blocks[1, 0] == 0.5
        with pytest.raises(ValueError):
            w.blocks[0, 0] = 1.0
        assert interpolate(f, None, w).mse == before

    def test_derived_values_are_computed_once(self):
        w = FunctionalWeights.extrapolation([[1.0], [0.5], [0.0]])
        assert w.last_nonzero == 1
        assert check_weight_summability(w) is check_weight_summability(w)

    def test_weight_scale_is_kept_in_the_memo(self):
        w = FunctionalWeights.interpolation([[3.0, 4.0], [1.0, 0.0]])
        sol = interpolate(SpectralDensity.white(2, grid_size=64), None, w)
        assert sol.diagnostics["weight_scale"] == w._memo["weight_scale"] == 5.0


class TestSummability:
    def test_single_block_passes(self):
        w = FunctionalWeights.extrapolation([[1.0, 0.0]])
        rep = check_weight_summability(w)
        assert rep.sum_norms == pytest.approx(1.0)
        assert rep.passed

    def test_geometric_blocks_pass(self):
        blocks = [[2.0**-j] for j in range(21)]
        rep = check_weight_summability(FunctionalWeights.extrapolation(blocks))
        assert rep.sum_norms == pytest.approx(2.0, abs=1e-5)
        assert rep.sum_weighted_square_norms == pytest.approx(16.0 / 9.0, abs=1e-5)
        assert rep.passed

    def test_harmonic_blocks_flagged(self):
        blocks = [[1.0 / (j + 1)] for j in range(10_001)]
        rep = check_weight_summability(FunctionalWeights.extrapolation(blocks))
        assert not rep.passed
        assert any("tail not decaying" in note for note in rep.notes)

    def test_finite_horizons_only_need_finite_blocks(self):
        blocks = [[1.0 / (j + 1)] for j in range(50)]
        rep = check_weight_summability(FunctionalWeights.interpolation(blocks))
        assert rep.passed
