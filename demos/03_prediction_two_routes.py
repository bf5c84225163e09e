#!/usr/bin/env python3
"""Forward estimation from past observations, two independent routes.

With exact past observations the best forward estimate can be computed two
ways: by truncating the infinite block-Toeplitz system of inverse-density
coefficients, or by factorizing the density into its causal moving-average
taps and summing the weighted taps that stick out into the future. The two
routes share nothing numerically, so their agreement is a strong check.
Additive observation noise interpolates between the noisy system and the
noiseless factorization value as the noise vanishes.
"""

import numpy as np

from pcwk import (
    FunctionalWeights,
    SpectralDensity,
    extrapolate,
    extrapolate_factorized,
    simulate_sequence,
    spectral_factorize,
)

G = 1024
f = SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=G)
w = FunctionalWeights.extrapolation([[1.0], [1.0]])

# route one: truncated block system on the inverse density
toeplitz = extrapolate(f, None, w)
print(f"block-system route: mse = {toeplitz.mse:.10f} "
      f"(truncation J = {toeplitz.diagnostics['truncation']})")

# route two: causal factorization
fact = spectral_factorize(f)
print(f"causal taps: {np.round(fact.coeffs[:, 0, 0].real, 10)[:3]} "
      f"(residual {fact.residual:.1e}, {fact.iterations} iterations)")
factorized = extrapolate_factorized(fact, w)
print(f"factorized route:   mse = {factorized.mse:.10f}")
print(f"weighted tap sums: {np.round(factorized.solved_blocks[:, 0].real, 6)} "
      "-> 1.5^2 + 1^2 = 3.25")

# noise-vanishing consistency
print("\nnoisy system with shrinking observation noise:")
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    noisy = extrapolate(f, SpectralDensity.white(1, scale=eps, grid_size=G), w)
    print(f"  eps = {eps:7.0e}: mse = {noisy.mse:.8f}")
print(f"  noiseless limit:      {factorized.mse:.8f}")

# a coupled matrix factorization: the gauge pins the zero tap to a lower
# triangular matrix with positive diagonal
f2 = SpectralDensity.from_moving_average(
    [np.array([[1.0, 0.0], [0.3, 1.0]]), np.array([[0.4, 0.2], [-0.1, 0.3]])],
    grid_size=G,
)
fact2 = spectral_factorize(f2)
print("\ncoupled factor, zero tap:")
print(np.round(fact2.coeffs[0], 6))

# Monte-Carlo sanity: the one-step-ahead error of the moving average is the
# innovation variance
sol = extrapolate(f, None, FunctionalWeights.extrapolation([[1.0]]))
path = simulate_sequence(fact, 200_000, seed=7)[:, 0].real
# the optimal one-step predictor of taps (1, b) is the alternating series
# -(-b)^u applied to past values
b = 0.5
coeffs = np.array([-((-b) ** u) for u in range(1, 40)])
pred = np.convolve(path, coeffs)[: len(path)]
err = path[40:] - pred[39:-1]
print(f"\none-step prediction: theory mse = {sol.mse:.4f}, "
      f"empirical = {np.mean(err ** 2):.4f} (n = {err.size})")
