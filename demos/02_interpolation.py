#!/usr/bin/env python3
"""Filling a gap: optimal interpolation of missing blocks.

Blocks 0..n of the lifted sequence are unobserved; everything else is seen,
possibly through additive noise. The solver assembles block matrices of
Fourier coefficients of the (inverse) densities, solves one Hermitian
system, and reports the spectral characteristic plus the mean square error.
A brute-force time-domain projection onto a long finite window provides an
independent check.
"""

import numpy as np

from pcwk import (
    FunctionalWeights,
    SpectralDensity,
    frequency_grid,
    interpolate,
    time_domain_projection_converged,
)

G = 1024
one_gap = FunctionalWeights.interpolation([[1.0]])

# white signal: the other samples carry no information, the error is the
# full variance
white = SpectralDensity.white(1, grid_size=G)
sol = interpolate(white, None, one_gap)
print(f"white signal, one missing block:      mse = {sol.mse:.6f} (variance 1)")

# moving-average signal: neighbours help; the classical reciprocal-integral
# formula gives 1 - b^2 for taps (1, b)
ma = SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=G)
sol = interpolate(ma, None, one_gap)
print(f"moving average (1, 0.5), one gap:     mse = {sol.mse:.6f} (closed form 0.75)")

# autoregressive signal, built by sampling the inverse polynomial on the grid
lam = frequency_grid(G)
ar = SpectralDensity.from_grid(1.0 / np.abs(1 - 0.5 * np.exp(-1j * lam)) ** 2)
sol = interpolate(ar, None, one_gap)
print(f"autoregressive (phi = 0.5), one gap:  mse = {sol.mse:.6f} (closed form 0.8)")

# observation noise raises the error and fills in a nonzero characteristic
noise = SpectralDensity.white(1, scale=0.5, grid_size=G)
noisy = interpolate(ar, noise, one_gap)
print(f"same problem with noisy observations: mse = {noisy.mse:.6f}")

# independent verification: project onto a growing finite window
proj, history = time_domain_projection_converged(ar, noise, one_gap)
print(f"time-domain oracle (window {proj.window}):        "
      f"mse = {proj.mse:.6f}, rel diff = "
      f"{abs(noisy.mse - proj.mse) / proj.mse:.2e}")

# a longer gap with matrix-valued blocks and complex weights
rng = np.random.default_rng(1)
blocks = rng.normal(size=(3, 2)) + 0.5j * rng.normal(size=(3, 2))
w = FunctionalWeights.interpolation(blocks)
f2 = SpectralDensity.from_moving_average(
    [np.array([[1.0, 0.0], [0.3, 1.0]]), np.array([[0.4, 0.2], [-0.1, 0.3]])],
    grid_size=G,
)
g2 = SpectralDensity.white(2, scale=0.5, grid_size=G)
sol2 = interpolate(f2, g2, w)
proj2, _ = time_domain_projection_converged(f2, g2, w)
print(f"\ncoupled two-component gap of length 3: mse = {sol2.mse:.6f}, "
      f"oracle {proj2.mse:.6f}")
print("characteristic vanishes on the gap lags:",
      sol2.diagnostics["forbidden_lag_residual"] < 1e-8)
