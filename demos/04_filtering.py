#!/usr/bin/env python3
"""Filtering: estimating the signal under the noise it is observed through.

The functional runs backwards over the observed blocks (present and past),
and the observations are signal plus uncorrelated noise, so even the
present block must be cleaned rather than read off. The solver couples a
block-Toeplitz system over strictly past lags with a block-Hankel
right-hand side; the scalar one-block case collapses to the familiar
signal-to-total ratio.
"""

import numpy as np

from pcwk import (
    FunctionalWeights,
    SpectralDensity,
    empirical_mse,
    filtering,
    forbidden_lag_residual,
    spectral_factorize,
    time_domain_projection_converged,
)

G = 1024
present = FunctionalWeights.filtering([[1.0]])

# the scalar one-block case: error = f g / (f + g)
for sf, sg in ((1.0, 1.0), (2.0, 1.0), (1.0, 4.0)):
    f = SpectralDensity.white(1, scale=sf, grid_size=G)
    g = SpectralDensity.white(1, scale=sg, grid_size=G)
    sol = filtering(f, g, present)
    print(f"f = {sf}, g = {sg}: mse = {sol.mse:.6f} "
          f"(ratio {sf * sg / (sf + sg):.6f})")

# correlated signal, two-block functional
f = SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=G)
g = SpectralDensity.white(1, scale=0.5, grid_size=G)
w = FunctionalWeights.filtering([[1.0], [0.5]])
sol = filtering(f, g, w)
proj, _ = time_domain_projection_converged(f, g, w)
print(f"\nmoving-average signal, weights (1, 0.5): mse = {sol.mse:.8f}")
print(f"time-domain oracle:                      mse = {proj.mse:.8f}")

# the characteristic lives on lags <= 0 (present and past only)
print("characteristic confined to observed lags:",
      forbidden_lag_residual(sol) < 1e-8)

# Monte-Carlo: apply the characteristic's time-domain taps to a simulated
# noisy path and compare realized errors with the theoretical value
report = empirical_mse(
    sol, w, spectral_factorize(f), spectral_factorize(g),
    n_blocks=100_000, seed=3,
)
print(f"\nsimulated error over {report.n_samples} positions: "
      f"{report.value:.5f} +- {report.half_width_99:.5f} (99%), "
      f"theory {sol.mse:.5f}")

# coupled two-component filtering
f2 = SpectralDensity.from_moving_average(
    [np.array([[1.0, 0.0], [0.3, 1.0]]), np.array([[0.4, 0.2], [-0.1, 0.3]])],
    grid_size=G,
)
g2 = SpectralDensity.white(2, scale=0.5, grid_size=G)
w2 = FunctionalWeights.filtering(np.array([[1.0, -0.5], [0.2, 0.1]]))
sol2 = filtering(f2, g2, w2)
proj2, _ = time_domain_projection_converged(f2, g2, w2)
print(f"\ncoupled two-component case: mse = {sol2.mse:.8f}, "
      f"oracle {proj2.mse:.8f}, rel diff "
      f"{abs(sol2.mse - proj2.mse) / proj2.mse:.1e}")
