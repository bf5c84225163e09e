#!/usr/bin/env python3
"""Robust estimation: worst-case densities and their certificates.

When the density is only known to lie in a class, the robust strategy
solves the nominal problem at the class's worst member. Three classes have
constructive solutions here: bounded total power (worst density is a
one-sided moving average built from the top eigenvector of the weight gram
operator), prescribed cosine moments of the inverse density (worst density
is autoregressive), and power-constrained filtering with contaminated
noise (a fixed point of the pointwise optimality relations). Each result
carries a certificate, and saddle-point optimality is checked by sampling
densities from the class.
"""

import numpy as np

from pcwk import (
    FunctionalWeights,
    SpectralDensity,
    interpolate,
    least_favorable_class_y,
    least_favorable_d0eps_filtering_scalar,
    least_favorable_dm_interpolation,
    saddle_point_check,
    sample_d0eps_class,
    sample_power_class,
    spectral_factorize,
)
from pcwk.minimax import d0eps_class_residual, dm_class_residual, power_class_residual

G = 512
rng = np.random.default_rng(2718)

# ---- bounded total power, forward estimation ----------------------------
w = FunctionalWeights.extrapolation_finite([[1.0], [1.0]])
result = least_favorable_class_y(w, total_power=1.0, grid_size=G)
print("bounded-power class, weights (1, 1):")
print(f"  top eigenvalue  = {result.certificate['nu_squared']:.12f} "
      f"(golden-ratio value (3 + sqrt 5)/2 = {(3 + np.sqrt(5)) / 2:.12f})")
print(f"  worst-case mse  = {result.minimax_mse:.12f}")
print(f"  worst density taps: "
      f"{np.round(result.f0.coeff(0)[0, 0].real, 6)} at lag 0, "
      f"{np.round(result.f0.coeff(1)[0, 0].real, 6)} at lag 1")

samples = sample_power_class(rng, 1, 1, 1.0, 60, grid_size=G)
check = saddle_point_check(
    result.h0, result.f0, None, samples, w,
    validator=lambda fs: power_class_residual(fs, 1.0),
)
print(f"  saddle check over {check.margins.size} sampled class members: "
      f"min margin = {check.min_margin:.2e}")

# ---- prescribed inverse moments, interpolation ---------------------------
wi = FunctionalWeights.interpolation([[1.0]])
moments = [np.array([[1.25]]), np.array([[0.5]])]
dm = least_favorable_dm_interpolation(moments, wi, grid_size=G)
print("\nmoment-constrained class, one missing block:")
print(f"  worst-case mse       = {dm.minimax_mse:.10f}")
print(f"  moment reproduction  = {dm_class_residual(dm.f0, moments):.2e}")
print(f"  independent re-solve = {interpolate(dm.f0, None, wi).mse:.10f}")
# the worst density is autoregressive: its inverse, the moment polynomial
# 1.25 + cos(lambda), factors as |a(lambda)|^2 with the taps a below
moment_polynomial = SpectralDensity(1, {-1: 0.5, 0: 1.25, 1: 0.5}, grid_size=G)
print(f"  autoregressive taps  = "
      f"{np.round(spectral_factorize(moment_polynomial).coeffs[:, 0, 0].real, 6)}")

# ---- power-constrained filtering with contaminated noise -----------------
wf = FunctionalWeights.filtering([[1.0]])
baseline = SpectralDensity.white(1, grid_size=G)
lf = least_favorable_d0eps_filtering_scalar(
    wf, signal_power=1.0, noise_power=1.0, eps=1.0, g2=baseline, grid_size=G
)
cert = lf.certificate
print("\nfiltering class (free noise, unit powers):")
print(f"  converged in {cert['iterations']} iteration(s): {cert['converged']}")
print(f"  multipliers alpha^2 = {cert['alpha_squared']:.6f}, "
      f"beta^2 = {cert['beta_squared']:.6f}")
print(f"  worst-case mse = {lf.minimax_mse:.6f} "
      "(flat signal and noise split the error evenly)")

pairs = sample_d0eps_class(rng, 1.0, 1.0, 1.0, baseline, 1, 40)
check = saddle_point_check(
    lf.h0, lf.f0, lf.g0, pairs, wf,
    validator=lambda fs, gs: d0eps_class_residual(fs, gs, 1.0, 1.0, 1.0, baseline),
)
print(f"  saddle check over {check.margins.size} sampled pairs: "
      f"min margin = {check.min_margin:.2e}")
