"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import json
import time
import warnings

import numpy as np
import pytest

from pcwk import (
    FunctionalWeights,
    SpectralDensity,
    extrapolate,
    extrapolate_factorized,
    filtering,
    interpolate,
    least_favorable_class_y,
    least_favorable_d01_extrapolation,
    least_favorable_d0eps_filtering_scalar,
    least_favorable_dm_interpolation,
    saddle_point_check,
    sample_d0eps_class,
    sample_power_class,
    spectral_factorize,
    time_domain_projection_converged,
    write_density_csv,
)
from pcwk.cli import main as cli_main
from pcwk.minimax import d0eps_class_residual, dm_class_residual, power_class_residual
from conftest import GRID, ar1, coupled_ma2, ma1, white


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def suite_densities(dim):
    cases = {
        "white": white(dim=dim),
        "ma1": ma1(dim=dim),
        "ar1": ar1(dim=dim),
    }
    if dim == 2:
        cases["coupled"] = coupled_ma2()
    return cases


def suite_weights(dim, n_blocks, horizon, seed=0):
    rng = np.random.default_rng(1000 + seed + 10 * n_blocks + 100 * dim)
    decay = 0.7 ** np.arange(n_blocks)[:, None]
    blocks = decay * (
        rng.normal(size=(n_blocks, dim)) + 0.5j * rng.normal(size=(n_blocks, dim))
    )
    return FunctionalWeights(blocks=blocks, horizon=horizon)


def test_criterion_1_oracle_equivalence():
    """Spectral error values match the time-domain projection oracle."""
    start = time.time()
    worst = 0.0
    checked = 0
    forbidden = []
    for dim in (1, 2, 4):
        noise = white(dim=dim, scale=0.5)
        for name, f in suite_densities(dim).items():
            problems = []
            for n in (0, 2):
                w = suite_weights(dim, n + 1, "interpolation", seed=n)
                problems.append((interpolate(f, noise, w), (f, noise, w)))
                problems.append((interpolate(f, None, w), (f, None, w)))
            we = suite_weights(dim, 4, "extrapolation")
            problems.append((extrapolate(f, noise, we), (f, noise, we)))
            problems.append((extrapolate(f, None, we), (f, None, we)))
            wf = suite_weights(dim, 4, "filtering")
            problems.append((filtering(f, noise, wf), (f, noise, wf)))
            for sol, (fd, gd, w) in problems:
                proj, _ = time_domain_projection_converged(
                    fd, gd, w, initial_window=16, rel_tol=1e-8
                )
                rel = abs(sol.mse - proj.mse) / max(abs(proj.mse), 1e-300)
                worst = max(worst, rel)
                checked += 1
                forbidden.append(sol.diagnostics["forbidden_lag_residual"])
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-5 and elapsed < 60.0,
        f"({checked} problems, worst rel diff {worst:.2e}, {elapsed:.1f}s)",
    )
    # stash for criterion 4
    test_criterion_1_oracle_equivalence.forbidden = forbidden


def test_criterion_2_closed_forms():
    """Three independently derived closed-form error values."""
    gap = interpolate(ar1(), None, FunctionalWeights.interpolation([[1.0]]))
    ok1 = abs(gap.mse - 0.8) <= 1e-6
    wiener = filtering(
        white(scale=2.0), white(), FunctionalWeights.filtering([[1.0]])
    )
    ok2 = abs(wiener.mse - 2.0 / 3.0) <= 1e-6
    fact = extrapolate_factorized(
        ma1(), FunctionalWeights.extrapolation([[1.0], [1.0]])
    )
    ok3 = abs(fact.mse - 3.25) <= 1e-8
    report(
        2,
        ok1 and ok2 and ok3,
        f"(gap {gap.mse:.8f}, wiener {wiener.mse:.8f}, factorized {fact.mse:.8f})",
    )


def test_criterion_3_factorization():
    """Randomized factorizations: tight residuals and route agreement."""
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_route = 0.0
    for trial in range(10):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(0, 5))
        taps = [
            0.6**u * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            for u in range(order + 1)
        ]
        base = SpectralDensity.from_moving_average(taps, grid_size=GRID)
        coeffs = base.coeffs.copy()
        coeffs[base.max_lag] += 0.1 * np.eye(dim)  # lag 0
        f = SpectralDensity(dim, coeffs, grid_size=GRID)
        fact = spectral_factorize(f, tol=1e-10)
        P = fact.symbol()
        recon = P @ np.conj(np.transpose(P, (0, 2, 1)))
        residual = float(np.abs(recon - f.values).max())
        worst_residual = max(worst_residual, residual)
        w = suite_weights(dim, 3, "extrapolation", seed=trial)
        toeplitz = extrapolate(f, None, w).mse
        via_factor = extrapolate_factorized(fact, w).mse
        worst_route = max(
            worst_route, abs(toeplitz - via_factor) / max(abs(toeplitz), 1e-300)
        )
    report(
        3,
        worst_residual <= 1e-9 and worst_route <= 1e-5,
        f"(worst residual {worst_residual:.2e}, worst route diff {worst_route:.2e})",
    )


def test_criterion_4_subspace_invariants():
    """Every computed characteristic vanishes on its forbidden lag set."""
    residuals = getattr(test_criterion_1_oracle_equivalence, "forbidden", None)
    if residuals is None:
        test_criterion_1_oracle_equivalence()
        residuals = test_criterion_1_oracle_equivalence.forbidden
    extra = [
        extrapolate_factorized(
            ma1(), FunctionalWeights.extrapolation([[1.0], [1.0]])
        ).diagnostics["forbidden_lag_residual"],
        filtering(
            coupled_ma2(), white(dim=2, scale=0.5),
            suite_weights(2, 3, "filtering"),
        ).diagnostics["forbidden_lag_residual"],
    ]
    worst = max(residuals + extra)
    report(4, worst <= 1e-8, f"({len(residuals) + len(extra)} characteristics, "
                             f"worst residual {worst:.2e})")


def test_criterion_5_power_class():
    """Bounded-power minimax value and saddle sampling."""
    w = FunctionalWeights.extrapolation_finite([[1.0], [1.0]])
    result = least_favorable_class_y(w, 1.0, grid_size=GRID)
    golden = (3.0 + np.sqrt(5.0)) / 2.0
    value_ok = abs(result.minimax_mse - golden) <= 1e-10
    rng = np.random.default_rng(777)
    samples = sample_power_class(rng, 1, 1, 1.0, 100, grid_size=GRID)
    check = saddle_point_check(
        result.h0, result.f0, None, samples, w,
        validator=lambda fs: power_class_residual(fs, 1.0),
    )
    margins_ok = check.n_rejected == 0 and check.min_margin >= -1e-8
    report(
        5,
        value_ok and margins_ok,
        f"(value {result.minimax_mse:.12f}, min margin {check.min_margin:.2e} "
        f"over {check.margins.size} samples)",
    )


def test_criterion_6_inverse_moment_class():
    """Moment-constrained interpolation: constraints reproduced, values agree."""
    rng = np.random.default_rng(31)
    worst_moment = 0.0
    worst_value = 0.0
    # scalar instance and a coupled matrix instance, both with M >= n
    instances = []
    w1 = FunctionalWeights.interpolation([[1.0]])
    instances.append(([np.array([[1.25]]), np.array([[0.5]])], w1))
    herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = 0.12 * (herm + herm.conj().T)
    p2 = [2.0 * np.eye(2), herm, 0.05 * np.eye(2)]
    w2 = FunctionalWeights.interpolation(
        rng.normal(size=(2, 2)) + 0.3j * rng.normal(size=(2, 2))
    )
    instances.append((p2, w2))
    for constraints, w in instances:
        result = least_favorable_dm_interpolation(constraints, w, grid_size=GRID)
        worst_moment = max(worst_moment, dm_class_residual(result.f0, constraints))
        check = interpolate(result.f0, None, w)
        worst_value = max(worst_value, abs(check.mse - result.minimax_mse))
    report(
        6,
        worst_moment <= 1e-8 and worst_value <= 1e-10,
        f"(worst moment residual {worst_moment:.2e}, "
        f"worst value mismatch {worst_value:.2e})",
    )


def test_criterion_7_power_matrix_class():
    """Fixed-power eigen construction: residuals and solver agreement."""
    w = FunctionalWeights.extrapolation_finite(
        [[1.0, 0.5], [0.25, -0.3]]
    )
    total = 2.0
    d01 = least_favorable_d01_extrapolation(
        w, (total / 2.0) * np.eye(2), grid_size=GRID
    )
    eigen_ok = d01.certificate["eigen_residual"] <= 1e-8
    realized = d01.f0.values.mean(axis=0)
    trace_ok = abs(np.trace(realized).real - total) <= 1e-8
    via_y = least_favorable_class_y(w, total, grid_size=GRID)
    agree_ok = abs(d01.minimax_mse - via_y.minimax_mse) <= 1e-8
    report(
        7,
        eigen_ok and trace_ok and agree_ok,
        f"(eigen residual {d01.certificate['eigen_residual']:.2e}, trace "
        f"{np.trace(realized).real:.10f}, solver gap "
        f"{abs(d01.minimax_mse - via_y.minimax_mse):.2e})",
    )


def test_criterion_8_filtering_class():
    """Scalar filtering class: certified relations or an honest flag."""
    w = FunctionalWeights.filtering([[1.0]])
    result = least_favorable_d0eps_filtering_scalar(
        w, 1.0, 1.0, 1.0, white(), grid_size=GRID
    )
    cert = result.certificate
    assert cert["converged"], "the symmetric instance must converge"
    res_ok = (
        cert["residual_noise_relation"] <= 1e-6
        and cert["residual_signal_relation"] <= 1e-6
    )
    rng = np.random.default_rng(404)
    samples = sample_d0eps_class(rng, 1.0, 1.0, 1.0, white(), 1, 50)
    check = saddle_point_check(
        result.h0, result.f0, result.g0, samples, w,
        validator=lambda fs, gs: d0eps_class_residual(fs, gs, 1.0, 1.0, 1.0, white()),
    )
    margins_ok = check.n_rejected == 0 and check.min_margin >= -1e-8
    # a hard instance may fail to converge; it must then be flagged, never
    # silently certified
    hard_w = FunctionalWeights.filtering([[1.0], [0.5]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hard = least_favorable_d0eps_filtering_scalar(
            hard_w, 1.0, 1.0, 1.0, white(), grid_size=GRID, max_iter=60
        )
    hard_cert = hard.certificate
    if hard_cert["converged"]:
        honest = (
            hard_cert["residual_noise_relation"] <= 1e-6
            and hard_cert["residual_signal_relation"] <= 1e-6
        )
    else:
        honest = any("not certified" in str(item.message) for item in caught)
    report(
        8,
        res_ok and margins_ok and honest,
        f"(residuals {cert['residual_noise_relation']:.2e}/"
        f"{cert['residual_signal_relation']:.2e}, min margin "
        f"{check.min_margin:.2e}, hard instance "
        f"{'converged' if hard_cert['converged'] else 'flagged'})",
    )


def test_criterion_9_noise_vanishing():
    """Noisy forward estimation approaches the noiseless value as noise dies."""
    w = FunctionalWeights.extrapolation([[1.0], [0.5]])
    worst_gap = 0.0
    monotone = True
    for f in (ma1(), ar1(), coupled_ma2()):
        dim = f.dim
        wv = FunctionalWeights.extrapolation(
            np.array([[1.0] * dim, [0.5] * dim])
        )
        target = extrapolate_factorized(f, wv).mse
        previous = np.inf
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            value = extrapolate(f, white(dim=dim, scale=eps), wv).mse
            monotone = monotone and value <= previous + 1e-12
            previous = value
        worst_gap = max(worst_gap, abs(previous - target) / abs(target))
    report(
        9,
        monotone and worst_gap <= 1e-2,
        f"(monotone {monotone}, worst relative gap {worst_gap:.2e})",
    )


def test_criterion_10_determinism(tmp_path):
    """Identical problem files and seeds give byte-identical CSV bodies."""
    write_density_csv(ma1(), tmp_path / "f.csv")
    specs = {
        "minimax": {
            "task": "minimax-y",
            "weights": {"inline": [[1.0], [1.0]]},
            "numerics": {"grid": GRID, "seed": 13},
            "class_params": {"total_power": 1.0, "samples": 25},
        },
        "simulate": {
            "task": "simulate",
            "densities": {"f": "f.csv"},
            "numerics": {"grid": GRID, "seed": 13},
            "class_params": {"n_blocks": 128},
        },
    }
    identical = True
    for name, payload in specs.items():
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(payload), encoding="utf-8")
        out1 = tmp_path / f"{name}_1"
        out2 = tmp_path / f"{name}_2"
        assert cli_main(["--spec", str(spec_path), "--out", str(out1)]) == 0
        assert cli_main(["--spec", str(spec_path), "--out", str(out2)]) == 0
        for produced in sorted(out1.iterdir()):
            twin = out2 / produced.name
            identical = identical and produced.read_bytes() == twin.read_bytes()
    report(10, identical, "(all CSV bodies byte-identical across reruns)")
