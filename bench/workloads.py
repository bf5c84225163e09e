"""Seeded inputs, task lists and correctness checks of the library workloads.

A task is one timed unit of a closed loop: ``call`` runs the pcwk library
call(s), ``record`` keeps the few numbers the check needs (so results are
not held in memory), and ``check`` compares a record with a reference that
is computed once per task after the timed region. Every task looks pcwk
names up at call time, so the traced run sees the wrapped functions.

Inputs follow the benchmark definition: stable MA(2) signal densities with
taps ``I, 0.15 N, 0.075 N`` (N complex standard normal), white noise of
scale 0.5, weights decaying as ``0.7**j``, all drawn from the seed.
"""

from __future__ import annotations

import os
import platform
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pcwk

# acceptance tolerances, never loosened
ORACLE_RTOL = 1e-5
MARGIN_TOL = -1e-8
EIGEN_RESIDUAL_TOL = 1e-8
MOMENT_RESIDUAL_TOL = 1e-8
FACTOR_RESIDUAL_TOL = 1e-9
ORACLE_WINDOW = dict(initial_window=16, rel_tol=1e-8)
# densities conditioned worse than this on the grid are redrawn, so every
# seed gives problems of the same difficulty
MAX_GRID_CONDITION = 100.0

SIZES = {
    "full": {
        "wide-blocks": dict(dims=(4, 8), grid=2048, horizons=(0, 4, 16)),
        "certify": dict(dims=(1, 4), grid=2048, samples=50, d0eps_grid=512,
                        d0eps_iter=60,
                        unit_root=[(b, dim, task) for b in (0.9, 0.95) for dim in (1, 2)
                                   for task in ("interpolation", "extrapolation")]),
    },
    "tiny": {
        "wide-blocks": dict(dims=(2,), grid=256, horizons=(0, 1)),
        "certify": dict(dims=(1,), grid=256, samples=5, d0eps_grid=128, d0eps_iter=5,
                        unit_root=((0.5, 1, "interpolation"),
                                   (0.5, 1, "extrapolation"))),
    },
}
WORKLOAD_IDS = {"wide-blocks": 1, "certify": 3, "cli": 4}


@dataclass
class Task:
    label: str
    kind: str
    call: Callable[[], object]
    record: Callable[[object], dict]
    reference: Callable[[], object]
    check: Callable[[dict, object], str | None]


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload]])


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def checked(density):
    """Return the density if it passes validation and the minimality check."""
    report = pcwk.validate_density(density)
    minimal = pcwk.check_minimality(density)
    if not report.ok or not minimal.passed:
        raise ValueError(f"generated density rejected: {report.issues} {minimal}")
    return density, minimal.max_condition


def ma2_density(rng, dim: int, grid: int):
    """Seeded stable MA(2) density with taps I, 0.15 N, 0.075 N."""
    for _ in range(100):
        taps = [np.eye(dim), 0.15 * _complex_normal(rng, (dim, dim)),
                0.075 * _complex_normal(rng, (dim, dim))]
        f = pcwk.SpectralDensity.from_moving_average(taps, grid_size=grid)
        try:
            f, condition = checked(f)
        except ValueError:
            continue
        if condition <= MAX_GRID_CONDITION:
            return f
    raise RuntimeError("no well-conditioned MA(2) density in 100 draws")


def white_noise(dim: int, grid: int):
    return checked(pcwk.SpectralDensity.white(dim, scale=0.5, grid_size=grid))[0]


def decaying_weights(rng, dim: int, n_blocks: int, horizon: str):
    decay = 0.7 ** np.arange(n_blocks)[:, None]
    blocks = decay * _complex_normal(rng, (n_blocks, dim))
    return pcwk.FunctionalWeights(blocks=blocks, horizon=horizon)


def relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def oracle_mse(f, g, weights) -> float:
    """Independent time-domain projection value on a converged window."""
    projection, _ = pcwk.time_domain_projection_converged(f, g, weights, **ORACLE_WINDOW)
    return projection.mse


# -- wide-blocks --------------------------------------------------------------


def _check_estimate(record, reference):
    gap = relative_gap(record["mse"], reference)
    if not gap <= ORACLE_RTOL:
        return f"mse {record['mse']!r} vs oracle {reference!r}: rel diff {gap:.2e}"
    residual = record.get("factor_residual")
    if residual is not None and not residual <= FACTOR_RESIDUAL_TOL:
        return f"factor residual {residual:.2e} > {FACTOR_RESIDUAL_TOL:.0e}"
    return None


def _estimation_task(label, kind, call, f, g, weights):
    def record(solution):
        out = {"mse": solution.mse}
        if "factor_residual" in solution.diagnostics:
            out["factor_residual"] = solution.diagnostics["factor_residual"]
        return out

    return Task(label, kind, call, record, lambda: oracle_mse(f, g, weights),
                _check_estimate)


def interleave(groups: list[list[Task]]) -> list[Task]:
    """Round-robin over groups of tasks.

    Tasks of one size then spread over the whole pass instead of running
    back to back, so their times sample the machine's state over the whole
    run; a group timed within a few seconds made the median swing with
    the machine's load.
    """
    longest = max(len(group) for group in groups)
    return [group[i] for i in range(longest) for group in groups if i < len(group)]


def wide_blocks_tasks(seed: int, size: str = "full") -> list[Task]:
    """Six estimation calls per (K, n)."""
    cfg = SIZES[size]["wide-blocks"]
    rng = rng_for("wide-blocks", seed)
    grid = cfg["grid"]
    by_dim = []
    for dim in cfg["dims"]:
        f = ma2_density(rng, dim, grid)
        g = white_noise(dim, grid)
        tasks = []
        for n in cfg["horizons"]:
            wi = decaying_weights(rng, dim, n + 1, "interpolation")
            we = decaying_weights(rng, dim, n + 1, "extrapolation")
            wf = decaying_weights(rng, dim, n + 1, "filtering")
            tag = f"K{dim}/n{n}"
            tasks += [
                _estimation_task(f"{tag}/interpolate", "interpolate",
                                 lambda f=f, g=g, w=wi: pcwk.interpolate(f, g, w),
                                 f, g, wi),
                _estimation_task(f"{tag}/interpolate-exact", "interpolate-exact",
                                 lambda f=f, w=wi: pcwk.interpolate(f, None, w),
                                 f, None, wi),
                _estimation_task(f"{tag}/extrapolate", "extrapolate",
                                 lambda f=f, g=g, w=we: pcwk.extrapolate(f, g, w),
                                 f, g, we),
                _estimation_task(f"{tag}/extrapolate-exact", "extrapolate-exact",
                                 lambda f=f, w=we: pcwk.extrapolate(f, None, w),
                                 f, None, we),
                _estimation_task(f"{tag}/filtering", "filtering",
                                 lambda f=f, g=g, w=wf: pcwk.filtering(f, g, w),
                                 f, g, wf),
                _estimation_task(f"{tag}/extrapolate-factorized", "extrapolate-factorized",
                                 lambda f=f, w=we: pcwk.extrapolate_factorized(f, w),
                                 f, None, we),
            ]
        by_dim.append(tasks)
    return interleave(by_dim)


# -- certify ----------------------------------------------------------------


def _check_saddle(record, expected_samples):
    if record["n_rejected"] != 0:
        return f"{record['n_rejected']} saddle samples rejected"
    if record["n_margins"] != expected_samples:
        return f"{record['n_margins']} margins, expected {expected_samples}"
    if not record["min_margin"] >= MARGIN_TOL:
        return f"min saddle margin {record['min_margin']:.2e} < {MARGIN_TOL:.0e}"
    return None


def _saddle_record(result, report, **extra):
    return dict(minimax_mse=result.minimax_mse, n_rejected=report.n_rejected,
                n_margins=int(report.margins.size), min_margin=report.min_margin,
                **extra)


def _eigen_task(label, kind, weights, samples, sample_seed, grid, power):
    """Least-favorable density of a bounded-power class plus its saddle check."""
    mm = pcwk.minimax
    dim = weights.dim

    def call():
        rng = np.random.default_rng(sample_seed)
        if kind == "class_y":
            result = mm.least_favorable_class_y(weights, power, grid_size=grid)
            members = mm.sample_power_class(rng, dim, weights.n, power, samples,
                                            grid_size=grid)
            validator = lambda fs: mm.power_class_residual(fs, power)  # noqa: E731
        else:
            result = mm.least_favorable_d01_extrapolation(weights, power, grid_size=grid)
            members = mm.sample_d01_class(rng, power, weights.n, samples, grid_size=grid)
            validator = lambda fs: mm.d01_class_residual(fs, power)  # noqa: E731
        report = mm.saddle_point_check(result.h0, result.f0, None, members, weights,
                                       validator=validator)
        return result, report

    def record(out):
        result, report = out
        return _saddle_record(result, report,
                              eigen_residual=result.certificate["eigen_residual"],
                              mse_mismatch="mse_mismatch" in result.certificate)

    def check(rec, _):
        if not rec["eigen_residual"] <= EIGEN_RESIDUAL_TOL:
            return f"eigen residual {rec['eigen_residual']:.2e}"
        if rec["mse_mismatch"]:
            return "characteristic error disagrees with the eigenvalue"
        return _check_saddle(rec, samples)

    return Task(label, kind, call, record, lambda: None, check)


def _dm_task(rng, samples, sample_seed, grid):
    mm = pcwk.minimax
    weights = decaying_weights(rng, 1, 2, "interpolation")
    moments = [np.array([[1.5]]), np.array([[rng.uniform(-0.5, 0.5)]]),
               np.array([[rng.uniform(-0.1, 0.1)]])]

    def call():
        result = mm.least_favorable_dm_interpolation(moments, weights, grid_size=grid)
        members = mm.sample_dm_class(np.random.default_rng(sample_seed), moments, 3,
                                     samples, grid_size=grid)
        report = mm.saddle_point_check(
            result.h0, result.f0, None, members, weights,
            validator=lambda fs: mm.dm_class_residual(fs, moments),
            optimal_error=lambda fs, gs: pcwk.interpolate(fs, None, weights).mse,
        )
        return result, report

    def record(out):
        result, report = out
        return _saddle_record(result, report,
                              moment_residual=mm.dm_class_residual(result.f0, moments))

    def check(rec, _):
        if not rec["moment_residual"] <= MOMENT_RESIDUAL_TOL:
            return f"moment residual {rec['moment_residual']:.2e}"
        return _check_saddle(rec, samples)

    return Task("K1/dm", "dm", call, record, lambda: None, check)


def _d0eps_task(grid, max_iter):
    """The acceptance 'hard' instance: it must end flagged as unconverged."""
    weights = pcwk.FunctionalWeights.filtering([[1.0], [0.5]])
    g2 = pcwk.SpectralDensity.white(1, grid_size=grid)

    def call():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = pcwk.minimax.least_favorable_d0eps_filtering_scalar(
                weights, 1.0, 1.0, 1.0, g2, grid_size=grid, max_iter=max_iter)
        return result, caught

    def record(out):
        result, caught = out
        return dict(converged=result.certificate["converged"],
                    iterations=result.certificate["iterations"],
                    flagged=any("not certified" in str(w.message) for w in caught))

    def check(rec, _):
        if rec["converged"] or not rec["flagged"] or rec["iterations"] != max_iter:
            return f"expected an unconverged, flagged result after {max_iter} iterations: {rec}"
        return None

    return Task("K1/d0eps-hard", "d0eps", call, record, lambda: None, check)


def _unit_root_task(rng, b, dim, horizon, grid):
    """Spectral solve checked by the converged oracle and compare_report.

    The density (I + b I e^{-i lambda}) is isotropic, so the seeded unit
    direction and phase of the weights leave the error value, the oracle's
    window and so the work unchanged.
    """
    f = checked(pcwk.SpectralDensity.from_moving_average(
        [np.eye(dim), b * np.eye(dim)], grid_size=grid))[0]
    direction = _complex_normal(rng, dim)
    direction /= np.linalg.norm(direction)
    weights = pcwk.FunctionalWeights(
        blocks=0.7 ** np.arange(3)[:, None] * direction, horizon=horizon)
    solver = "interpolate" if horizon == "interpolation" else "extrapolate"

    def call():
        solution = getattr(pcwk, solver)(f, None, weights)
        projection, history = pcwk.time_domain_projection_converged(f, None, weights)
        report = pcwk.compare_report(solution.mse, projection.mse)
        return solution, projection, history, report

    def record(out):
        solution, projection, history, report = out
        # the oracle's own stopping rule; it also stops, unflagged, at max_window
        prev = history[-2].mse if len(history) > 1 else np.nan
        settled = abs(projection.mse - prev) / max(1.0, abs(projection.mse))
        return dict(mse=solution.mse, oracle=projection.mse, passed=report.passed,
                    window=projection.window, settled=settled)

    def check(rec, _):
        if not rec["passed"]:
            return f"compare_report failed: {rec}"
        if not relative_gap(rec["mse"], rec["oracle"]) <= ORACLE_RTOL:
            return f"spectral and oracle values disagree: {rec}"
        if not rec["settled"] <= 1e-7:  # the oracle's default rel_tol
            return f"oracle window did not settle: {rec}"
        return None

    return Task(f"K{dim}/b{b}/{horizon}", "unit-root", call, record, lambda: None, check)


def certify_tasks(seed: int, size: str = "full") -> list[Task]:
    cfg = SIZES[size]["certify"]
    rng = rng_for("certify", seed)
    grid, samples = cfg["grid"], cfg["samples"]
    tasks = []
    for dim in cfg["dims"]:
        weights = decaying_weights(rng, dim, 3, "extrapolation_finite")
        root = _complex_normal(rng, (dim, dim)) + 2.0 * np.eye(dim)
        power = root @ root.conj().T
        power *= dim / np.trace(power).real
        tasks.append(_eigen_task(f"K{dim}/class_y", "class_y", weights, samples,
                                 int(rng.integers(2**31)), grid, float(dim)))
        tasks.append(_eigen_task(f"K{dim}/d01", "d01", weights, samples,
                                 int(rng.integers(2**31)), grid, power))
    tasks.append(_dm_task(rng, samples, int(rng.integers(2**31)), grid))
    tasks.append(_d0eps_task(cfg["d0eps_grid"], cfg["d0eps_iter"]))
    for b, dim, horizon in cfg["unit_root"]:
        tasks.append(_unit_root_task(rng, b, dim, horizon, grid))
    return tasks


def library_tasks(workload: str, seed: int, size: str = "full") -> list[Task]:
    builders = {"wide-blocks": wide_blocks_tasks, "certify": certify_tasks}
    return builders[workload](seed, size)


def verify(tasks: list[Task], records: list[tuple[int, dict | None, str | None]]):
    """Check every record against its task's reference; returns failure reasons.

    ``records`` holds (task index, record or None, error or None). The
    reference of each task is computed once, here, outside the timed region.
    """
    references: dict[int, object] = {}
    failures = []
    for index, record, error in records:
        task = tasks[index]
        if error is None:
            if index not in references:
                references[index] = task.reference()
            error = task.check(record, references[index])
        if error is not None:
            failures.append(f"{task.label}: {error}")
    return failures


def environment(blas_threads: int) -> dict:
    """Machine and library record written next to every result."""
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads,
    }
