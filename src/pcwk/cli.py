"""Batch command line front-end.

One task per invocation: a JSON problem file is validated, dispatched to
the solvers, and the results are written as CSV files into the output
directory, with a human-readable summary on stderr. Machine output never
mixes with logs, and identical problem files with identical seeds produce
byte-identical CSV bodies.

Exit status: 0 on success, 1 on usage or validation errors, 2 on numerical
failures (minimality or conditioning).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import minimax, oracle
from .errors import PcwkError, TruncationError
from .estimators import (
    extrapolate,
    filtering,
    interpolate,
)
from .factorization import spectral_factorize
from .lifting import FunctionalWeights, LiftConfig, compute_weights
from .spectral import (
    DEFAULT_GRID_SIZE,
    _write_table,
    frequency_grid,
    read_density_csv,
    validate_density,
    write_density_csv,
)

from . import __version__

logger = logging.getLogger("pcwk")

_TASK_HORIZON = {
    "interpolate": "interpolation",
    "extrapolate": "extrapolation",
    "extrapolate-finite": "extrapolation_finite",
    "filter": "filtering",
    "factorize": "extrapolation",
    "minimax-y": "extrapolation_finite",
    "minimax-interp-dm": "interpolation",
    "minimax-extrap-d01": "extrapolation_finite",
    "minimax-filter-d0eps": "filtering",
    "oracle-check": None,
    "simulate": None,
}
TASKS = tuple(_TASK_HORIZON)


# upper bounds of the sizes a problem file may ask for; the largest benchmark
# inputs are G = 8192, 50 samples, a simulation of 100 000 blocks, 3 weight
# blocks and 2 harmonics
MAX_GRID = 2**16
MAX_SAMPLES = 1000
MAX_SIMULATED_BLOCKS = 10**6
# no admissible grid resolves a weight block beyond MAX_GRID / 2
MAX_WEIGHT_BLOCKS = MAX_GRID // 2
MAX_HARMONICS = 64
MAX_QUADRATURE_POINTS = 2**16


class SpecValidationError(ValueError):
    """Carries the full list of problem-file validation errors."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class Numerics:
    grid: int = DEFAULT_GRID_SIZE
    truncation: int | None = None
    tolerance: float = 1e-10
    seed: int = 0


@dataclass
class ProblemSpec:
    """Validated contents of a problem JSON file."""

    task: str
    numerics: Numerics
    lift: LiftConfig | None = None
    density_paths: dict = field(default_factory=dict)
    weights_inline: list | None = None
    weights_csv: str | None = None
    weights_blocks: int | None = None
    class_params: dict = field(default_factory=dict)
    base_dir: Path = Path(".")


def _is_int(value):
    # JSON booleans load as bool, a subclass of int; they are not counts
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_grid(value):
    return _is_int(value) and 8 <= value <= MAX_GRID and not value & (value - 1)


def _check_keys(obj, allowed, where, errors):
    for key in obj:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")


def parse_spec(path) -> ProblemSpec:
    """Parse and validate a problem JSON file.

    All validation errors are collected and reported together, not just
    the first one.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecValidationError([f"cannot read problem file: {exc}"]) from exc
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise SpecValidationError(["problem file must hold a JSON object"])
    _check_keys(
        raw,
        {"task", "lift", "densities", "weights", "numerics", "class_params"},
        "top level",
        errors,
    )

    task = raw.get("task")
    if task not in TASKS:
        errors.append(f"task must be one of {', '.join(TASKS)}; got {task!r}")

    numerics = Numerics()
    num = raw.get("numerics", {})
    if not isinstance(num, dict):
        errors.append("numerics must be an object")
    else:
        _check_keys(num, {"grid", "truncation", "tolerance", "seed"}, "numerics", errors)
        grid = num.get("grid", DEFAULT_GRID_SIZE)
        if not _is_grid(grid):
            errors.append(f"numerics.grid must be a power of two in [8, {MAX_GRID}]")
        else:
            numerics.grid = grid
        trunc = num.get("truncation")
        if trunc is not None and (not _is_int(trunc) or trunc < 0):
            errors.append("numerics.truncation must be a nonnegative integer")
        else:
            numerics.truncation = trunc
        tol = num.get("tolerance", 1e-10)
        if not _is_number(tol) or not (0 < tol < 1):
            errors.append("numerics.tolerance must lie in (0, 1)")
        else:
            numerics.tolerance = float(tol)
        seed = num.get("seed", 0)
        if not _is_int(seed) or seed < 0:
            errors.append("numerics.seed must be a nonnegative integer")
        else:
            numerics.seed = seed

    lift = None
    lift_raw = raw.get("lift")
    if lift_raw is not None:
        if not isinstance(lift_raw, dict):
            errors.append("lift must be an object")
        else:
            _check_keys(
                lift_raw, {"period", "harmonics", "quadrature_points"}, "lift", errors
            )
            period = lift_raw.get("period")
            harmonics = lift_raw.get("harmonics")
            if not _is_number(period) or period <= 0:
                errors.append("lift.period must be a positive number")
            if not _is_int(harmonics) or harmonics < 1:
                errors.append("lift.harmonics must be a positive integer (>= 1)")
            elif harmonics > MAX_HARMONICS:
                errors.append(
                    f"lift.harmonics must be a positive integer no larger than "
                    f"{MAX_HARMONICS}"
                )
            qp = lift_raw.get("quadrature_points")
            if qp is not None and (not _is_int(qp) or qp < 1):
                errors.append("lift.quadrature_points must be a positive integer")
            elif qp is not None and qp > MAX_QUADRATURE_POINTS:
                errors.append(
                    f"lift.quadrature_points must be a positive integer no larger "
                    f"than {MAX_QUADRATURE_POINTS}"
                )
            if not errors or (period and _is_int(harmonics) and harmonics >= 1):
                try:
                    lift = LiftConfig(
                        period=float(period),
                        n_harmonics=int(harmonics),
                        quadrature_points=qp,
                    )
                except (TypeError, ValueError) as exc:
                    errors.append(f"lift: {exc}")

    density_paths = {}
    dens = raw.get("densities", {})
    if not isinstance(dens, dict):
        errors.append("densities must be an object")
    else:
        _check_keys(dens, {"f", "g", "g2"}, "densities", errors)
        for key, value in dens.items():
            if not isinstance(value, str):
                errors.append(f"densities.{key} must be a file path")
            else:
                density_paths[key] = value

    weights_inline = None
    weights_csv = None
    weights_blocks = None
    wraw = raw.get("weights")
    if wraw is not None:
        if not isinstance(wraw, dict):
            errors.append("weights must be an object")
        else:
            _check_keys(wraw, {"inline", "csv", "blocks"}, "weights", errors)
            weights_inline = wraw.get("inline")
            weights_csv = wraw.get("csv")
            weights_blocks = wraw.get("blocks")
            if weights_inline is not None:
                weights_inline = _parse_inline(weights_inline, errors)
            if weights_blocks is not None and (
                not _is_int(weights_blocks) or weights_blocks < 1
            ):
                errors.append("weights.blocks must be a positive integer")
            elif weights_blocks is not None and weights_blocks > MAX_WEIGHT_BLOCKS:
                errors.append(
                    f"weights.blocks must be a positive integer no larger than "
                    f"{MAX_WEIGHT_BLOCKS}"
                )
            if weights_inline is not None and weights_csv is not None:
                errors.append("weights doubly specified: give inline blocks or a csv")
            if weights_inline is None and weights_csv is None:
                errors.append("weights: either inline blocks or a csv is required")
            if weights_csv is not None and weights_blocks is None:
                errors.append("weights.blocks (block count) is required with a csv")
            if weights_csv is not None and lift is None:
                errors.append("weights from csv require a lift configuration")

    class_params = raw.get("class_params", {})
    if not isinstance(class_params, dict):
        errors.append("class_params must be an object")
        class_params = {}

    if task in TASKS and task not in ("factorize", "simulate") and wraw is None:
        errors.append(f"weights are required for task {task}")

    if errors:
        raise SpecValidationError(errors)
    return ProblemSpec(
        task=task,
        numerics=numerics,
        lift=lift,
        density_paths=density_paths,
        weights_inline=weights_inline,
        weights_csv=weights_csv,
        weights_blocks=weights_blocks,
        class_params=class_params,
        base_dir=path.parent,
    )


def _parse_inline(inline, errors):
    """Inline weight blocks as lists of complex entries; bad entries are errors."""
    if not isinstance(inline, list) or not inline:
        errors.append("weights.inline must be a non-empty list of blocks")
        return inline
    blocks = []
    for j, row in enumerate(inline):
        if not isinstance(row, list):
            errors.append(f"weights.inline[{j}] must be a list of entries")
            continue
        entries = []
        for entry in row:
            if _is_number(entry):
                entries.append(complex(entry))
            elif isinstance(entry, list) and len(entry) == 2 and all(
                _is_number(part) for part in entry
            ):
                entries.append(complex(entry[0], entry[1]))
            else:
                errors.append(
                    f"weights.inline[{j}]: entries are numbers or [re, im] "
                    f"pairs of numbers; got {entry!r}"
                )
        blocks.append(entries)
    if len({len(row) for row in inline if isinstance(row, list)}) > 1:
        errors.append("weights.inline blocks must all have the same length")
    return blocks


def _load_weights(spec: ProblemSpec, horizon: str) -> FunctionalWeights:
    if spec.weights_inline is not None:
        blocks = np.array(spec.weights_inline, dtype=complex)
        return FunctionalWeights(blocks=blocks, horizon=horizon)
    path = spec.base_dir / spec.weights_csv
    times, values = _read_weight_csv(path)

    def a(t):
        return np.interp(t, times, values, left=0.0, right=0.0)

    return compute_weights(a, spec.lift, spec.weights_blocks - 1, horizon=horizon)


def _read_weight_csv(path):
    times = []
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header][:2] != ["t", "a"]:
            raise SpecValidationError([f"{path}: expected header t,a"])
        for ln, row in enumerate(reader, start=2):
            if not row or all(not v.strip() for v in row):
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise SpecValidationError([f"{path}:{ln}: malformed row"]) from exc
    if not times:
        raise SpecValidationError([f"{path}: no samples"])
    order = np.argsort(times)
    return np.asarray(times)[order], np.asarray(values)[order]


def _load_density(spec: ProblemSpec, key: str, required: bool):
    path = spec.density_paths.get(key)
    if path is None:
        if required:
            raise SpecValidationError([f"densities.{key} is required for this task"])
        return None
    density = read_density_csv(spec.base_dir / path, grid_size=spec.numerics.grid)
    report = validate_density(density)
    if not report.ok:
        raise PcwkError(
            f"density {key!r} failed validation: " + "; ".join(report.issues)
        )
    return density


# -- CSV writers -----------------------------------------------------------


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_characteristic(path, solution):
    _write_table(path, ["lambda", "component", "re_h", "im_h"],
                 [frequency_grid(solution.grid_size), np.arange(solution.dim)],
                 solution.h_grid)


def _write_summary(path, entries):
    _write_rows(path, ["key", "value"], [[k, v] for k, v in entries])


def _write_factor(path, fact):
    _write_table(path, ["u", "row", "col", "re", "im"],
                 [np.arange(n) for n in fact.coeffs.shape], fact.coeffs)


def _summary_block(entries):
    lines = ["summary:"]
    for key, value in entries:
        lines.append(f"  {key} = {value}")
    return "\n".join(lines)


# -- task runners -----------------------------------------------------------


def _solution_summary(task, solution, seed):
    """Summary rows of an estimation task.

    ``condition`` is the Hager-Higham estimate of the 1-norm condition
    number of the solved system, computed from its Cholesky factor by the
    numpy port of LAPACK's ``?lacn2`` in ``estimators._inverse_one_norm``.
    """
    diag = solution.diagnostics
    entries = [
        ("task", task),
        ("version", __version__),
        ("mse", repr(solution.mse)),
        ("grid", solution.grid_size),
        ("seed", seed),
        ("forbidden_lag_residual", repr(diag.get("forbidden_lag_residual"))),
    ]
    if "condition" in diag:
        entries.append(("condition", repr(diag["condition"])))
    if "truncation" in diag:
        entries.append(("truncation", diag["truncation"]))
    return entries


def _solve_task(spec: ProblemSpec, task: str):
    """Load the weights and densities of an estimation task and solve it."""
    weights = _load_weights(spec, _TASK_HORIZON[task])
    f = _load_density(spec, "f", required=True)
    g = _load_density(spec, "g", required=(task == "filter"))
    if task == "interpolate":
        solution = interpolate(f, g, weights)
    elif task in ("extrapolate", "extrapolate-finite"):
        solution = extrapolate(f, g, weights, truncation=spec.numerics.truncation)
    else:
        solution = filtering(f, g, weights, truncation=spec.numerics.truncation)
    return weights, f, g, solution


def _run_estimation(spec: ProblemSpec, out: Path):
    task = spec.task
    _, _, _, solution = _solve_task(spec, task)
    _write_characteristic(out / f"{task}_h.csv", solution)
    entries = _solution_summary(task, solution, spec.numerics.seed)
    _write_summary(out / "summary.csv", entries)
    return entries


def _run_factorize(spec: ProblemSpec, out: Path):
    f = _load_density(spec, "f", required=True)
    fact = spectral_factorize(f, tol=spec.numerics.tolerance)
    _write_factor(out / "factor.csv", fact)
    entries = [
        ("task", "factorize"),
        ("version", __version__),
        ("residual", repr(fact.residual)),
        ("iterations", fact.iterations),
        ("order", fact.order),
        ("seed", spec.numerics.seed),
    ]
    _write_summary(out / "summary.csv", entries)
    return entries


def _class_param(spec, key, default=None, required=False):
    if key in spec.class_params:
        return spec.class_params[key]
    if required:
        raise SpecValidationError([f"class_params.{key} is required for {spec.task}"])
    return default


def _int_param(spec, key, default=None, required=False, upper=None):
    value = _class_param(spec, key, default, required)
    if not _is_int(value) or value < 0 or (upper is not None and value > upper):
        bound = "" if upper is None else f" no larger than {upper}"
        raise SpecValidationError(
            [f"class_params.{key} must be a nonnegative integer{bound}; got {value!r}"]
        )
    return value


def _float_param(spec, key, default=None, required=False):
    value = _class_param(spec, key, default, required)
    if not _is_number(value):
        raise SpecValidationError(
            [f"class_params.{key} must be a number; got {value!r}"]
        )
    return float(value)


def _matrix_param(spec, key, dim):
    value = _class_param(spec, key, required=True)
    rows = value if isinstance(value, list) and len(value) == dim else [None]
    if not all(isinstance(r, list) and len(r) == dim and all(map(_is_number, r))
               for r in rows):
        raise SpecValidationError(
            [f"class_params.{key} must be a {dim} x {dim} nested list of numbers; "
             f"got {value!r}"]
        )
    return np.asarray(value, dtype=complex)


def _run_minimax(spec: ProblemSpec, out: Path):
    task = spec.task
    weights = _load_weights(spec, _TASK_HORIZON[task])
    grid = spec.numerics.grid
    rng = np.random.default_rng(spec.numerics.seed)
    samples_n = _int_param(spec, "samples", 50, upper=MAX_SAMPLES)
    optimal_error = None

    if task == "minimax-y":
        power = _float_param(spec, "total_power", required=True)
        result = minimax.least_favorable_class_y(weights, power, grid_size=grid)
        samples = minimax.sample_power_class(
            rng, weights.dim, weights.n, power, samples_n, grid_size=grid
        )
        validator = partial(minimax.power_class_residual, total_power=power)
        keys = ("nu_squared", "eigen_residual")
    elif task == "minimax-extrap-d01":
        P = _matrix_param(spec, "power_matrix", weights.dim)
        result = minimax.least_favorable_d01_extrapolation(weights, P, grid_size=grid)
        samples = minimax.sample_d01_class(
            rng, P, weights.n, samples_n, grid_size=grid
        )
        validator = partial(minimax.d01_class_residual, power_matrix=P)
        keys = ("nu_squared", "eigen_residual", "power_constraint_residual",
                "in_class")
    elif task == "minimax-interp-dm":
        constraints = _class_param(spec, "moments", required=True)
        if not isinstance(constraints, list) or not constraints:
            raise SpecValidationError(
                ["class_params.moments must be a non-empty list of K x K matrices"]
            )
        p_list = [np.asarray(m, dtype=complex) for m in constraints]
        result = minimax.least_favorable_dm_interpolation(
            p_list, weights, grid_size=grid
        )
        samples = minimax.sample_dm_class(
            rng, p_list, extra_degree=3, count=samples_n, grid_size=grid
        )
        validator = partial(minimax.dm_class_residual, p_constraints=p_list)

        def optimal_error(fs, gs):
            return interpolate(fs, None, weights).mse

        keys = ("system_residual",)
    else:  # minimax-filter-d0eps
        signal_power = _float_param(spec, "signal_power", required=True)
        noise_power = _float_param(spec, "noise_power", required=True)
        eps = _float_param(spec, "eps", required=True)
        g2 = _load_density(spec, "g2", required=True)
        result = minimax.least_favorable_d0eps_filtering_scalar(
            weights, signal_power, noise_power, eps, g2,
            grid_size=grid, truncation=spec.numerics.truncation,
        )
        samples = minimax.sample_d0eps_class(
            rng, signal_power, noise_power, eps, g2, weights.n, samples_n
        )
        validator = partial(
            minimax.d0eps_class_residual, signal_power=signal_power,
            noise_power=noise_power, eps=eps, g2=g2,
        )
        keys = ("converged", "alpha_squared", "beta_squared",
                "residual_noise_relation", "residual_signal_relation")

    report = minimax.saddle_point_check(
        result.h0, result.f0, result.g0, samples, weights,
        validator=validator, optimal_error=optimal_error,
    )
    write_density_csv(result.f0, out / "least_favorable_f.csv")
    if result.g0 is not None:
        write_density_csv(result.g0, out / "least_favorable_g.csv")
    if result.h0 is not None:
        _write_characteristic(out / f"{task}_h.csv", result.h0)
    entries = [("task", task), ("version", __version__), ("seed", spec.numerics.seed)]
    # in_class and converged are Python bools, whose repr is True or False
    entries += [(key, repr(result.certificate[key])) for key in keys]
    entries += [
        ("minimax_mse", repr(result.minimax_mse)),
        ("min_saddle_margin", repr(report.min_margin)),
        ("samples", int(report.margins.size)),
        ("samples_rejected", report.n_rejected),
    ]
    _write_summary(out / "summary.csv", entries)
    return entries


def _run_oracle_check(spec: ProblemSpec, out: Path):
    target = _class_param(spec, "task", required=True)
    if target not in ("interpolate", "extrapolate", "extrapolate-finite", "filter"):
        raise SpecValidationError(
            ["class_params.task must name an estimation task for oracle-check"]
        )
    initial = _int_param(spec, "initial_window", 8, upper=oracle.MAX_WINDOW)
    tolerance = _float_param(spec, "tolerance", 1e-5)
    weights, f, g, solution = _solve_task(spec, target)
    projection, _ = oracle.time_domain_projection_converged(
        f, g, weights, initial_window=initial
    )
    entries = [
        ("task", "oracle-check"),
        ("version", __version__),
        ("target", target),
        ("spectral_mse", repr(solution.mse)),
        ("oracle_mse", repr(projection.mse)),
        ("oracle_converged", projection.converged),
        ("oracle_window", projection.window),
    ]
    if projection.converged:  # an unsettled oracle value is not compared
        report = oracle.compare_report(solution.mse, projection.mse, tolerance)
        _write_rows(
            out / "oracle.csv",
            ["task", "spectral_mse", "oracle_mse", "rel_diff", "window"],
            [[target, repr(report.spectral_mse), repr(report.oracle_mse),
              repr(report.rel_diff), projection.window]],
        )
        entries += [("rel_diff", repr(report.rel_diff)), ("passed", report.passed)]
    entries.append(("seed", spec.numerics.seed))
    _write_summary(out / "summary.csv", entries)
    if not projection.converged:
        raise TruncationError(
            f"oracle projection did not settle by window {projection.window}; "
            "no comparison made"
        )
    if not report.passed:
        raise PcwkError(
            f"oracle disagreement: relative difference {report.rel_diff:.3e} "
            f"exceeds {tolerance:.1e}"
        )
    return entries


def _run_simulate(spec: ProblemSpec, out: Path):
    n_blocks = _int_param(spec, "n_blocks", required=True, upper=MAX_SIMULATED_BLOCKS)
    if n_blocks == 0:
        raise SpecValidationError(["class_params.n_blocks must be at least 1; got 0"])
    f = _load_density(spec, "f", required=True)
    fact = spectral_factorize(f, tol=spec.numerics.tolerance)
    path_blocks = oracle.simulate_sequence(fact, n_blocks, spec.numerics.seed)
    _write_table(out / "path.csv", ["j", "component", "re", "im"],
                 [np.arange(n) for n in path_blocks.shape], path_blocks)
    entries = [
        ("task", "simulate"),
        ("version", __version__),
        ("n_blocks", n_blocks),
        ("seed", spec.numerics.seed),
        ("factor_order", fact.order),
        ("factor_residual", repr(fact.residual)),
    ]
    _write_summary(out / "summary.csv", entries)
    return entries


def run(spec: ProblemSpec, out_dir) -> list:
    """Execute a validated problem spec; returns the summary entries."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if spec.task in ("interpolate", "extrapolate", "extrapolate-finite", "filter"):
        return _run_estimation(spec, out)
    if spec.task == "factorize":
        return _run_factorize(spec, out)
    if spec.task.startswith("minimax-"):
        return _run_minimax(spec, out)
    if spec.task == "oracle-check":
        return _run_oracle_check(spec, out)
    return _run_simulate(spec, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcwk",
        description=(
            "Optimal and minimax-robust linear estimation for periodically "
            "correlated processes."
        ),
    )
    parser.add_argument("--spec", required=True, help="problem JSON file")
    parser.add_argument("--out", default="./out", help="output directory")
    parser.add_argument(
        "--dry-run", action="store_true",
        help="validate the problem file and print the resolved numerics",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--grid", type=int, default=None, help="override the grid size")
    args = parser.parse_args(argv)

    level = os.environ.get("PCWK_LOG", "error").lower()
    logging.basicConfig(
        stream=sys.stderr,
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        ),
    )

    try:
        spec = parse_spec(args.spec)
    except SpecValidationError as exc:
        for item in exc.errors:
            print(f"error: {item}", file=sys.stderr)
        return 1
    if args.seed is not None:
        spec.numerics.seed = args.seed
    if args.grid is not None:
        if not _is_grid(args.grid):
            print(f"error: --grid must be a power of two in [8, {MAX_GRID}]",
                  file=sys.stderr)
            return 1
        spec.numerics.grid = args.grid

    if args.dry_run:
        print(f"task = {spec.task}")
        print(f"grid = {spec.numerics.grid}")
        print(f"truncation = {spec.numerics.truncation}")
        print(f"tolerance = {spec.numerics.tolerance}")
        print(f"seed = {spec.numerics.seed}")
        return 0

    try:
        entries = run(spec, args.out)
    except SpecValidationError as exc:
        for item in exc.errors:
            print(f"error: {item}", file=sys.stderr)
        return 1
    except PcwkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_summary_block(entries), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
