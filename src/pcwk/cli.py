"""Batch command line front-end.

One task per invocation: a JSON problem file is validated, dispatched to
the solvers, and the results are written as CSV files into the output
directory, with a human-readable summary on stderr. Machine output never
mixes with logs, and identical problem files with identical seeds produce
byte-identical CSV bodies.

Every key of the problem file is a row of ``_KEYS``: its rule, default and
the tasks that require or read it. ``parse_spec`` walks the table once and
reports every error together; ``_load`` then reads the densities and the
weights the task uses and admits them by the solvers' own rules, for the
run and for ``--dry-run`` alike.

Exit status: 0 on success, 1 on usage or validation errors, 2 on numerical
failures (minimality, conditioning or grid resolution).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import minimax, oracle
from .errors import PcwkError, TruncationError
from .estimators import _admit_truncation, extrapolate, filtering, interpolate
from .factorization import spectral_factorize
from .lifting import FunctionalWeights, LiftConfig, _shared_dim, compute_weights
from .spectral import (
    DEFAULT_GRID_SIZE,
    _write_table,
    frequency_grid,
    read_density_csv,
    validate_density,
    write_density_csv,
)

from . import __version__

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
_ESTIMATION = ("interpolate", "extrapolate", "extrapolate-finite", "filter")
_MINIMAX = tuple(task for task in TASKS if task.startswith("minimax-"))
_D0EPS = ("minimax-filter-d0eps",)
_WEIGHTED = _ESTIMATION + _MINIMAX  # the tasks that read weights
# the sections of a problem file; lift and weights may be absent or null
_SECTIONS = ("numerics", "lift", "densities", "weights", "class_params")
_OPTIONAL = ("lift", "weights")


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
    """The numerics section; its defaults are those of the rows in ``_KEYS``."""

    grid: int
    tolerance: float
    seed: int
    truncation: int | None = None


@dataclass
class ProblemSpec:
    """Validated contents of a problem JSON file.

    ``values`` holds the typed value of each key the task reads, by its
    path in ``_KEYS`` ("class_params.samples"), defaults filled in.
    """

    task: str
    numerics: Numerics
    lift: LiftConfig | None = None
    values: dict = field(default_factory=dict)
    base_dir: Path = Path(".")


def _is_int(value):
    # JSON booleans load as bool, a subclass of int; they are not counts
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_real(value):
    """A number a float holds finitely: JSON's NaN, Infinity and 1e400 are not."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_grid(value):
    return _is_int(value) and 8 <= value <= MAX_GRID and not value & (value - 1)


# -- rules ------------------------------------------------------------------
# A rule(value, name, errors, values) returns the typed value, or appends its
# refusals, each starting with ``name``, to ``errors``. ``values`` holds the
# typed values of the rows above it in _KEYS.


def _rule(test, text):
    """The rule that ``test`` accepts; its refusal ends with ``text``, in
    which ``{v!r}`` is the value."""

    def rule(value, name, errors, values):
        if test(value):
            return value
        errors.append(f"{name} " + text.format(v=value))

    return rule


def _or_null(rule):
    """``rule``, with null accepted as the key's absence."""
    return lambda value, *rest: None if value is None else rule(value, *rest)


def _integer(lo, hi=None, note=""):
    """An integer in [lo, hi]; a refusal below lo ends with ``note``."""
    kind = f"must be a {'positive' if lo else 'nonnegative'} integer"

    def rule(value, name, errors, values):
        if not _is_int(value) or value < lo:
            errors.append(f"{name} {kind}{note}")
        elif hi is not None and value > hi:
            errors.append(f"{name} {kind} no larger than {hi}")
        else:
            return value

    return rule


def _count(hi, least=0):
    """A class_params integer in [least, hi]; the refusal shows the value."""

    def rule(value, name, errors, values):
        if not _is_int(value) or not 0 <= value <= hi:
            errors.append(
                f"{name} must be a nonnegative integer no larger than {hi}; got {value!r}"
            )
        elif value < least:
            errors.append(f"{name} must be at least {least}; got {value!r}")
        else:
            return value

    return rule


def _number(interval, text=None):
    """A finite number in ``interval``, written "(0, 1)", "[0, 1]" or "(0, inf)".

    ``text`` replaces the refusal, which by default shows the value.
    """
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    closed = [lo] * (interval[0] == "[") + [hi] * (interval[-1] == "]")

    def rule(value, name, errors, values):
        if _is_real(value) and (lo < value < hi or value in closed):
            return float(value)
        where = f" in {interval}" if _is_number(value) else ""
        errors.append(f"{name} {text or f'must be a number{where}; got {value!r}'}")

    return rule


_FILE = _rule(lambda value: isinstance(value, str), "must be a file path")


def _complex_entry(entry):
    """A finite number or an [re, im] pair of them as a complex; None otherwise."""
    if _is_real(entry):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(map(_is_real, entry)):
        return complex(entry[0], entry[1])
    return None


def _parse_inline(inline, name, errors, values):
    """Inline weight blocks as lists of complex entries; None if any is refused."""
    if not isinstance(inline, list) or not inline:
        errors.append(f"{name} must be a non-empty list of blocks")
        return None
    before = len(errors)
    blocks = []
    for j, row in enumerate(inline):
        if not isinstance(row, list) or not row:
            errors.append(f"{name}[{j}] must be a list of entries")
            continue
        entries = []
        for entry in row:
            value = _complex_entry(entry)
            if value is not None:
                entries.append(value)
            else:
                errors.append(
                    f"{name}[{j}]: entries are numbers or [re, im] "
                    f"pairs of numbers; got {entry!r}"
                )
        blocks.append(entries)
    if len({len(row) for row in inline if isinstance(row, list)}) > 1:
        errors.append(f"{name} blocks must all have the same length")
    return blocks if len(errors) == before else None


def _complex_matrix(value, name, errors, values):
    """A K x K nested list as a complex matrix; None, with an error, otherwise.

    Each entry is a number or an [re, im] pair, the rule of inline weights.
    K is the width of the inline weight blocks, or the lift's harmonics for
    weights lifted from a CSV.
    """
    if "weights.inline" in values:
        dim = len(values["weights.inline"][0])
    elif "weights.csv" in values and "lift.harmonics" in values:
        dim = values["lift.harmonics"]
    else:
        return None  # the weights are refused, so K is unknown
    rows = value if isinstance(value, list) and len(value) == dim else [None]
    entries = [
        [_complex_entry(x) for x in row]
        if isinstance(row, list) and len(row) == dim else [None]
        for row in rows
    ]
    if any(x is None for row in entries for x in row):
        errors.append(
            f"{name} must be a {dim} x {dim} nested list of numbers or [re, im] "
            f"pairs; got {value!r}"
        )
        return None
    return np.array(entries, dtype=complex)


def _moments(value, name, errors, values):
    """``class_params.moments`` as K x K complex matrices.

    Every malformed moment is a collected validation error naming its index.
    """
    if not isinstance(value, list) or not value:
        errors.append(f"{name} must be a non-empty list of K x K matrices")
        return None
    return [
        _complex_matrix(mat, f"{name}[{m}]", errors, values)
        for m, mat in enumerate(value)
    ]


# -- the table of keys --------------------------------------------------------


@dataclass(frozen=True)
class _Key:
    """One key of the problem file, by its dotted path.

    ``requires`` are the tasks that fail without the key and ``accepts``
    the tasks that read it; left empty, ``accepts`` is ``requires`` or, when
    no task requires the key, every task. An oracle-check reads the
    densities and weights of its target task. A class_params key that the
    task does not read is refused; any other such key is checked and then
    ignored. ``flag`` is the command-line flag that overrides the key.
    """

    path: str
    rule: Callable
    default: object = None
    requires: tuple = ()
    accepts: tuple = ()
    flag: str | None = None

    def reads(self, task):
        return task in (self.accepts or self.requires or TASKS)


_KEYS = (
    _Key("numerics.grid", _rule(_is_grid, f"must be a power of two in [8, {MAX_GRID}]"),
         DEFAULT_GRID_SIZE, flag="--grid"),
    _Key("numerics.truncation", _or_null(_integer(0))),
    _Key("numerics.tolerance", _number("(0, 1)", "must lie in (0, 1)"), 1e-10),
    _Key("numerics.seed", _integer(0), 0, flag="--seed"),
    _Key("lift.period", _number("(0, inf)", "must be a positive number"), requires=TASKS),
    _Key("lift.harmonics", _integer(1, MAX_HARMONICS, " (>= 1)"), requires=TASKS),
    _Key("lift.quadrature_points", _or_null(_integer(1, MAX_QUADRATURE_POINTS))),
    _Key("densities.f", _FILE, requires=_ESTIMATION + ("factorize", "simulate")),
    _Key("densities.g", _FILE, requires=("filter",), accepts=_ESTIMATION),
    _Key("densities.g2", _FILE, requires=_D0EPS),
    _Key("weights.inline", _or_null(_parse_inline), accepts=_WEIGHTED),
    _Key("weights.csv", _or_null(_FILE), accepts=_WEIGHTED),
    _Key("weights.blocks", _or_null(_integer(1, MAX_WEIGHT_BLOCKS)), accepts=_WEIGHTED),
    _Key("class_params.total_power", _number("(0, inf)"), requires=("minimax-y",)),
    _Key("class_params.power_matrix", _complex_matrix, requires=("minimax-extrap-d01",)),
    _Key("class_params.moments", _moments, requires=("minimax-interp-dm",)),
    _Key("class_params.signal_power", _number("(0, inf)"), requires=_D0EPS),
    _Key("class_params.noise_power", _number("(0, inf)"), requires=_D0EPS),
    _Key("class_params.eps", _number("[0, 1]"), requires=_D0EPS),
    _Key("class_params.samples", _count(MAX_SAMPLES), 50, accepts=_MINIMAX),
    _Key("class_params.task", _rule(lambda value: value in _ESTIMATION,
                                    "must name an estimation task for oracle-check"),
         requires=("oracle-check",)),
    _Key("class_params.initial_window", _count(oracle.MAX_WINDOW, least=1), 8,
         accepts=("oracle-check",)),
    _Key("class_params.tolerance", _number("(0, inf)"), 1e-5, accepts=("oracle-check",)),
    _Key("class_params.n_blocks", _count(MAX_SIMULATED_BLOCKS, least=1),
         requires=("simulate",)),
)


def parse_spec(path, seed=None, grid=None) -> ProblemSpec:
    """Parse and validate a problem JSON file by the rows of ``_KEYS``.

    All validation errors are collected and reported together, not just
    the first one. ``seed`` and ``grid``, the values of ``--seed`` and
    ``--grid``, replace numerics.seed and numerics.grid by the same rules.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecValidationError([f"cannot read problem file: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise SpecValidationError(["problem file must hold a JSON object"])
    errors: list[str] = []
    task = raw.get("task")
    if task not in TASKS:
        errors.append(f"task must be one of {', '.join(TASKS)}; got {task!r}")
    sections = {"top level": raw}
    for name in _SECTIONS:
        section = raw.get(name, None if name in _OPTIONAL else {})
        if isinstance(section, dict):
            sections[name] = section
        elif section is not None or name not in _OPTIONAL:
            errors.append(f"{name} must be an object")
    # a class_params key is known only to the tasks that read it
    known = {"top level": {"task", *_SECTIONS}}
    for key in _KEYS:
        section, _, name = key.path.partition(".")
        if section != "class_params" or task not in TASKS or key.reads(task):
            known.setdefault(section, set()).add(name)
    for where, section in sections.items():
        errors += [f"{where}: unknown key {name!r}" for name in section
                   if name not in known.get(where, ())]

    cp = sections.get("class_params", {})
    target = cp.get("task") if task == "oracle-check" else task
    flags = {"--seed": seed, "--grid": grid}
    values = {}
    for key in _KEYS:
        where, _, name = key.path.partition(".")
        section = sections.get(where)
        who = task if where == "class_params" else target
        if section is None or where == "class_params" and not key.reads(task):
            continue
        value = key.default
        if name in section or where == "lift" and who in key.requires:
            value = key.rule(section.get(name), key.path, errors, values)
        elif who in key.requires:
            errors.append(f"{key.path} is required for "
                          + ("this task" if where == "densities" else task))
        if flags.get(key.flag) is not None:
            value = key.rule(flags[key.flag], key.flag, errors, values)
        if key.reads(who) and value is not None:
            values[key.path] = value

    lift = None
    if values.get("lift.period") and values.get("lift.harmonics"):
        try:
            lift = LiftConfig(values["lift.period"], values["lift.harmonics"],
                              values.get("lift.quadrature_points"))
        except ValueError as exc:
            errors.append(f"lift: {exc}")
    if "weights" in sections:
        given = {name for name, value in sections["weights"].items() if value is not None}
        if {"inline", "csv"} <= given:
            errors.append("weights doubly specified: give inline blocks or a csv")
        if not {"inline", "csv"} & given:
            errors.append("weights: either inline blocks or a csv is required")
        if "csv" in given and "blocks" not in given:
            errors.append("weights.blocks (block count) is required with a csv")
        if "csv" in given and raw.get("lift") is None:
            errors.append("weights from csv require a lift configuration")
    elif raw.get("weights") is None and target in _WEIGHTED:
        errors.append(f"weights are required for task {task}")
    if errors:
        raise SpecValidationError(errors)
    numerics = {key.partition(".")[2]: value for key, value in values.items()
                if key.startswith("numerics.")}
    return ProblemSpec(task, Numerics(**numerics), lift, values, path.parent)


def _load(spec: ProblemSpec) -> dict:
    """Read the densities and the weights the task uses, by name, and admit them.

    Each input is admitted by the rule its solver calls: the dimension of
    the weights and the densities (``lifting._shared_dim``); the largest
    lag the solve reads on the grid, by ``spectral._admit_lag`` through
    ``estimators._admit_truncation`` (the estimation tasks and the dm
    solve, which interpolates), ``oracle._admit_window``,
    ``minimax._admit_order`` and ``minimax._d0eps_truncation``; and the
    class of each minimax task but the bounded-power one, whose power the
    problem table admits (``minimax._power_matrix``, ``_dm_moments`` and
    ``_d0eps_class``). The run and ``--dry-run`` share this step, so they
    refuse the same inputs, each before any solve and before the output
    directory exists.
    """
    data, values = {}, spec.values
    for name in ("f", "g", "g2"):
        if f"densities.{name}" not in values:
            continue
        path = spec.base_dir / values[f"densities.{name}"]
        density = read_density_csv(path, grid_size=spec.numerics.grid)
        report = validate_density(density)
        if not report.ok:
            raise PcwkError(
                f"density {name!r} failed validation: " + "; ".join(report.issues)
            )
        data[name] = density
    target = values.get("class_params.task", spec.task)
    horizon = _TASK_HORIZON[target]
    if "weights.inline" in values:
        blocks = np.array(values["weights.inline"], dtype=complex)
        data["weights"] = FunctionalWeights(blocks=blocks, horizon=horizon)
    elif "weights.csv" in values:
        times, samples = _read_weight_csv(spec.base_dir / values["weights.csv"])
        a = partial(np.interp, xp=times, fp=samples, left=0.0, right=0.0)
        data["weights"] = compute_weights(a, spec.lift, values["weights.blocks"] - 1,
                                          horizon=horizon)
    else:
        return data
    weights = data["weights"]
    K = _shared_dim(weights, *map(data.get, ("f", "g", "g2")))
    grid, truncation = spec.numerics.grid, spec.numerics.truncation
    if target in _ESTIMATION + ("minimax-interp-dm",):
        _admit_truncation(weights, truncation, grid)
    if spec.task == "oracle-check":
        oracle._admit_window(weights, values["class_params.initial_window"], grid)
    elif spec.task in ("minimax-y", "minimax-extrap-d01"):
        minimax._admit_order(weights, grid)
    if spec.task == "minimax-extrap-d01":
        minimax._power_matrix(values["class_params.power_matrix"], K)
    elif spec.task == "minimax-interp-dm":
        minimax._dm_moments(values["class_params.moments"], K, weights.n, grid)
    elif spec.task in _D0EPS:
        minimax._d0eps_class(values["class_params.signal_power"],
                             values["class_params.noise_power"],
                             values["class_params.eps"], data["g2"])
        minimax._d0eps_truncation(weights, truncation, grid)
    return data


def _read_weight_csv(path):
    samples = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header][:2] != ["t", "a"]:
            raise SpecValidationError([f"{path}: expected header t,a"])
        for ln, row in enumerate(reader, start=2):
            if not row or all(not v.strip() for v in row):
                continue
            try:
                sample = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                sample = (math.nan,)
            if not all(map(math.isfinite, sample)):
                raise SpecValidationError([f"{path}:{ln}: malformed row"])
            samples.append(sample)
    if not samples:
        raise SpecValidationError([f"{path}: no samples"])
    times, values = np.array(samples).T
    order = np.argsort(times)
    return times[order], values[order]


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

    ``condition`` is the minimality gate's ``max_condition``, the ratio of
    the extreme eigenvalues of f + g (f alone for exact data) on the grid,
    which bounds the 2-norm condition number of every system the solve
    read and of every oracle window.
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




def _solve_task(spec: ProblemSpec, data: dict, task: str):
    """Solve an estimation task on the loaded weights and densities."""
    f, g, weights = data["f"], data.get("g"), data["weights"]
    if task == "interpolate":
        return interpolate(f, g, weights)
    if task in ("extrapolate", "extrapolate-finite"):
        return extrapolate(f, g, weights, truncation=spec.numerics.truncation)
    return filtering(f, g, weights, truncation=spec.numerics.truncation)


def _run_estimation(spec: ProblemSpec, data: dict, out: Path):
    task = spec.task
    solution = _solve_task(spec, data, task)
    _write_characteristic(out / f"{task}_h.csv", solution)
    entries = _solution_summary(task, solution, spec.numerics.seed)
    _write_summary(out / "summary.csv", entries)
    return entries


def _run_factorize(spec: ProblemSpec, data: dict, out: Path):
    fact = spectral_factorize(data["f"], tol=spec.numerics.tolerance)
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


def _run_minimax(spec: ProblemSpec, data: dict, out: Path):
    task, params, weights = spec.task, spec.values, data["weights"]
    grid = spec.numerics.grid
    rng = np.random.default_rng(spec.numerics.seed)
    samples_n = params["class_params.samples"]
    optimal_error = None

    if task == "minimax-y":
        power = params["class_params.total_power"]
        result = minimax.least_favorable_class_y(weights, power, grid_size=grid)
        samples = minimax.sample_power_class(
            rng, weights.dim, weights.n, power, samples_n, grid_size=grid
        )
        validator = partial(minimax.power_class_residual, total_power=power)
        keys = ("nu_squared", "eigen_residual")
    elif task == "minimax-extrap-d01":
        P = params["class_params.power_matrix"]
        result = minimax.least_favorable_d01_extrapolation(weights, P, grid_size=grid)
        samples = minimax.sample_d01_class(
            rng, P, weights.n, samples_n, grid_size=grid
        )
        validator = partial(minimax.d01_class_residual, power_matrix=P)
        keys = ("nu_squared", "eigen_residual", "power_constraint_residual",
                "in_class")
    elif task == "minimax-interp-dm":
        p_list = params["class_params.moments"]
        result = minimax.least_favorable_dm_interpolation(
            p_list, weights, grid_size=grid
        )
        samples = minimax.sample_dm_class(
            rng, p_list, extra_degree=3, count=samples_n, grid_size=grid
        )
        validator = partial(minimax.dm_class_residual, p_constraints=p_list)

        def optimal_error(fs, gs):
            return interpolate(fs, None, weights).mse

        keys = ()
    else:  # minimax-filter-d0eps
        signal_power = params["class_params.signal_power"]
        noise_power = params["class_params.noise_power"]
        eps = params["class_params.eps"]
        g2 = data["g2"]
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


def _run_oracle_check(spec: ProblemSpec, data: dict, out: Path):
    target = spec.values["class_params.task"]
    tolerance = spec.values["class_params.tolerance"]
    solution = _solve_task(spec, data, target)
    projection, _ = oracle.time_domain_projection_converged(
        data["f"], data.get("g"), data["weights"],
        initial_window=spec.values["class_params.initial_window"],
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


def _run_simulate(spec: ProblemSpec, data: dict, out: Path):
    n_blocks = spec.values["class_params.n_blocks"]
    fact = spectral_factorize(data["f"], tol=spec.numerics.tolerance)
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


_RUNNERS = {
    **dict.fromkeys(_ESTIMATION, _run_estimation),
    "factorize": _run_factorize,
    **dict.fromkeys(_MINIMAX, _run_minimax),
    "oracle-check": _run_oracle_check,
    "simulate": _run_simulate,
}


def run(spec: ProblemSpec, out_dir) -> list:
    """Execute a validated problem spec; returns the summary entries."""
    data = _load(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[spec.task](spec, data, out)


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
        help="load the problem's inputs and run every check except the solve, "
             "then print the resolved numerics",
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
        spec = parse_spec(args.spec, seed=args.seed, grid=args.grid)
        if args.dry_run:
            _load(spec)
            print(f"task = {spec.task}")
            print(f"grid = {spec.numerics.grid}")
            print(f"truncation = {spec.numerics.truncation}")
            print(f"tolerance = {spec.numerics.tolerance}")
            print(f"seed = {spec.numerics.seed}")
            return 0
        entries = run(spec, args.out)
    except PcwkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # a SpecValidationError lists its errors
        for item in getattr(exc, "errors", [exc]):
            print(f"error: {item}", file=sys.stderr)
        return 1
    print(_summary_block(entries), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
