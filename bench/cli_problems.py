"""Problem files of the ``cli`` workload and the checks of their summaries.

``write_problems`` draws the inputs from the seed, writes density CSVs and
problem JSON files, and returns one ``Problem`` per ``pcwk --spec`` call.
Each problem's check reads the values back from ``summary.csv`` (and, for
``simulate``, the line count of ``path.csv``) and compares them with the
independent oracle or with the certificate tolerances of the acceptance
suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pcwk

import workloads as wl

SIZES = {
    "full": dict(dims=(1, 4), grids=(256, 8192), blocks=3, simulate=100_000,
                 samples=50),
    "tiny": dict(dims=(1,), grids=(256,), blocks=2, simulate=1_000, samples=5),
}
HORIZONS = {"interpolate": "interpolation", "extrapolate": "extrapolation",
            "extrapolate-finite": "extrapolation_finite", "filter": "filtering"}
# tasks that observe noise; the others solve from exact observations
NOISY = ("interpolate", "extrapolate", "filter")


@dataclass
class Problem:
    name: str
    spec: Path
    reference: Callable[[], object]
    check: Callable[[dict, object], str | None]
    path_rows: int | None = None  # expected data rows of path.csv


def read_summary(path: Path) -> dict[str, str]:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return dict(row.split(",", 1) for row in rows if row)


def _inline(weights):
    return [[[z.real, z.imag] for z in block] for block in weights.blocks]


def _check_mse(summary, reference):
    mse = float(summary["mse"])
    gap = wl.relative_gap(mse, reference)
    if not gap <= wl.ORACLE_RTOL:
        return f"mse {mse!r} vs oracle {reference!r}: rel diff {gap:.2e}"
    return None


def _check_factor(key):
    def check(summary, _):
        residual = float(summary[key])
        if not residual <= wl.FACTOR_RESIDUAL_TOL:
            return f"{key} {residual:.2e} > {wl.FACTOR_RESIDUAL_TOL:.0e}"
        return None

    return check


def _check_minimax(samples):
    def check(summary, _):
        if not float(summary["eigen_residual"]) <= wl.EIGEN_RESIDUAL_TOL:
            return f"eigen residual {summary['eigen_residual']}"
        if int(summary["samples_rejected"]) != 0 or int(summary["samples"]) != samples:
            return f"saddle samples {summary['samples']}, rejected {summary['samples_rejected']}"
        if not float(summary["min_saddle_margin"]) >= wl.MARGIN_TOL:
            return f"min saddle margin {summary['min_saddle_margin']}"
        return None

    return check


def _check_oracle(summary, _):
    if summary.get("passed") != "True" or not float(summary["rel_diff"]) <= wl.ORACLE_RTOL:
        return f"oracle-check reported {summary}"
    return None


class _Writer:
    def __init__(self, folder: Path):
        self.folder = folder
        folder.mkdir(parents=True, exist_ok=True)

    def density(self, name, density):
        pcwk.write_density_csv(density, self.folder / name)
        return name

    def spec(self, name, task, densities, weights=None, grid=None, class_params=None,
             lift=None):
        spec = {"task": task, "densities": densities}
        if weights is not None:
            spec["weights"] = weights
        if grid is not None:
            spec["numerics"] = {"grid": grid}
        if class_params:
            spec["class_params"] = class_params
        if lift:
            spec["lift"] = lift
        path = self.folder / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path


def write_problems(folder: Path, seed: int, size: str = "full") -> list[Problem]:
    """Write the seeded problem files; returns the timed problems in order."""
    cfg = SIZES[size]
    rng = wl.rng_for("cli", seed)
    out = _Writer(folder)
    by_dim = []
    for dim in cfg["dims"]:
        problems = []
        by_dim.append(problems)
        f = wl.ma2_density(rng, dim, max(cfg["grids"]))
        f_csv = out.density(f"f{dim}.csv", f)
        g_csv = out.density(f"g{dim}.csv", wl.white_noise(dim, max(cfg["grids"])))
        for task, horizon in HORIZONS.items():
            weights = wl.decaying_weights(rng, dim, cfg["blocks"], horizon)
            densities = {"f": f_csv, "g": g_csv} if task in NOISY else {"f": f_csv}
            for grid in cfg["grids"]:
                name = f"{task}-K{dim}-G{grid}"
                spec = out.spec(name, task, densities, {"inline": _inline(weights)}, grid)
                problems.append(Problem(
                    name, spec, _oracle_reference(folder, densities, weights, grid),
                    _check_mse))
    problems = wl.interleave(by_dim)

    # weight function lifted from a t,a CSV: K = 2 harmonics
    lift = pcwk.LiftConfig(period=1.0, n_harmonics=2)
    times = np.linspace(0.0, cfg["blocks"], 8 * cfg["blocks"] + 1)
    values = np.exp(-times) * np.cos(2 * np.pi * times + rng.uniform(0, np.pi))
    (folder / "a.csv").write_text(
        "t,a\n" + "".join(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(times, values)),
        encoding="utf-8")
    f2 = out.density("f2.csv", wl.ma2_density(rng, 2, 2048))
    g2 = out.density("g2.csv", wl.white_noise(2, 2048))
    lifted = pcwk.compute_weights(lambda t: np.interp(t, times, values, left=0.0, right=0.0),
                                  lift, cfg["blocks"] - 1, horizon="interpolation")
    spec = out.spec("lift-interpolate", "interpolate", {"f": f2, "g": g2},
                    {"csv": "a.csv", "blocks": cfg["blocks"]},
                    lift={"period": 1.0, "harmonics": 2})
    problems.append(Problem("lift-interpolate", spec,
                            _oracle_reference(folder, {"f": f2, "g": g2}, lifted, 2048),
                            _check_mse))

    f4 = out.density("factor-f.csv", wl.ma2_density(rng, max(cfg["dims"]), 2048))
    spec = out.spec("factorize", "factorize", {"f": f4})
    problems.append(Problem("factorize", spec, lambda: None, _check_factor("residual")))

    f1 = out.density("sim-f.csv", wl.ma2_density(rng, 1, 2048))
    spec = out.spec("simulate", "simulate", {"f": f1},
                    class_params={"n_blocks": cfg["simulate"]})
    problems.append(Problem("simulate", spec, lambda: None,
                            _check_factor("factor_residual"), path_rows=cfg["simulate"]))

    weights = wl.decaying_weights(rng, 2, cfg["blocks"], "extrapolation_finite")
    spec = out.spec("minimax-y", "minimax-y", {}, {"inline": _inline(weights)},
                    class_params={"total_power": 2.0, "samples": cfg["samples"]})
    problems.append(Problem("minimax-y", spec, lambda: None,
                            _check_minimax(cfg["samples"])))

    weights = wl.decaying_weights(rng, 2, cfg["blocks"], "extrapolation")
    spec = out.spec("oracle-check", "oracle-check", {"f": f2},
                    {"inline": _inline(weights)},
                    class_params={"task": "extrapolate", "initial_window": 16})
    problems.append(Problem("oracle-check", spec, lambda: None, _check_oracle))
    return problems


def write_defect_probe(folder: Path) -> Problem:
    """Extrapolating white noise on a 128 grid: the exact mse is 1.0.

    Automatic truncation cannot settle on grids of 128 or less, so today
    this call exits 2 with a TruncationError instead of solving.
    """
    out = _Writer(folder)
    white = out.density("white1.csv", pcwk.SpectralDensity.white(1, grid_size=128))
    spec = out.spec("defect-grid128", "extrapolate", {"f": white},
                    {"inline": [[1.0]]}, 128)
    return Problem("defect-grid128", spec, lambda: 1.0, _check_mse)


def _oracle_reference(folder, densities, weights, grid):
    def reference():
        f = pcwk.read_density_csv(folder / densities["f"], grid_size=grid)
        g = densities.get("g")
        g = pcwk.read_density_csv(folder / g, grid_size=grid) if g else None
        return wl.oracle_mse(f, g, weights)

    return reference
