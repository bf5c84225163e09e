#!/usr/bin/env python3
"""The batch front-end: problem files in, CSV reports out.

Every capability is also reachable without writing Python: a JSON problem
file names the task, the density files, the weights and the numerics, and
the command line writes CSV reports. Identical problem files with
identical seeds produce byte-identical CSV bodies. This script builds a
small workspace, runs three tasks through the command line entry point,
and prints what came back.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from pcwk import SpectralDensity, write_density_csv


def run(workspace, name, payload):
    spec = workspace / f"{name}.json"
    spec.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    out = workspace / name
    proc = subprocess.run(
        [sys.executable, "-m", "pcwk.cli", "--spec", str(spec), "--out", str(out)],
        capture_output=True, text=True,
    )
    print(f"$ pcwk --spec {spec.name} --out {name}/   (exit {proc.returncode})")
    for line in proc.stderr.strip().splitlines():
        print(f"    {line}")
    for produced in sorted(out.iterdir()):
        print(f"    wrote {produced.name}")
    print()
    return out


def main(workspace: Path) -> None:
    print(f"workspace: {workspace}\n")

    # density files in the interchange schema (m,row,col,re,im)
    f = SpectralDensity.from_moving_average([[[1.0]], [[0.5]]], grid_size=512)
    g = SpectralDensity.white(1, scale=0.5, grid_size=512)
    write_density_csv(f, workspace / "f.csv")
    write_density_csv(g, workspace / "g.csv")

    # 1. a filtering problem
    run(workspace, "filter", {
        "task": "filter",
        "densities": {"f": "f.csv", "g": "g.csv"},
        "weights": {"inline": [[1.0], [0.5]]},
        "numerics": {"grid": 512, "seed": 1},
    })

    # 2. factorization of the signal density
    run(workspace, "factorize", {
        "task": "factorize",
        "densities": {"f": "f.csv"},
        "numerics": {"grid": 512},
    })

    # 3. a robust problem with saddle sampling (seeded, hence reproducible)
    out = run(workspace, "minimax", {
        "task": "minimax-y",
        "weights": {"inline": [[1.0], [1.0]]},
        "numerics": {"grid": 512, "seed": 42},
        "class_params": {"total_power": 1.0, "samples": 30},
    })

    print("summary of the robust run:")
    print((out / "summary.csv").read_text())

    # 4. the oracle cross-check, driven from the same problem description
    run(workspace, "oracle", {
        "task": "oracle-check",
        "densities": {"f": "f.csv", "g": "g.csv"},
        "weights": {"inline": [[1.0], [0.5]]},
        "numerics": {"grid": 512},
        "class_params": {"task": "filter"},
    })


if __name__ == "__main__":
    # the workspace and every CSV written into it are removed on exit
    with tempfile.TemporaryDirectory(prefix="pcwk-demo-") as tmp:
        main(Path(tmp))
