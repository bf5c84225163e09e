"""Compare the results of two checkouts of pcwk, record by record.

Usage: python tools/parity.py A B [--seeds 1 2 3] [--size full|tiny]

A and B are checkout roots, each with ``src/pcwk`` and ``bench/``. For each
checkout one subprocess imports that checkout's ``pcwk`` and benchmark
inputs (``bench/workloads.py``, ``bench/cli_problems.py``) and runs, for
every seed:

* every ``wide-blocks`` and ``certify`` task, twice in a row, so the first
  call of each task solves cold and the second reads what the first kept;
  a record is every number the call returns (dataclass fields, dict
  entries, list items, recursively), plus, for an estimate, its
  coefficient view and ``forbidden_lag_residual``;
* every ``cli`` problem and the benchmark's defect probe, through
  ``pcwk.cli.main`` in the same process: a record is the exit code, the
  warning messages, the printed lines and every output file, by bytes.

It then prints how many records of each workload are bit-identical, the
largest relative change max|a - b| / max|a| of each quantity that moved,
the quantities present on one side only and the output files that differ.
It exits 0 when every record and file is identical, 1 otherwise. One BLAS
thread per process, so the bits do not depend on the thread count. Nothing
under ``bench/`` is changed; the records are written to a temporary
directory, one file per workload and seed, and removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

LIBRARY = ("wide-blocks", "certify")
REPS = 2


# -- collection, run inside each checkout's process ----------------------------


def _join(path, name):
    return f"{path}.{name}" if path else str(name)


def _leaves(obj, path, out, depth=0):
    """Flatten a returned value into {path: numpy array or string}."""
    import numpy as np

    if depth > 8:
        return
    if isinstance(obj, (np.ndarray, np.generic, int, float, complex, bool)):
        out[path] = np.array(obj)
    elif obj is None or isinstance(obj, str):
        out[path] = repr(obj)
    elif isinstance(obj, warnings.WarningMessage):
        out[path] = f"{obj.category.__name__}: {obj.message}"
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _leaves(value, _join(path, key), out, depth + 1)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _leaves(value, f"{path}[{i}]", out, depth + 1)
    elif dataclasses.is_dataclass(obj):
        for fld in dataclasses.fields(obj):
            _leaves(getattr(obj, fld.name), _join(path, fld.name), out, depth + 1)
        if hasattr(obj, "h_grid"):  # an estimate: its derived view as well
            import pcwk

            for name in ("h_lags", "h_coeffs"):
                _leaves(getattr(obj, name), _join(path, name), out, depth + 1)
            residual = pcwk.forbidden_lag_residual(obj)
            _leaves(residual, _join(path, "forbidden_lag_residual()"), out, depth + 1)
    else:
        out[path] = type(obj).__name__


def _library_records(workload, seed, size):
    import workloads

    tasks = workloads.library_tasks(workload, seed, size)
    records = {}
    for rep in range(REPS):
        for task in tasks:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = {}
                _leaves(task.call(), "", out)
            records[f"rep{rep}/{task.label}"] = (task.kind, out)
    return records


def _cli_records(seed, size, work: Path):
    import cli_problems
    from pcwk.cli import main

    problems = cli_problems.write_problems(work / "problems", seed, size)
    problems.append(cli_problems.write_defect_probe(work / "problems"))
    records = {}
    for problem in problems:
        out_dir = work / "out" / problem.name
        stream = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            warnings.simplefilter("always")
            code = main(["--spec", str(problem.spec), "--out", str(out_dir)])
        out = {"exit": repr(code), "printed": stream.getvalue()}
        for i, caught_warning in enumerate(caught):
            out[f"warning[{i}]"] = f"{caught_warning.category.__name__}: " \
                                   f"{caught_warning.message}"
        if out_dir.is_dir():
            for path in sorted(out_dir.iterdir()):
                out[f"file:{path.name}"] = path.read_bytes()
        records[problem.name] = ("cli", out)
    return records


def collect(out: Path, seeds, size):
    """Write one pickle of records per workload and seed under ``out``."""
    for seed in seeds:
        for workload in LIBRARY:
            records = _library_records(workload, seed, size)
            (out / f"{workload}-{seed}.pkl").write_bytes(pickle.dumps(records))
        with tempfile.TemporaryDirectory() as work:
            records = _cli_records(seed, size, Path(work))
        (out / f"cli-{seed}.pkl").write_bytes(pickle.dumps(records))


# -- comparison --------------------------------------------------------------


def _run_collector(tree: Path, out: Path, seeds, size):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree / "bench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(out),
           "--size", size, "--seeds", *map(str, seeds)]
    subprocess.run(cmd, env=env, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def _relative_change(a, b) -> float:
    import numpy as np

    if a.shape != b.shape:
        return float("inf")
    a, b = np.atleast_1d(a).astype(complex), np.atleast_1d(b).astype(complex)
    diff = np.abs(a - b)
    diff[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    scale = float(np.abs(a).max(initial=0.0))
    return float(diff.max(initial=0.0)) / scale if scale else float("inf")


def _text_change(a, b) -> float | None:
    """Largest relative change of the numbers of two texts that differ only
    in numbers (CSV files, printed summaries); None for any other change."""
    if isinstance(a, bytes) and isinstance(b, bytes):
        a, b = a.decode(errors="replace"), b.decode(errors="replace")
    tokens_a, tokens_b = (re.split(r"[,\s=]+", text) for text in (a, b))
    if len(tokens_a) != len(tokens_b):
        return None
    change = 0.0
    for x, y in zip(tokens_a, tokens_b):
        if x == y:
            continue
        try:
            x, y = complex(x), complex(y)
        except ValueError:
            return None
        change = max(change, abs(x - y) / abs(x) if x else float("inf"))
    return change


def _identical(a, b) -> bool:
    if isinstance(a, (str, bytes)) or isinstance(b, (str, bytes)):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Report:
    def __init__(self):
        self.records = defaultdict(lambda: [0, 0])  # workload -> [identical, total]
        self.moved = {}  # (workload, kind, quantity) -> [largest change, records]
        self.one_sided = defaultdict(int)  # (side, workload, kind, quantity) -> records
        self.files = [0, 0]  # [identical, total] cli output files
        self.differ = []  # cli output files and lines that differ

    def compare(self, workload, label, rec_a, rec_b):
        kind, a = rec_a
        _, b = rec_b
        for side, mine, other in (("A", a, b), ("B", b, a)):
            for name in mine.keys() - other.keys():
                self.one_sided[side, workload, kind, name] += 1
        same = True
        for name in sorted(a.keys() & b.keys()):
            if name.startswith("file:"):
                self.files[1] += 1
                self.files[0] += a[name] == b[name]
            if _identical(a[name], b[name]):
                continue
            same = False
            if isinstance(a[name], (str, bytes)):
                change = _text_change(a[name], b[name])
                if change is None:
                    self.differ.append(f"{workload} {label}: {name}")
                    continue
            else:
                change = _relative_change(a[name], b[name])
            entry = self.moved.setdefault((workload, kind, name), [0.0, 0])
            entry[0] = max(entry[0], change)
            entry[1] += 1
        self.records[workload][0] += same
        self.records[workload][1] += 1

    @property
    def identical(self) -> bool:
        return all(i == n for i, n in self.records.values()) and not self.one_sided

    def lines(self):
        for workload, (same, total) in self.records.items():
            yield (f"{workload}: {same} of {total} records bit-identical "
                   "in every quantity both sides hold")
        yield f"cli output files: {self.files[0]} of {self.files[1]} byte-identical"
        if self.moved:
            yield "largest relative change (workload, task kind, quantity, records):"
            for (workload, kind, name), (change, count) in sorted(self.moved.items()):
                yield f"  {workload} {kind} {name}: {change:.3e} ({count})"
        for (side, workload, kind, name), count in sorted(self.one_sided.items()):
            yield f"only in {side}: {workload} {kind} {name} ({count} records)"
        for item in self.differ:
            yield f"differs: {item}"


def compare(tree_a: Path, tree_b: Path, seeds, size) -> Report:
    report = Report()
    with tempfile.TemporaryDirectory() as tmp:
        dirs = Path(tmp) / "a", Path(tmp) / "b"
        for tree, out in zip((tree_a, tree_b), dirs):
            out.mkdir()
            _run_collector(tree, out, seeds, size)
        for seed in seeds:
            for workload in LIBRARY + ("cli",):
                name = f"{workload}-{seed}.pkl"
                a, b = (pickle.loads((d / name).read_bytes()) for d in dirs)
                if a.keys() != b.keys():
                    raise SystemExit(f"{workload} seed {seed}: the task lists differ")
                for label in a:
                    report.compare(workload, f"seed{seed}/{label}", a[label], b[label])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="checkouts A and B")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        collect(args.collect, args.seeds, args.size)
        return 0
    if len(args.trees) != 2:
        parser.error("give two checkouts, A and B")
    report = compare(*(tree.resolve() for tree in args.trees), args.seeds, args.size)
    for line in report.lines():
        print(line)
    return 0 if report.identical else 1


if __name__ == "__main__":
    sys.exit(main())
