"""Self-tests of the benchmark (tiny sizes; a few seconds per workload).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_problems  # noqa: E402
import workloads  # noqa: E402
from worker import run_cycles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LIBRARY = ("wide-blocks", "certify")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for entry, metric in zip(result["metrics"].values(), listed):
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", LIBRARY)
def test_perturbed_result_counts_as_failed(workload):
    tasks = workloads.library_tasks(workload, 5, "tiny")
    _, records, _, _ = run_cycles(tasks, None, cycles=1)
    assert workloads.verify(tasks, records) == []
    index, record, error = records[0]
    bad = dict(record)
    if "min_margin" in bad:
        bad["min_margin"] = -1e-3  # a sampled class member beats the nominal pair
    else:
        bad["mse"] *= 1 + 1e-3
    assert len(workloads.verify(tasks, [(index, bad, error)] + records[1:])) == 1


def test_perturbed_cli_summary_counts_as_failed(tmp_path):
    problems = cli_problems.write_problems(tmp_path, 5, "tiny")
    problem = problems[0]
    reference = problem.reference()
    assert problem.check({"mse": repr(reference)}, reference) is None
    assert problem.check({"mse": repr(reference * (1 + 1e-3))}, reference) is not None


@pytest.mark.parametrize("workload", LIBRARY)
def test_same_seed_same_inputs(workload):
    runs = []
    for seed in (7, 7, 8):
        tasks = workloads.library_tasks(workload, seed, "tiny")
        runs.append([task.record(task.call()) for task in tasks])
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_same_seed_same_cli_problem_files(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        cli_problems.write_problems(tmp_path / name, seed, "tiny")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())

    def contents(name):
        return [(tmp_path / name / f).read_bytes() for f in files]

    assert contents("a") == contents("b")
    assert contents("a") != contents("c")


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
