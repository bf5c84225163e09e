"""pcwk benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload wide-blocks --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 10

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. ``--all`` prints a table of every end-to-end metric of
every workload instead. Full results (samples, failures, machine record)
and the spans of traced runs are written under ``.bench_out/``. See
``bench/README.md`` for the workloads and metrics.
"""

import os

BLAS_THREADS = 1
# pinned for this process and the workers it starts, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("wide-blocks", "certify", "cli")
END_TO_END = (("setup_s", "s"), ("call_s.p50", "s"), ("call_s.p90", "s"),
              ("tasks_per_s", "1/s"), ("peak_rss_mb", "MB"))
SETUP_RUNS = 4  # alternating between the CPUs, see worker.pin_to_cpu
IMPORT_RUNS = 3
TIMEOUT_S = 170
CLI_MAIN = "import sys; from pcwk.cli import main; sys.exit(main())"

sys.path.insert(0, str(BENCH))
from worker import pinned, run_cycles  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["BENCH_SRC"] = os.path.realpath(SRC)
    return env


def spawn_worker(args, *extra) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_child(cmd, stderr=subprocess.DEVNULL) -> tuple[int, float]:
    """Run a subprocess to its exit; returns (exit code, peak RSS in MB).

    ``os.wait4`` blocks until the exit, so the caller's clock stops when
    the child ends (``Popen.wait`` with a timeout polls in 50 ms steps); a
    timer kills a child that outlives the timeout.
    """
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=stderr)
    killer = threading.Timer(TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def timed_command(cmd) -> float:
    t0 = time.perf_counter()
    code, _ = run_child(cmd)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited with code {code}")
    return elapsed


def import_seconds() -> float:
    """Interpreter start plus ``import pcwk.cli``, median of fresh processes."""
    cmd = [sys.executable, "-c", "import pcwk.cli"]
    return statistics.median(timed_command(cmd) for _ in range(IMPORT_RUNS))


# -- library workloads --------------------------------------------------------


def library_workload(args, spans_path):
    setups = []
    for turn in range(SETUP_RUNS):
        with pinned(turn):
            setups.append(spawn_worker(args, "--setup-only")["setup_s"])
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(spans_path)]
    result = spawn_worker(args, *extra)
    result["setup_samples"] = setups
    if args.trace:
        result["layers"]["import.pcwk_s"] = import_seconds()
    return result


# -- cli workload -----------------------------------------------------------


def _cli_task(problem, work, tracer, peak):
    """A ``Task`` whose call is one ``pcwk --spec`` subprocess, spawn to exit."""
    import cli_problems
    import workloads

    out_dir, spans_path, err_path = work / "out", work / "spans.json", work / "stderr"

    def call():
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN]
        else:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path)]
        cmd += ["--spec", str(problem.spec), "--out", str(out_dir)]
        with open(err_path, "wb") as err:
            code, rss_mb = run_child(cmd, stderr=err)
        peak[0] = max(peak[0], rss_mb)
        return code

    def record(code):
        files = list(out_dir.glob("*")) if out_dir.is_dir() else []
        rec = {"exit": code, "bytes": sum(p.stat().st_size for p in files)}
        if code != 0:
            lines = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
            rec["stderr"] = lines[-1] if lines else ""
        if (out_dir / "summary.csv").is_file():
            rec["summary"] = cli_problems.read_summary(out_dir / "summary.csv")
        if problem.path_rows is not None and (out_dir / "path.csv").is_file():
            with open(out_dir / "path.csv", "rb") as fh:
                rec["path_rows"] = sum(1 for _ in fh) - 1
        if tracer is not None:
            tracer.counters["cli.output_bytes"] += rec["bytes"]
            tracer.counters["cli.exit_nonzero"] += code != 0
            if spans_path.is_file():
                tracer.graft(json.loads(spans_path.read_text(encoding="utf-8")),
                             tracer.last_root)
                spans_path.unlink()
        return rec

    def check(rec, reference):
        if rec["exit"] != 0:
            return f"exit code {rec['exit']}: {rec.get('stderr', '')}"
        if "summary" not in rec:
            return "no summary.csv"
        if problem.path_rows is not None and rec.get("path_rows") != problem.path_rows:
            return f"path.csv has {rec.get('path_rows')} rows, expected {problem.path_rows}"
        return problem.check(rec["summary"], reference)

    return workloads.Task(problem.name, "cli", call, record, problem.reference, check)


def cli_workload(args, spans_path):
    sys.path.insert(0, str(SRC))
    import cli_problems
    import workloads
    from tracer import Tracer

    work = OUT / f"cli-work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        problems = cli_problems.write_problems(work / "problems", args.seed, args.size)
        dry_run = [sys.executable, "-c", CLI_MAIN, "--spec", str(problems[0].spec),
                   "--dry-run"]
        setups = []
        for turn in range(SETUP_RUNS):
            with pinned(turn):
                setups.append(timed_command(dry_run))

        peak = [0.0]
        tasks = [_cli_task(p, work, None, peak) for p in problems]
        samples, records, cycles, wall = run_cycles(
            tasks, args.seconds / 2 if args.trace else args.seconds)
        result = {"setup_samples": setups, "samples": samples,
                  "cycles": cycles, "wall_s": wall, "peak_rss_mb": peak[0],
                  "tasks_per_cycle": len(tasks)}
        if args.trace:
            tracer = Tracer()
            traced = [_cli_task(p, work, tracer, peak) for p in problems]
            _, traced_records, _, traced_wall = run_cycles(traced, None, cycles, tracer)
            layers = tracer.summarize(cycles, cycles * len(problems))
            tasks += traced
            records += [(i + len(problems), r, e) for i, r, e in traced_records]
            layers["trace.cycle_s"] = traced_wall / cycles
            layers["trace.overhead_ratio"] = traced_wall / wall
            layers["import.pcwk_s"] = import_seconds()
            result["layers"] = layers
            spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")

        probe = _cli_task(cli_problems.write_defect_probe(work / "problems"), work, None,
                          [0.0])
        probe_error = workloads.verify([probe], [(0, probe.record(probe.call()), None)])
        result["defect_probe"] = probe_error or "solved"
        if args.trace:
            result["layers"]["cli.defect_probe_failed"] = float(bool(probe_error))
        result["attempted"] = len(records)
        result["failures"] = workloads.verify(tasks, records)
        result["env"] = workloads.environment(BLAS_THREADS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


# -- results --------------------------------------------------------------------


def run_workload(args) -> dict:
    if not (SRC / "pcwk" / "__init__.py").is_file():
        raise BenchError(f"pcwk sources not found under {SRC}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{stem}.json"
    if args.workload == "cli":
        result = cli_workload(args, spans_path)
    else:
        result = library_workload(args, spans_path)
    samples = result["samples"]
    result["setup_s"] = statistics.median(result["setup_samples"])
    failed = len(result["failures"])
    if args.trace:
        from tracer import PER_LAYER

        layers = result["layers"]
        layers["trace.tasks_per_cycle"] = result["tasks_per_cycle"]
        layers["failed_ratio"] = failed / result["attempted"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {"setup_s": result["setup_s"],
                  "call_s.p50": statistics.median(samples),
                  "call_s.p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
                  "tasks_per_s": len(samples) / result["wall_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
               "metrics": metrics}
    result.update(summary=summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds)
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, as a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        if args.all:
            print(f"{'workload':<12} {'metric':<14} {'value':>12}  unit")
            for name in WORKLOADS:
                args.workload = name
                result = run_workload(args)
                for metric, entry in result["summary"]["metrics"].items():
                    print(f"{name:<12} {metric:<14} {entry['value']:>12.6g}  {entry['unit']}")
                print(f"{name:<12} {'samples':<14} {len(result['samples']):>12}  count")
                print(f"{name:<12} {'failed':<14} {result['summary']['failed']:>12}  count")
            return 0
        result = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in result["failures"][:10]:
        print(f"failed: {failure}", file=sys.stderr)
    if args.workload == "cli":
        print(f"defect probe (extrapolate on a 128 grid): {result['defect_probe']}",
              file=sys.stderr)
    print(json.dumps({"env": result["env"], "samples": len(result["samples"]),
                      "cycles": result["cycles"]}))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
