"""Worker process of a library workload: set-up, closed loop, checks.

Started by ``run.py`` with pcwk's source on ``PYTHONPATH`` and the BLAS
thread count pinned in the environment. It prints one JSON object on its
last stdout line. Set-up time runs from before ``import pcwk`` to the end
of building and validating the workload's inputs, so only the standard
library is imported at the top of this file.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402


def pin_to_cpu(turn: int, cpus: list[int]) -> None:
    """Pin this process (and the children it starts) to CPU ``turn mod len``.

    Each vCPU of a shared host slows and speeds up with the load on its own
    physical core, independently of the others, and an unpinned
    single-threaded process stays on whichever one it started on. Turning
    through every allowed CPU makes each run sample all of them alike.
    """
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


@contextmanager
def pinned(turn: int):
    """``pin_to_cpu`` for the body of a ``with`` block, then unpin."""
    allowed = os.sched_getaffinity(0)
    pin_to_cpu(turn, sorted(allowed))
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_cycles(tasks, seconds, cycles=None, tracer=None):
    """Closed loop over whole passes of the task list.

    One client: each task starts when the previous one has finished. Passes
    repeat until ``seconds`` is reached (the last pass ends at most half a
    pass past it) or, when given, for exactly ``cycles`` passes. Whole passes
    keep the task mix, and so the percentiles, the same in every run. Task
    ``i`` of pass ``p`` runs on allowed CPU ``i + p`` (see ``pin_to_cpu``),
    so every task is timed on every CPU.
    """
    samples, records = [], []
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    start = time.perf_counter()
    done = 0
    try:
        while True:
            pass_start = time.perf_counter()
            _run_pass(tasks, done, cpus, tracer, samples, records)
            done += 1
            now = time.perf_counter()
            if cycles is not None:
                if done >= cycles:
                    break
            elif now - start + (now - pass_start) / 2 >= seconds:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    return samples, records, done, time.perf_counter() - start


def _run_pass(tasks, done, cpus, tracer, samples, records):
    for index, task in enumerate(tasks):
        pin_to_cpu(index + done, cpus)
        span = tracer.open("task." + task.kind) if tracer else None
        t0 = time.perf_counter()
        try:
            out, error = task.call(), None
        except Exception as exc:  # a failed task is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        samples.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
            tracer.end_task()
        records.append((index, None if error else task.record(out), error))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    import pcwk
    import workloads

    tasks = workloads.library_tasks(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - _START
    if not os.path.realpath(pcwk.__file__).startswith(os.environ["BENCH_SRC"]):
        raise SystemExit(f"pcwk imported from {pcwk.__file__}, not from the checkout")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    warnings.simplefilter("ignore")
    warm = {}
    for task in tasks:
        warm.setdefault(task.kind, task)
    for task in warm.values():
        task.call()

    result = {"setup_s": setup_s, "tasks_per_cycle": len(tasks)}
    samples, records, cycles, wall = run_cycles(
        tasks, args.seconds / 2 if args.trace else args.seconds)
    result.update(samples=samples, cycles=cycles, wall_s=wall,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            _, traced_records, _, traced_wall = run_cycles(
                tasks, None, cycles=cycles, tracer=tracer)
        finally:
            tracer.uninstall()
        records += traced_records
        layers = tracer.summarize(cycles, cycles * len(tasks))
        layers["trace.cycle_s"] = traced_wall / cycles
        layers["trace.overhead_ratio"] = traced_wall / wall
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    result["attempted"] = len(records)
    result["failures"] = workloads.verify(tasks, records)
    result["env"] = workloads.environment(int(os.environ["OPENBLAS_NUM_THREADS"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
