"""Spans recorded from outside pcwk, for the traced benchmark run.

``Tracer.install`` wraps the public functions of every pcwk module under
each name they are bound to inside the package (so ``pcwk.minimax.filtering``
and ``pcwk.estimators.check_minimality`` are traced like the originals),
plus the numpy/scipy LAPACK and FFT entry points pcwk calls. Each call then
records a span ``[name, start, end, parent]`` in memory; ``uninstall``
restores the originals. Counts are read from the returned diagnostics
(truncation history, iterations, oracle windows) at the same boundaries.
``summarize`` turns spans and counts into the per-layer metrics.

Only this benchmark's processes are patched; nothing in pcwk changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("spectral", "lifting", "estimators", "factorization", "minimax", "oracle", "cli")

# span name -> entry points (module, attribute) timed as one linalg call kind
LINALG = {
    "linalg.eigvalsh": [("numpy.linalg", "eigvalsh")],
    "linalg.eigh": [("numpy.linalg", "eigh")],
    "linalg.solve": [("numpy.linalg", "solve"), ("scipy.linalg", "solve")],
    "linalg.inv": [("numpy.linalg", "inv")],
    "linalg.cholesky": [("numpy.linalg", "cholesky")],
    "linalg.qr": [("numpy.linalg", "qr")],
    "linalg.svd": [("numpy.linalg", "svd")],
    "linalg.fft": [("numpy.fft", "fft"), ("numpy.fft", "ifft")],
}
DENSE = {name for name in LINALG if name != "linalg.fft"}

ESTIMATION_SOLVERS = (
    "interpolate", "interpolate_noiseless", "extrapolate", "extrapolate_noiseless",
    "filtering",
)
MINIMAX_CLASSES = {
    "class_y": "least_favorable_class_y",
    "d01": "least_favorable_d01_extrapolation",
    "dm": "least_favorable_dm_interpolation",
    "d0eps": "least_favorable_d0eps_filtering_scalar",
}
LAYERS = ("import", "cli", "lifting", "spectral", "estimators", "factorization",
          "minimax", "oracle", "linalg")

# (name, unit, better); every value is per cycle of the workload's task list
# unless the name says otherwise
PER_LAYER = (
    [("linalg.eigvalsh.calls", "count", "lower"),
     ("linalg.eigvalsh.self_s", "s", "lower"),
     ("linalg.solve.calls", "count", "lower"),
     ("linalg.solve.self_s", "s", "lower"),
     ("linalg.inv.self_s", "s", "lower"),
     ("linalg.fft.self_s", "s", "lower"),
     ("linalg.n3_sum", "count", "lower")]
    + [(f"estimators.{name}.self_s", "s", "lower")
       for name in ESTIMATION_SOLVERS + ("functional_symbol",)]
    + [("estimators.truncation_levels", "count", "lower"),
       ("estimators.final_truncation_sum", "count", "lower"),
       ("estimators.level_useful_ratio", "ratio", "higher"),
       ("spectral.evaluate_on_grid.calls", "count", "lower"),
       ("spectral.evaluate_on_grid.self_s", "s", "lower"),
       ("spectral.check_minimality.calls", "count", "lower"),
       ("spectral.check_minimality.self_s", "s", "lower"),
       ("spectral.validate_density.self_s", "s", "lower"),
       ("spectral.read_density_csv.self_s", "s", "lower"),
       ("spectral.write_density_csv.self_s", "s", "lower"),
       ("spectral.evaluate_on_grid.calls_per_task", "count", "lower"),
       ("factorization.spectral_factorize.calls", "count", "lower"),
       ("factorization.spectral_factorize.self_s", "s", "lower"),
       ("factorization.spectral_factorize.iterations", "count", "lower"),
       ("factorization.extrapolate_factorized.self_s", "s", "lower")]
    + [(f"minimax.{short}.self_s", "s", "lower") for short in MINIMAX_CLASSES]
    + [("minimax.d0eps.iterations", "count", "lower"),
       ("minimax.d0eps.filtering_calls", "count", "lower"),
       ("minimax.sample.self_s", "s", "lower"),
       ("minimax.saddle_point_check.self_s", "s", "lower"),
       ("minimax.samples_rejected", "count", "lower"),
       ("oracle.time_domain_projection.calls", "count", "lower"),
       ("oracle.time_domain_projection.self_s", "s", "lower"),
       ("oracle.windows_tried", "count", "lower"),
       ("oracle.window_max", "count", "lower"),
       ("oracle.covariances_from_density.self_s", "s", "lower"),
       ("lifting.compute_weights.self_s", "s", "lower"),
       ("import.pcwk_s", "s", "lower"),
       ("cli.parse_spec.self_s", "s", "lower"),
       ("cli.run.self_s", "s", "lower"),
       ("cli.output_bytes", "bytes", "lower"),
       ("cli.exit_nonzero", "count", "lower"),
       ("cli.defect_probe_failed", "count", "lower")]
    + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("layer.other.self_s", "s", "lower"),
       ("trace.cycle_s", "s", "lower"),
       ("trace.tasks_per_cycle", "count", "higher"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("failed_ratio", "ratio", "lower")]
)


def _n3(args) -> int:
    """Computed cubic work of a dense factorization: batch * m * n * min(m, n)."""
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) < 2:
        return 0
    batch = 1
    for size in shape[:-2]:
        batch *= int(size)
    m, n = int(shape[-2]), int(shape[-1])
    return batch * m * n * min(m, n)


class Tracer:
    """In-memory span recorder with wrappers around pcwk and linalg calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen: dict[int, object] = {}
        self.last_root = -1

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        if parent < 0:
            self.last_root = self._stack[-1]
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    def graft(self, payload: dict, parent: int) -> None:
        """Add a child process's ``dump()`` under span ``parent``.

        perf_counter is the system-wide monotonic clock, so the child's span
        times line up with this process's.
        """
        base = len(self.spans)
        for name, start, end, sub_parent in payload["spans"]:
            self.spans.append(
                [name, start, end, parent if sub_parent < 0 else base + sub_parent]
            )
        for name, value in payload["counters"].items():
            if name == "oracle.window_max":
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value

    def end_task(self) -> None:
        """Forget which results were counted; called between tasks."""
        self._seen.clear()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap pcwk's public functions and the linalg entry points."""
        import pcwk

        for name, entries in LINALG.items():
            before = _count_n3 if name in DENSE else None
            for module_name, attr in entries:
                owner = importlib.import_module(module_name)
                original = getattr(owner, attr, None)
                if original is not None:
                    self._patch(owner, attr, self._wrap(name, original, before=before))

        modules = [pcwk] + [importlib.import_module(f"pcwk.{m}") for m in MODULES]
        wrappers = {}
        for layer, module in zip(MODULES, modules[1:]):
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(
                    f"{layer}.{attr}", fn, after=_AFTER.get(f"{layer}.{attr}")
                )
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summarize(self, cycles: int, tasks: int) -> dict[str, float]:
        """Per-layer metrics per cycle; ``tasks`` counts every traced task."""
        own = self.self_times()
        calls: defaultdict[str, int] = defaultdict(int)
        busy: defaultdict[str, float] = defaultdict(float)
        layer_busy: defaultdict[str, float] = defaultdict(float)
        d0eps_filtering = 0
        for (name, _, _, parent), value in zip(self.spans, own):
            calls[name] += 1
            busy[name] += value
            layer = name.split(".", 1)[0]
            layer_busy[layer if layer in LAYERS else "other"] += value
            if name == "estimators.filtering" and parent >= 0:
                if self.spans[parent][0] == "minimax." + MINIMAX_CLASSES["d0eps"]:
                    d0eps_filtering += 1
        c = self.counters
        m = {
            "linalg.eigvalsh.calls": calls["linalg.eigvalsh"],
            "linalg.eigvalsh.self_s": busy["linalg.eigvalsh"],
            "linalg.solve.calls": calls["linalg.solve"],
            "linalg.solve.self_s": busy["linalg.solve"],
            "linalg.inv.self_s": busy["linalg.inv"],
            "linalg.fft.self_s": busy["linalg.fft"],
            "linalg.n3_sum": c["linalg.n3_sum"],
            "estimators.functional_symbol.self_s": busy["estimators.functional_symbol"],
            "estimators.truncation_levels": c["estimators.truncation_levels"],
            "estimators.final_truncation_sum": c["estimators.final_truncation_sum"],
            "spectral.evaluate_on_grid.calls": calls["spectral.evaluate_on_grid"],
            "spectral.evaluate_on_grid.self_s": busy["spectral.evaluate_on_grid"],
            "spectral.check_minimality.calls": calls["spectral.check_minimality"],
            "spectral.check_minimality.self_s": busy["spectral.check_minimality"],
            "spectral.validate_density.self_s": busy["spectral.validate_density"],
            "spectral.read_density_csv.self_s": busy["spectral.read_density_csv"],
            "spectral.write_density_csv.self_s": busy["spectral.write_density_csv"],
            "factorization.spectral_factorize.calls": calls["factorization.spectral_factorize"],
            "factorization.spectral_factorize.self_s": busy["factorization.spectral_factorize"],
            "factorization.spectral_factorize.iterations": c["factorization.iterations"],
            "factorization.extrapolate_factorized.self_s":
                busy["factorization.extrapolate_factorized"],
            "minimax.d0eps.iterations": c["minimax.d0eps.iterations"],
            "minimax.d0eps.filtering_calls": d0eps_filtering,
            "minimax.sample.self_s": sum(
                busy[n] for n in busy if n.startswith("minimax.sample_")
            ),
            "minimax.saddle_point_check.self_s": busy["minimax.saddle_point_check"],
            "minimax.samples_rejected": c["minimax.samples_rejected"],
            "oracle.time_domain_projection.calls": calls["oracle.time_domain_projection"],
            "oracle.time_domain_projection.self_s": busy["oracle.time_domain_projection"],
            "oracle.windows_tried": c["oracle.windows_tried"],
            "oracle.covariances_from_density.self_s": busy["oracle.covariances_from_density"],
            "lifting.compute_weights.self_s": busy["lifting.compute_weights"],
            "cli.parse_spec.self_s": busy["cli.parse_spec"],
            "cli.run.self_s": busy["cli.run"],
            "cli.output_bytes": c["cli.output_bytes"],
            "cli.exit_nonzero": c["cli.exit_nonzero"],
        }
        for solver in ESTIMATION_SOLVERS:
            m[f"estimators.{solver}.self_s"] = busy[f"estimators.{solver}"]
        for short, fn_name in MINIMAX_CLASSES.items():
            m[f"minimax.{short}.self_s"] = busy[f"minimax.{fn_name}"]
        for layer in LAYERS + ("other",):
            m[f"layer.{layer}.self_s"] = layer_busy[layer]
        out = {name: float(value) / cycles for name, value in m.items()}
        # maxima and ratios are not divided by the cycle count
        out["oracle.window_max"] = float(c["oracle.window_max"])
        levels = c["estimators.truncation_levels"]
        out["estimators.level_useful_ratio"] = (
            c["estimators.truncated_solves"] / levels if levels else 1.0
        )
        out["spectral.evaluate_on_grid.calls_per_task"] = (
            calls["spectral.evaluate_on_grid"] / tasks if tasks else 0.0
        )
        return out


def _count_n3(tracer, args):
    tracer.counters["linalg.n3_sum"] += _n3(args)


def _count_solution(tracer, solution):
    # interpolate(f, None, w) returns interpolate_noiseless's object: count once
    if id(solution) in tracer._seen:
        return
    tracer._seen[id(solution)] = solution
    diag = getattr(solution, "diagnostics", {})
    if "history" in diag:
        tracer.counters["estimators.truncation_levels"] += len(diag["history"])
        tracer.counters["estimators.truncated_solves"] += 1
    if "truncation" in diag:
        tracer.counters["estimators.final_truncation_sum"] += diag["truncation"]


def _count_factorization(tracer, fact):
    tracer.counters["factorization.iterations"] += fact.iterations


def _count_d0eps(tracer, result):
    tracer.counters["minimax.d0eps.iterations"] += result.certificate.get("iterations", 0)


def _count_saddle(tracer, report):
    tracer.counters["minimax.samples_rejected"] += report.n_rejected


def _count_oracle(tracer, result):
    final, history = result
    tracer.counters["oracle.windows_tried"] += len(history)
    tracer.counters["oracle.window_max"] = max(
        tracer.counters["oracle.window_max"], final.window
    )


_AFTER = {f"estimators.{name}": _count_solution for name in ESTIMATION_SOLVERS}
_AFTER.update({
    "factorization.spectral_factorize": _count_factorization,
    "minimax." + MINIMAX_CLASSES["d0eps"]: _count_d0eps,
    "minimax.saddle_point_check": _count_saddle,
    "oracle.time_domain_projection_converged": _count_oracle,
})
