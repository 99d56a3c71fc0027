"""Spans around rigid_refine's layers, recorded from outside the package.

The tracer replaces each function by a wrapper under the module attribute the
function is called through (`cli.refine`, `refiner.solve_kkt`, ...), so the
package itself is unchanged. A span holds its name, start, end, parent span
and trial id (the trial's problem seed). Spans are kept in memory while the
workload runs; `write` saves them when the run ends. A name that is missing
from its module is reported as absent instead of failing the run.
"""

import csv
import inspect
import itertools
import math
import statistics
import threading
import time

# (module, attribute the call goes through, metric prefix). The prefix names
# the module that defines the function; ICP's own Kabsch calls get their own
# prefix so they are not mixed with the cli call site.
SITES = (
    ("cli", "run_trial", "cli.run_trial"),
    ("cli", "ball_cloud", "synth.ball_cloud"),
    ("cli", "make_problem", "synth.make_problem"),
    ("cli", "estimate_pose_kabsch", "kabsch.estimate_pose_kabsch"),
    ("cli", "refine", "refiner.refine"),
    ("cli", "icp_baseline", "synth.icp_baseline"),
    ("cli", "divergence_report", "diagnostics.divergence_report"),
    ("cli", "chamfer_distance", "metrics.chamfer_distance"),
    ("cli", "rotation_error", "metrics.rotation_error"),
    ("cli", "translation_error", "metrics.translation_error"),
    ("cli", "mean_point_distance", "metrics.mean_point_distance"),
    ("cli", "augmented_loss", "metrics.augmented_loss"),
    ("cli", "records_to_csv", "cli.records_to_csv"),
    ("refiner", "assemble_kkt", "refiner.assemble_kkt"),
    ("refiner", "solve_kkt", "refiner.solve_kkt"),
    ("refiner", "assemble_rotation", "refiner.assemble_rotation"),
    ("refiner", "kkt_residual", "refiner.kkt_residual"),
    ("synth", "estimate_pose_kabsch", "kabsch.estimate_pose_kabsch.icp"),
)

# Brute-force nearest-neighbour matching of N against M points builds an
# (N, M, 3) difference tensor and an (N, M) distance matrix of float64.
_NN_BYTES_PER_PAIR = (3 + 1) * 8


def _points(cloud):
    return len(cloud.points)


# Counts taken from a call's arguments (by parameter name) and its result.
_ANNOTATE = {
    "synth.ball_cloud": lambda a, r: {"points": a["n"]},
    "refiner.refine": lambda a, r: {"steps": r.n_refinements},
    "metrics.chamfer_distance": lambda a, r: {
        "bytes": _points(a["a"]) * _points(a["b"]) * _NN_BYTES_PER_PAIR
    },
    "synth.icp_baseline": lambda a, r: {
        "pair_bytes": _points(a["src"]) * _points(a["tgt"]) * _NN_BYTES_PER_PAIR,
        "max_iters": a["max_iters"],
    },
    "cli.records_to_csv": lambda a, r: {"bytes": len(r.encode())},
}

# Phase labels of the traced pass at 1 thread and at all threads.
ONE_THREAD = "1"
ALL_THREADS = "n"


def _arguments(fn):
    """A function mapping one call's (args, kwargs) to {parameter: value},
    defaults filled in. It reads the signature once, so a call costs a few
    dict operations instead of `inspect.Signature.bind`."""
    parameters = inspect.signature(fn).parameters
    names = tuple(parameters)
    defaults = {k: p.default for k, p in parameters.items() if p.default is not p.empty}
    return lambda args, kwargs: {**defaults, **dict(zip(names, args)), **kwargs}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    `phase` labels the spans recorded while it is set; the benchmark sets it to
    ONE_THREAD or ALL_THREADS.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.absent = []
        self.phase = ONE_THREAD
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved = []

    def install(self):
        self.absent = []
        for module_name, attr, prefix in SITES:
            module = self.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(prefix, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, name, fn):
        """Wrap `fn` in a span named `name`.

        The span covers the call alone, from `start` to `end`. The wrapper's
        own work before and after it (stack, trial id, annotation) is the
        span's `wrapper_s`. A parent's self time excludes both, so the self
        and wrapper times of a trial's spans add up to its run_trial time.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        annotate = _ANNOTATE.get(name)
        is_trial = name == "cli.run_trial"
        arguments = _arguments(fn) if annotate or is_trial else None

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            stack = local.__dict__.setdefault("stack", [])
            outer_trial = trial = getattr(local, "trial", None)
            if is_trial:
                a = arguments(args, kwargs)
                trial = local.trial = a["config"].problem.seed + a["trial_index"]
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = annotate(arguments(args, kwargs), result) if annotate and result is not None else None
                local.trial = outer_trial
                left = time.perf_counter()
                if parent is not None:
                    parent[1] += left - entered
                spans.append(
                    (frame[0], parent[0] if parent else None, name, self.phase, trial,
                     start, end, end - start - frame[1], (left - entered) - (end - start), info)
                )

        return wrapper

    def write(self, path):
        """Save every span as CSV: id, parent, name, phase, trial, start, end,
        self_s, wrapper_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("id", "parent", "name", "phase", "trial", "start", "end", "self_s", "wrapper_s"))
            for span in self.spans:
                writer.writerow(span[:9])


# Per-layer metrics and their units, in report order. Times and counts are
# per trial of the 1-thread traced pass.
PER_LAYER_UNITS = {
    **{f"{prefix}.self_s": "s" for _, _, prefix in SITES if not prefix.endswith(".icp")},
    "synth.ball_cloud.points": "count",
    "kabsch.estimate_pose_kabsch.calls": "count",
    "kabsch.estimate_pose_kabsch.icp_self_s": "s",
    "refiner.refine.steps": "count",
    "refiner.step_us": "us",
    "metrics.chamfer_distance.bytes_computed": "B",
    "synth.icp_baseline.iters": "count",
    "synth.icp_baseline.converged_frac": "frac",
    "synth.icp_baseline.bytes_computed": "B",
    "cli.csv_bytes": "B",
    "cli.run_trial.p50_ms": "ms",
    "cli.run_trial.p95_ms": "ms",
    "cli.run_trial.samples": "count",
    "cli.run_trial.wait_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.wrapper_frac": "frac",
    "trace.absent_wrappers": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, trials, untraced_s, traced_s, absent):
    """Per-layer metrics from the spans of a traced run.

    `trials` is the number of trials in the ONE_THREAD phase; the ALL_THREADS
    phase ran the same trials. `untraced_s` and `traced_s` are the wall times
    of the same 1-thread batches without and with tracing.
    """
    self_s = {}
    calls = {}
    info_sum = {}
    run_trial = {ONE_THREAD: [], ALL_THREADS: []}
    icp_iters = {}
    wrapper_s = 0.0
    for sid, parent, name, phase, trial, start, end, own, wrapped, info in spans:
        if name == "cli.run_trial" and phase in run_trial:
            run_trial[phase].append(end - start)
        if phase != ONE_THREAD:
            continue
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if parent is not None and trial is not None:
            wrapper_s += wrapped
        for key, value in (info or {}).items():
            info_sum[(name, key)] = info_sum.get((name, key), 0) + value
        if name == "kabsch.estimate_pose_kabsch.icp" and parent is not None:
            icp_iters[parent] = icp_iters.get(parent, 0) + 1
        if name == "refiner.refine":
            info_sum[(name, "inclusive_s")] = info_sum.get((name, "inclusive_s"), 0.0) + end - start

    icp_spans = [s for s in spans if s[3] == ONE_THREAD and s[2] == "synth.icp_baseline" and s[9]]
    iters = [icp_iters.get(s[0], 0) for s in icp_spans]
    icp_bytes = sum(n * s[9]["pair_bytes"] for n, s in zip(iters, icp_spans))
    converged = sum(n < s[9]["max_iters"] for n, s in zip(iters, icp_spans))
    steps = info_sum.get(("refiner.refine", "steps"), 0)
    durations = sorted(run_trial[ONE_THREAD])

    metrics = {f"{prefix}.self_s": _ratio(self_s.get(prefix, 0.0), trials)
               for _, _, prefix in SITES if not prefix.endswith(".icp")}
    metrics.update({
        "synth.ball_cloud.points": _ratio(info_sum.get(("synth.ball_cloud", "points"), 0), trials),
        "kabsch.estimate_pose_kabsch.calls": _ratio(calls.get("kabsch.estimate_pose_kabsch", 0), trials),
        "kabsch.estimate_pose_kabsch.icp_self_s": _ratio(self_s.get("kabsch.estimate_pose_kabsch.icp", 0.0), trials),
        "refiner.refine.steps": _ratio(steps, trials),
        "refiner.step_us": 1e6 * _ratio(info_sum.get(("refiner.refine", "inclusive_s"), 0.0), steps),
        "metrics.chamfer_distance.bytes_computed": _ratio(info_sum.get(("metrics.chamfer_distance", "bytes"), 0), trials),
        "synth.icp_baseline.iters": _ratio(sum(iters), trials),
        "synth.icp_baseline.converged_frac": _ratio(converged, len(icp_spans)),
        "synth.icp_baseline.bytes_computed": _ratio(icp_bytes, trials),
        "cli.csv_bytes": _ratio(info_sum.get(("cli.records_to_csv", "bytes"), 0), trials),
        "cli.run_trial.p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
        "cli.run_trial.p95_ms": 1e3 * _quantile(durations, 0.95),
        "cli.run_trial.samples": len(durations),
        "cli.run_trial.wait_ratio": _ratio(sum(run_trial[ALL_THREADS]), sum(durations)),
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        "trace.wrapper_frac": _ratio(wrapper_s, sum(durations)),
        "trace.absent_wrappers": len(absent),
    })
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
