"""Config-driven experiment harness and the `rigid-refine` command line.

Subcommands: `run` (batch trials to CSV), `compare` (aligned per-seed method
comparison), `gradcheck` (analytic-vs-FD Jacobian check). Configs are flat
`key = value` text files with dotted keys; see the README for the key table
and the CSV schema. All output is deterministic for a fixed config: trials
may run on a worker pool (RIGID_REFINE_THREADS), but records are buffered and
serialized in trial order, so thread count never changes output bytes.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import PointCloud, RigidTransform, center
from .diagnostics import divergence_report
from .gradcheck import (
    finite_difference_jacobian,
    flatten_inputs,
    jacobian_refine_step,
    max_relative_error,
    refine_step_outputs,
)
from .kabsch import DegenerateGeometry, estimate_pose_kabsch
from .metrics import augmented_loss, chamfer_distance, mean_point_distance, rotation_error, translation_error
from .neighbors import NonFiniteDistance
from .refiner import DEFAULT_REFINEMENTS, refine
from .rng import Xoshiro256PlusPlus
from .synth import (
    SLAB_EXTENT,
    CropOverlapUnsatisfied,
    InsufficientPoints,
    ProblemSpec,
    ball_cloud,
    icp_baseline,
    make_problem,
    slab_cloud,
    sphere_cloud,
)

NA = "NA"

METHODS = ("kabsch", "refined", "icp")

GRADCHECK_TOL = 1e-5


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


class MismatchedSpecs(Exception):
    """compare_methods given configs with different problems or trial counts."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: a problem family, a method, and run bookkeeping."""

    problem: ProblemSpec
    method: str
    refinements: int = DEFAULT_REFINEMENTS
    trials: int = 1
    output_path: str = ""
    report_diagnostics: bool = True
    cloud: str = "ball"
    cloud_points: int = 0  # 0 = smallest count the problem needs
    slab_thickness: float = 1e-3
    icp_max_iters: int = 50
    icp_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.method == "refined" and self.refinements < 1:
            raise ConfigError("refinements must be >= 1 for method = refined")
        if self.cloud not in ("ball", "sphere", "slab"):
            raise ConfigError(f"unknown cloud kind {self.cloud!r}")
        if self.cloud_points < 0:
            raise ConfigError("cloud_points must be >= 0")
        # Thicker than its in-plane extent, a slab is no longer thin; it also
        # keeps overflow-scale values away from the centering arithmetic.
        if not 0.0 <= self.slab_thickness <= SLAB_EXTENT:
            raise ConfigError(
                f"slab_thickness must be in [0, {SLAB_EXTENT}], got {self.slab_thickness!r}"
            )


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """One CSV row; None marks an unavailable value (serialized as NA)."""

    seed: int
    method: str
    iso_rot_deg: object = None
    aniso_z_deg: object = None
    aniso_y_deg: object = None
    aniso_x_deg: object = None
    trans_l1: object = None
    trans_l2: object = None
    chamfer: object = None
    mean_point_dist: object = None
    augmented_loss: object = None
    divergence: object = None
    max_col_distance: object = None
    max_col_angle_deg: object = None
    det_g_normalized: object = None
    fallback_count: object = None


# CSV columns, in schema order: the TrialRecord fields.
COLUMNS = tuple(f.name for f in fields(TrialRecord))

# Numeric columns, in schema order, used for the aggregate rows.
_NUMERIC_COLUMNS = COLUMNS[2:]


def _base_cloud(config, rng):
    n = config.problem.n_points
    needed = 2 * n if config.problem.independent_resample else n
    count = config.cloud_points or needed
    if config.cloud == "ball":
        return ball_cloud(count, rng)
    if config.cloud == "sphere":
        return sphere_cloud(count, rng)
    return slab_cloud(count, rng, thickness=config.slab_thickness)


def run_trial(config, trial_index):
    """Generate, solve, and score one trial; never raises for solver failures."""
    seed = config.problem.seed + trial_index
    rng = Xoshiro256PlusPlus(seed)
    try:
        base = _base_cloud(config, rng)
        problem = make_problem(config.problem, base, rng)
    except (InsufficientPoints, CropOverlapUnsatisfied):
        return TrialRecord(seed=seed, method=config.method)

    corr = problem.correspondences
    trace = None
    try:
        if config.method == "kabsch":
            pose = estimate_pose_kabsch(corr)
            poses = [pose]
        elif config.method == "refined":
            trace = refine(corr, estimate_pose_kabsch(corr), config.refinements)
            pose = trace.poses[-1]
            poses = trace
        else:
            pose = icp_baseline(
                corr.source,
                corr.target,
                RigidTransform.identity(),
                max_iters=config.icp_max_iters,
                tol=config.icp_tol,
            )
            poses = [pose]
    except (DegenerateGeometry, NonFiniteDistance):
        return TrialRecord(seed=seed, method=config.method)

    gt = problem.gt
    iso, aniso = rotation_error(pose.rotation, gt.rotation)
    record = {
        "iso_rot_deg": iso,
        "aniso_z_deg": float(aniso[0]),
        "aniso_y_deg": float(aniso[1]),
        "aniso_x_deg": float(aniso[2]),
        "trans_l1": translation_error(pose.translation, gt.translation, 1),
        "trans_l2": translation_error(pose.translation, gt.translation, 2),
        "chamfer": chamfer_distance(PointCloud(pose.apply(corr.source.points)), corr.target),
        "mean_point_dist": mean_point_distance(corr.source, pose, gt),
        "augmented_loss": augmented_loss(poses, gt),
    }
    if trace is not None:
        record["fallback_count"] = trace.fallback_count
        if config.report_diagnostics:
            report = divergence_report(trace)
            record["divergence"] = report.divergence
            record["max_col_distance"] = report.max_col_distance
            record["max_col_angle_deg"] = report.max_col_angle_deg
            record["det_g_normalized"] = report.det_g_normalized
    return TrialRecord(seed=seed, method=config.method, **record)


def _worker_count():
    raw = os.environ.get("RIGID_REFINE_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"RIGID_REFINE_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError("RIGID_REFINE_THREADS must be >= 0")
    return value or (os.cpu_count() or 1)


def run_experiment(config):
    """All trials of one config, in trial order.

    Trials execute on a thread pool sized by RIGID_REFINE_THREADS (0/unset =
    hardware default); results are collected per index, so the output is
    identical whatever the pool size.

    Returns
    -------
    list of TrialRecord
    """
    workers = _worker_count()
    if workers == 1:
        return [run_trial(config, i) for i in range(config.trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i: run_trial(config, i), range(config.trials)))


def _fmt(value):
    if value is None:
        return NA
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not np.isfinite(v):
        return NA
    return format(v, ".9g")


def _column_values(records, name):
    out = []
    for r in records:
        v = getattr(r, name)
        if v is not None and np.isfinite(float(v)):
            out.append(float(v))
    return np.array(out)


_AGG_STATS = (
    ("mean", lambda v: float(np.mean(v))),
    ("rmse", lambda v: float(np.sqrt(np.mean(v**2)))),
    ("mae", lambda v: float(np.mean(np.abs(v)))),
    ("std", lambda v: float(np.std(v))),
)


def records_to_csv(records):
    """Serialize records plus aggregate rows to CSV text.

    Header row lists the schema columns; data rows follow in order; aggregate
    rows are prefixed `#agg,` (stat name in the second field, then one value
    per numeric column). Two extra rows report the anisotropic-RMSE
    aggregation variants (per-axis-then-averaged and pooled). Floats use 9
    significant digits, lines end with \\n.
    """
    lines = [",".join(COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, name)) for name in COLUMNS))

    for stat, fn in _AGG_STATS:
        cells = ["#agg", stat]
        for name in _NUMERIC_COLUMNS:
            values = _column_values(records, name)
            cells.append(_fmt(fn(values)) if values.size else NA)
        lines.append(",".join(cells))

    per_axis = [_column_values(records, n) for n in ("aniso_z_deg", "aniso_y_deg", "aniso_x_deg")]
    if all(v.size for v in per_axis):
        axis_rmse = [float(np.sqrt(np.mean(v**2))) for v in per_axis]
        pooled = float(np.sqrt(np.mean(np.concatenate(per_axis) ** 2)))
        lines.append(f"#agg,aniso_rmse_per_axis,{_fmt(float(np.mean(axis_rmse)))}")
        lines.append(f"#agg,aniso_rmse_pooled,{_fmt(pooled)}")
    else:
        lines.append(f"#agg,aniso_rmse_per_axis,{NA}")
        lines.append(f"#agg,aniso_rmse_pooled,{NA}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Aligned per-seed metric values for several configs over shared trials."""

    labels: tuple
    seeds: tuple
    metrics: dict  # metric name -> (n_configs, n_trials) array, NaN = NA

    COMPARED = ("iso_rot_deg", "trans_l2", "chamfer")

    def differences(self, metric):
        """Per-seed differences (config_j - config_0) for j >= 1."""
        arr = self.metrics[metric]
        return arr[1:] - arr[0]

    def sign_test(self, metric, j):
        """Win/tie/loss counts of config j vs config 0 (lower is better).

        Ties are dropped from the binomial test; p-value is two-sided.
        """
        # Imported here: scipy.stats is slow to import and only this needs it.
        from scipy.stats import binomtest

        diff = self.metrics[metric][j] - self.metrics[metric][0]
        finite = diff[np.isfinite(diff)]
        wins = int(np.sum(finite < 0))
        losses = int(np.sum(finite > 0))
        ties = int(finite.size - wins - losses)
        if wins + losses == 0:
            p_value = 1.0
        else:
            p_value = float(binomtest(wins, wins + losses, 0.5).pvalue)
        return wins, ties, losses, p_value

    def to_csv(self):
        """Serialize per-seed rows plus `#cmp,` sign-test summary rows."""
        header = ["seed"]
        for metric in self.COMPARED:
            header.extend(f"{metric}_{label}" for label in self.labels)
            header.extend(f"diff_{metric}_{label}" for label in self.labels[1:])
        lines = [",".join(header)]
        n_trials = len(self.seeds)
        for i in range(n_trials):
            cells = [str(self.seeds[i])]
            for metric in self.COMPARED:
                arr = self.metrics[metric]
                cells.extend(_fmt(arr[j, i] if np.isfinite(arr[j, i]) else None) for j in range(len(self.labels)))
                cells.extend(
                    _fmt(arr[j, i] - arr[0, i] if np.isfinite(arr[j, i] - arr[0, i]) else None)
                    for j in range(1, len(self.labels))
                )
            lines.append(",".join(cells))
        for metric in self.COMPARED:
            for j in range(1, len(self.labels)):
                wins, ties, losses, p_value = self.sign_test(metric, j)
                lines.append(
                    f"#cmp,{metric},{self.labels[j]},{wins},{ties},{losses},{_fmt(p_value)}"
                )
        return "\n".join(lines) + "\n"


def compare_methods(configs):
    """Run several configs on identical problems and align the results.

    Parameters
    ----------
    configs : sequence of ExperimentConfig
        Must share the problem spec, trial count, and base-cloud settings
        (everything except method/refinements/icp knobs/output bookkeeping).

    Returns
    -------
    ComparisonTable

    Raises
    ------
    MismatchedSpecs
    """
    configs = list(configs)
    if len(configs) < 2:
        raise MismatchedSpecs("need at least two configs to compare")
    first = configs[0]
    shared = ("cloud", "cloud_points", "slab_thickness", "trials")
    for other in configs[1:]:
        spec_a, spec_b = first.problem, other.problem
        same_problem = all(
            getattr(spec_a, f.name) == getattr(spec_b, f.name) for f in fields(ProblemSpec)
        )
        if not same_problem or any(getattr(first, k) != getattr(other, k) for k in shared):
            raise MismatchedSpecs("configs must share the problem spec and trial count")

    labels = []
    for config in configs:
        label = config.method
        if label in labels:
            label = f"{label}_{labels.count(config.method) + 1}"
        labels.append(label)

    all_records = [run_experiment(config) for config in configs]
    seeds = tuple(r.seed for r in all_records[0])
    metrics = {}
    for metric in ComparisonTable.COMPARED:
        arr = np.full((len(configs), len(seeds)), np.nan)
        for j, records in enumerate(all_records):
            for i, record in enumerate(records):
                value = getattr(record, metric)
                if value is not None:
                    arr[j, i] = float(value)
        metrics[metric] = arr
    return ComparisonTable(tuple(labels), seeds, metrics)


# ---------------------------------------------------------------------------
# Config file handling


def parse_config_text(text):
    """Parse flat `key = value` lines; # starts a comment, blanks ignored."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _parse_bool(value, key):
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _parse_ranges(value, key):
    """A 'lo,hi' pair, or three ';'-separated pairs."""
    try:
        pairs = [tuple(float(x) for x in part.split(",")) for part in value.split(";")]
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if len(pairs) == 1:
        return pairs[0]
    if len(pairs) == 3 and all(len(p) == 2 for p in pairs):
        return tuple(pairs)
    raise ConfigError(f"{key} must be 'lo,hi' or three ';'-separated pairs")


def _plain(convert):
    """Adapt a one-argument converter to the (value, key) signature."""
    return lambda value, key: convert(value)


# Config key -> (field, converter); every converter is called as (value, key).
_PROBLEM_KEYS = {
    "problem.n_points": ("n_points", _plain(int)),
    "problem.rot_range_deg": ("rot_range_deg", _parse_ranges),
    "problem.trans_range": ("trans_range", _parse_ranges),
    "problem.noise_sigma": ("noise_sigma", _plain(float)),
    "problem.noise_clamp": ("noise_clamp", _plain(float)),
    "problem.crop_keep_fraction": ("crop_keep_fraction", _plain(float)),
    "problem.independent_resample": ("independent_resample", _parse_bool),
    "problem.seed": ("seed", _plain(int)),
}

_EXPERIMENT_KEYS = {
    "method": ("method", _plain(str)),
    "refinements": ("refinements", _plain(int)),
    "trials": ("trials", _plain(int)),
    "output_path": ("output_path", _plain(str)),
    "report_diagnostics": ("report_diagnostics", _parse_bool),
    "problem.cloud": ("cloud", _plain(str)),
    "problem.cloud_points": ("cloud_points", _plain(int)),
    "problem.slab_thickness": ("slab_thickness", _plain(float)),
    "icp.max_iters": ("icp_max_iters", _plain(int)),
    "icp.tol": ("icp_tol", _plain(float)),
}


def config_from_entries(entries):
    """Build an ExperimentConfig from parsed key/value strings (strict keys)."""
    entries = dict(entries)
    if "problem.n_points" not in entries:
        raise ConfigError("problem.n_points is required")
    if "method" not in entries:
        raise ConfigError("method is required")

    problem_kwargs = {}
    experiment_kwargs = {}
    for key, value in entries.items():
        if key in _PROBLEM_KEYS:
            field, convert = _PROBLEM_KEYS[key]
            target = problem_kwargs
        elif key in _EXPERIMENT_KEYS:
            field, convert = _EXPERIMENT_KEYS[key]
            target = experiment_kwargs
        else:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            target[field] = convert(value, key)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    try:
        problem = ProblemSpec(**problem_kwargs)
        return ExperimentConfig(problem=problem, **experiment_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    with open(path) as f:
        return config_from_entries(parse_config_text(f.read()))


# ---------------------------------------------------------------------------
# Entry points


def _write_text(path, text):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _cmd_run(args):
    config = load_config(args.config)
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError("--trials must be >= 1")
        config = replace(config, trials=args.trials)
    if args.seed is not None:
        config = replace(config, problem=replace(config.problem, seed=args.seed))
    records = run_experiment(config)
    csv_text = records_to_csv(records)
    out = args.out or config.output_path
    if out:
        _write_text(out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_compare(args):
    configs = [load_config(path) for path in args.config]
    table = compare_methods(configs)
    csv_text = table.to_csv()
    if args.out:
        _write_text(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_gradcheck(args):
    if args.n_points < 3:
        raise ConfigError("--n-points must be >= 3")
    spec = ProblemSpec(n_points=args.n_points, noise_sigma=0.01, seed=args.seed)
    rng = Xoshiro256PlusPlus(args.seed)
    problem = make_problem(spec, ball_cloud(args.n_points, rng), rng)
    cc = center(problem.correspondences)
    r_prev = estimate_pose_kabsch(problem.correspondences).rotation

    analytic = jacobian_refine_step(cc, r_prev)
    x0, n = flatten_inputs(cc)
    fd = finite_difference_jacobian(lambda x: refine_step_outputs(x, n, r_prev), x0)
    err = max_relative_error(analytic.matrix, fd)
    status = "PASS" if err <= GRADCHECK_TOL else "FAIL"
    print(
        f"gradcheck seed={args.seed} n_points={args.n_points}: "
        f"max relative error {err:.3e} (tolerance {GRADCHECK_TOL:.0e}) {status}"
    )
    return 0 if status == "PASS" else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rigid-refine",
        description="Rigid-registration experiment harness (SVD estimator + KKT refiner).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config, write CSV")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", help="output CSV path (default: config output_path or stdout)")
    p_run.add_argument("--trials", type=int, help="override trial count")
    p_run.add_argument("--seed", type=int, help="override problem.seed")

    p_cmp = sub.add_parser("compare", help="run several configs on shared problems")
    p_cmp.add_argument(
        "--config", action="append", required=True, help="config file (give two or more)"
    )
    p_cmp.add_argument("--out", help="output CSV path (default stdout)")

    p_gc = sub.add_parser("gradcheck", help="analytic vs finite-difference Jacobian check")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--n-points", type=int, default=16)

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "gradcheck": _cmd_gradcheck}
    try:
        return handlers[args.command](args)
    except (ConfigError, MismatchedSpecs, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
