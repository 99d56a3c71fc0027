"""Config-driven experiment harness and the `rigid-refine` command line.

Subcommands: `run` (batch trials to CSV), `compare` (aligned per-seed method
comparison), `gradcheck` (analytic-vs-FD Jacobian check). Configs are flat
`key = value` text files with dotted keys; see the README for the key table
and the CSV schema. All output is deterministic for a fixed config: trials
run in chunks, possibly on a worker pool (RIGID_REFINE_THREADS), but records
are buffered and serialized in trial order, and every trial of a chunk is
solved bit for bit as it would be alone, so neither the thread count nor the
chunk size changes output bytes.

A chunk makes each trial's problem with its own generator, in trial order;
one call of the stacked RNG kernel fills every generator of the chunk with
the draws a trial takes when nothing is redrawn (synth._trial_draws), and a
redraw refills through the same kernel. It then stacks the problems that
were made and solves and scores them at once through the package's array
kernels (Kabsch, the refine steps, the divergence predictors and the pose
metrics; see core for the leading trial axis). Chamfer and ICP run per
trial. A trial that fails, in generation or in a kernel's mask, is an NA
row.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import CHUNK_POINTS, RigidTransform, _centered, center
from .diagnostics import _divergence
from .gradcheck import (
    finite_difference_jacobian,
    flatten_inputs,
    jacobian_refine_step,
    max_relative_error,
    refine_step_outputs,
)
from .kabsch import DegenerateGeometry, _kabsch_pose, estimate_pose_kabsch
from .metrics import (
    _augmented_losses,
    _chamfer,
    _mean_point_distances,
    _rotation_errors,
    _translation_errors,
)
from .neighbors import NonFiniteDistance
from .refiner import DEFAULT_REFINEMENTS, _refine_steps
from .rng import Xoshiro256PlusPlus
from .synth import (
    SLAB_EXTENT,
    CropOverlapUnsatisfied,
    InsufficientPoints,
    ProblemSpec,
    _trial_draws,
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


def _cloud_count(config):
    n = config.problem.n_points
    needed = 2 * n if config.problem.independent_resample else n
    return config.cloud_points or needed


def _base_cloud(config, rng):
    count = _cloud_count(config)
    if config.cloud == "ball":
        return ball_cloud(count, rng)
    if config.cloud == "sphere":
        return sphere_cloud(count, rng)
    return slab_cloud(count, rng, thickness=config.slab_thickness)


def _icp_poses(config, correspondences):
    """ICP from the identity per trial: (r (B, 3, 3), t (B, 3), ok (B,))."""
    r = np.tile(np.eye(3), (len(correspondences), 1, 1))
    t = np.zeros((len(correspondences), 3))
    ok = np.ones(len(correspondences), dtype=bool)
    for b, corr in enumerate(correspondences):
        try:
            pose = icp_baseline(
                corr.source,
                corr.target,
                RigidTransform.identity(),
                max_iters=config.icp_max_iters,
                tol=config.icp_tol,
            )
        except (DegenerateGeometry, NonFiniteDistance):
            ok[b] = False
        else:
            r[b], t[b] = pose.rotation.m, pose.translation
    return r, t, ok


def _lanes(mask, *arrays):
    """The entries of each array (trial axis first) where mask holds."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def _solve_and_score(config, problems):
    """Solve and score the problems of one config, stacked (make_problem
    gives each of them n_points correspondences, or floor(f * n_points) with
    a crop); one record dict per problem, None for a trial whose solve failed
    (an NA row)."""
    corrs = [p.correspondences for p in problems]
    src = np.stack([c.source.points for c in corrs])
    tgt = np.stack([c.target.points for c in corrs])
    w = np.stack([c.weights for c in corrs])
    lanes = np.arange(len(problems))
    if config.method == "icp":
        r, t, ok = _icp_poses(config, corrs)
    else:
        r, t, ok = _kabsch_pose(src, tgt, w)
    lanes, src, tgt, w, r, t = _lanes(ok, lanes, src, tgt, w, r, t)
    poses_r, poses_t = r[:, None], t[:, None]
    if config.method == "refined":
        source, source_mean = _centered(src, w)
        target, target_mean = _centered(tgt, w)
        steps = _refine_steps(
            source, target, w, source_mean, target_mean, r, t, config.refinements
        )
        # S and F can overflow where H did not: no refinement, an NA row.
        lanes, src, tgt, w, source, target = _lanes(
            steps.finite, lanes, src, tgt, w, source, target
        )
        poses_r, poses_t, stepped = _lanes(
            steps.finite, steps.rotations, steps.translations, steps.stepped
        )
        r, t = poses_r[:, -1], poses_t[:, -1]
    if not lanes.size:
        return [None] * len(problems)

    gt_r = np.stack([problems[b].gt.rotation.m for b in lanes])
    gt_t = np.stack([problems[b].gt.translation for b in lanes])
    iso, aniso = _rotation_errors(r, gt_r)
    trans_l1, trans_l2 = _translation_errors(t - gt_t)
    moved = src @ r.swapaxes(1, 2) + t[:, None, :]
    columns = {
        "iso_rot_deg": iso.tolist(),
        "aniso_z_deg": aniso[:, 0].tolist(),
        "aniso_y_deg": aniso[:, 1].tolist(),
        "aniso_x_deg": aniso[:, 2].tolist(),
        "trans_l1": trans_l1.tolist(),
        "trans_l2": trans_l2.tolist(),
        "chamfer": [float(_chamfer(m, c)) for m, c in zip(moved, tgt)],
        "mean_point_dist": _mean_point_distances(src, r, t, gt_r, gt_t).tolist(),
        "augmented_loss": _augmented_losses(poses_r, poses_t, gt_r, gt_t).tolist(),
    }
    if config.method == "refined":
        columns["fallback_count"] = (~stepped).sum(axis=1).tolist()
        if config.report_diagnostics:
            stats = _divergence(poses_r, target, source, w)
            columns["divergence"] = stats["divergence"].tolist()
            columns["det_g_normalized"] = stats["det_g_normalized"].tolist()
            # NaN marks a near-singular G: no column predictors.
            for name in ("max_col_distance", "max_col_angle_deg"):
                columns[name] = [None if math.isnan(v) else v for v in stats[name].tolist()]

    records = [None] * len(problems)
    for k, b in enumerate(lanes.tolist()):
        records[b] = {name: values[k] for name, values in columns.items()}
    return records


def _run_chunk(config, indices):
    """Generate, solve and score the trials `indices`; their records, in order."""
    records = {}
    made = []  # (index, seed, problem)
    seeds = [config.problem.seed + i for i in indices]
    draws = _trial_draws(config.problem, config.cloud, _cloud_count(config))
    for i, seed, rng in zip(indices, seeds, Xoshiro256PlusPlus._prefetched(seeds, draws)):
        try:
            base = _base_cloud(config, rng)
            problem = make_problem(config.problem, base, rng)
        except (InsufficientPoints, CropOverlapUnsatisfied):
            records[i] = TrialRecord(seed=seed, method=config.method)
        else:
            made.append((i, seed, problem))
    if made:
        scored = _solve_and_score(config, [problem for _, _, problem in made])
        for (i, seed, _), values in zip(made, scored):
            records[i] = TrialRecord(seed=seed, method=config.method, **(values or {}))
    return [records[i] for i in indices]


def run_trial(config, trial_index):
    """Generate, solve, and score one trial (a chunk of one); never raises
    for solver failures."""
    return _run_chunk(config, [trial_index])[0]


def _chunk_size(config, workers):
    """Trials per chunk: the trials split evenly over the workers, capped at
    CHUNK_POINTS stacked points. ICP trials take 29 to 50 iterations each, so
    they are handed to the workers one at a time."""
    if config.method == "icp":
        return 1
    per_worker = -(-config.trials // workers)
    return max(1, min(per_worker, CHUNK_POINTS // config.problem.n_points))


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

    Trials run in chunks (see the module docstring) on a thread pool sized by
    RIGID_REFINE_THREADS (0/unset = hardware default). The chunk size follows
    from the trial count, the worker count and n_points (_chunk_size);
    results are collected per index, and a trial's record does not depend on
    its chunk, so the output is identical whatever the pool size.

    Returns
    -------
    list of TrialRecord
    """
    workers = _worker_count()
    size = _chunk_size(config, workers)
    chunks = [range(i, min(i + size, config.trials)) for i in range(0, config.trials, size)]
    if workers == 1 or len(chunks) == 1:
        done = [_run_chunk(config, chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(lambda chunk: _run_chunk(config, chunk), chunks))
    return [record for records in done for record in records]


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
        if v is not None and math.isfinite(v):
            out.append(float(v))
    return np.array(out)


def _overflow_safe(stat):
    """stat(v), or max|v| * stat(v / max|v|) where stat(v) overflows.

    Every aggregate is positively homogeneous, so the scaled form is the same
    statistic; it is taken only where the plain one overflows (squares of
    values above ~1e154), so ordinary columns keep their bytes.
    """

    def safe(v):
        with np.errstate(over="ignore"):
            value = stat(v)
        if not np.isfinite(value):
            scale = np.abs(v).max()
            value = scale * stat(v / scale)
        return float(value)

    return safe


_rmse = _overflow_safe(lambda v: np.sqrt(np.mean(v**2)))

_AGG_STATS = (
    ("mean", _overflow_safe(np.mean)),
    ("rmse", _rmse),
    ("mae", _overflow_safe(lambda v: np.mean(np.abs(v)))),
    ("std", _overflow_safe(np.std)),
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

    columns = {name: _column_values(records, name) for name in _NUMERIC_COLUMNS}
    for stat, fn in _AGG_STATS:
        cells = ["#agg", stat]
        for values in columns.values():
            cells.append(_fmt(fn(values)) if values.size else NA)
        lines.append(",".join(cells))

    per_axis = [columns[n] for n in ("aniso_z_deg", "aniso_y_deg", "aniso_x_deg")]
    if all(v.size for v in per_axis):
        axis_rmse = [_rmse(v) for v in per_axis]
        pooled = _rmse(np.concatenate(per_axis))
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
