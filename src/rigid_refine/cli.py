"""Config-driven experiment harness and the `rigid-refine` command line.

Subcommands: `run` (batch trials to CSV), `compare` (aligned per-seed method
comparison), `gradcheck` (analytic-vs-FD Jacobian check). Configs are flat
`key = value` text files with dotted keys; see the README for the key table
and the CSV schema. All output is deterministic for a fixed config: trials
run in chunks on the calling thread, records are serialized in trial order,
and every trial of a chunk is solved bit for bit as it would be alone, so the
chunk size does not change output bytes.

A chunk takes its trials' problems from synth._problems as stacked arrays
(one stream per trial seed, filled by one call of the stacked RNG kernel and
parsed at once), then solves and scores the problems that were made at once
through the package's array kernels (Kabsch, the refine steps, the
divergence predictors and the pose metrics; see core for the leading trial
axis), and ICP as one stacked loop over the chunk (synth._icp_lanes).
Chamfer is one stacked call over the chunk (metrics._chamfers). When
source and target have equal size, one enumeration of the close pairs of
the targets' lane-tagged k-d trees answers every trial whose targets are
sparse beside its largest correspondence gap, and the other trials are
searched in one search per direction, no farther than that gap; clouds of
unequal size are searched whole. A trial that fails, in generation or in a
kernel's mask, is an NA row; a metric that overflows (a trial's Chamfer
among them) is an NA cell.

Output stays in columns as far as the schema allows: _solve_and_score
returns one list per value column, _run_chunk zips them into TrialRecords,
and records_to_csv and ComparisonTable.to_csv read each column once and
format it whole (_cells), the rows being the columns' cells zipped.
"""

import argparse
import math
import operator
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import CHUNK_POINTS, CorrespondenceSet, _centered, center
from .diagnostics import _divergence
from .gradcheck import (
    finite_difference_jacobian,
    flatten_inputs,
    jacobian_refine_step,
    max_relative_error,
    refine_step_outputs,
)
from .kabsch import _kabsch_pose, estimate_pose_kabsch
from .metrics import (
    _augmented_losses,
    _chamfers,
    _mean_point_distances,
    _rotation_errors,
    _translation_errors,
)
from .refiner import DEFAULT_REFINEMENTS, _refine_steps
from .synth import ProblemSpec, _icp_lanes, _problems

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
    icp_max_iters: int = 50
    icp_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.method == "refined" and self.refinements < 1:
            raise ConfigError("refinements must be >= 1 for method = refined")
        # Without one iteration ICP would report its identity start as a pose.
        if self.icp_max_iters < 1:
            raise ConfigError("icp_max_iters must be >= 1")
        # Written so that NaN fails too: every comparison with NaN is false.
        if not 0.0 <= self.icp_tol < math.inf:
            raise ConfigError(f"icp_tol must be finite and >= 0, got {self.icp_tol!r}")


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

# Numeric columns, in schema order: a solved trial's values, and the columns
# of the aggregate rows.
_NUMERIC_COLUMNS = COLUMNS[2:]

# A record's cells, in schema order.
_record_values = operator.attrgetter(*COLUMNS)


def _lanes(mask, *arrays):
    """The entries of each array (trial axis first) where mask holds."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def _solve_and_score(config, src, tgt, gt_r, gt_t):
    """Solve and score problems of one config, stacked: (B, m, 3) source
    and target points with unit weights and their (B, 3, 3) / (B, 3) ground
    truth (see synth._problems).

    Returns (lanes, columns): the indices of the problems whose solve
    succeeded, and a dict of value column name -> list holding one value per
    such problem. A column the method does not report is absent; a problem
    not in lanes is an NA row.
    """
    count = len(src)
    w = np.ones(src.shape[:2])
    lanes = np.arange(count)
    if config.method == "icp":  # from the identity
        start_r = np.tile(np.eye(3), (count, 1, 1))
        start_t = np.zeros((count, 3))
        r, t, ok, _ = _icp_lanes(src, tgt, start_r, start_t, config.icp_max_iters, config.icp_tol)
    else:
        r, t, ok = _kabsch_pose(src, tgt, w)
    lanes, src, tgt, w, gt_r, gt_t, r, t = _lanes(ok, lanes, src, tgt, w, gt_r, gt_t, r, t)
    poses_r, poses_t = r[:, None], t[:, None]
    if config.method == "refined":
        source, source_mean = _centered(src, w)
        target, target_mean = _centered(tgt, w)
        steps = _refine_steps(
            source, target, w, source_mean, target_mean, r, t, config.refinements
        )
        # S and F can overflow where H did not: no refinement, an NA row.
        lanes, src, tgt, w, gt_r, gt_t, source, target = _lanes(
            steps.finite, lanes, src, tgt, w, gt_r, gt_t, source, target
        )
        poses_r, poses_t, stepped = _lanes(
            steps.finite, steps.rotations, steps.translations, steps.stepped
        )
        r, t = poses_r[:, -1], poses_t[:, -1]
    if not lanes.size:
        return lanes, {}

    iso, aniso = _rotation_errors(r, gt_r)
    # A metric that overflows is an NA cell (see _cells), not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        trans_l1, trans_l2 = _translation_errors(t - gt_t)
        moved = src @ r.swapaxes(1, 2) + t[:, None, :]
        mean_point_dist = _mean_point_distances(src, r, t, gt_r, gt_t)
        augmented_loss = _augmented_losses(poses_r, poses_t, gt_r, gt_t)
    columns = {
        "iso_rot_deg": iso.tolist(),
        "aniso_z_deg": aniso[:, 0].tolist(),
        "aniso_y_deg": aniso[:, 1].tolist(),
        "aniso_x_deg": aniso[:, 2].tolist(),
        "trans_l1": trans_l1.tolist(),
        "trans_l2": trans_l2.tolist(),
        # NaN (an NA cell) where a nearest squared distance overflows.
        "chamfer": _chamfers(moved, tgt).tolist(),
        "mean_point_dist": mean_point_dist.tolist(),
        "augmented_loss": augmented_loss.tolist(),
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
    return lanes, columns


def _run_chunk(config, indices):
    """Generate, solve and score the trials `indices`; their records, in order."""
    seeds = [config.problem.seed + i for i in indices]
    source, target, gt_r, gt_t, _, made = _problems(config.problem, seeds)
    rows = {}
    if made.any():
        lanes, columns = _solve_and_score(config, *_lanes(made, source, target, gt_r, gt_t))
        # One tuple of values per solved trial, in schema order, keyed by
        # the trial's place in the chunk; the other trials are NA rows.
        absent = [None] * len(lanes)
        values = zip(*(columns.get(name, absent) for name in _NUMERIC_COLUMNS))
        rows = dict(zip(np.flatnonzero(made)[lanes].tolist(), values))
    return [TrialRecord(seed, config.method, *rows.get(k, ())) for k, seed in enumerate(seeds)]


def run_trial(config, trial_index):
    """Generate, solve, and score one trial (a chunk of one); never raises
    for solver failures."""
    return _run_chunk(config, [trial_index])[0]


def _chunk_size(config):
    """Trials per chunk: all of them, capped at CHUNK_POINTS stacked points,
    for every method (ICP lanes of a chunk iterate together until the last
    converges). It depends on the config alone."""
    return max(1, min(config.trials, CHUNK_POINTS // config.problem.n_points))


def run_experiment(config):
    """All trials of one config, in trial order.

    Trials run on the calling thread in chunks of _chunk_size(config) (see
    the module docstring); a trial's record does not depend on its chunk.

    Returns
    -------
    list of TrialRecord
    """
    size = _chunk_size(config)
    return [
        record
        for i in range(0, config.trials, size)
        for record in _run_chunk(config, range(i, min(i + size, config.trials)))
    ]


# The printf format of each plain cell type; _cells turns other numbers into
# these types first. "%.9g" % v is format(v, ".9g"), and "%d" % v is str(v).
_FORMATS = {int: "%d", float: "%.9g", type(None): "%s"}

# How None and the non-finite floats print: each is an NA cell. "-inf" comes
# before "inf".
_NA_SPELLINGS = ("None", "nan", "-inf", "inf")


def _plain(value):
    """A bool or numpy scalar as the int or float it is written as."""
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def _cells(values):
    """The CSV cells of one column: a sequence of text, or of numbers and None.

    Text passes through. Integers (bools and numpy integers too) are written
    as str(int(v)), other numbers as format(float(v), ".9g"), and None and
    non-finite numbers as NA. The whole column is formatted by one
    `template % values` call and split into its cells.
    """
    kinds = set(map(type, values))
    if all(issubclass(kind, str) for kind in kinds):
        return list(values)
    if not kinds <= _FORMATS.keys():
        values = [v if type(v) in _FORMATS else _plain(v) for v in values]
        kinds = set(map(type, values))
    if len(kinds) == 1:
        template = "\n".join([_FORMATS[kinds.pop()]] * len(values))
    else:
        template = "\n".join(map(_FORMATS.__getitem__, map(type, values)))
    text = template % tuple(values)
    if "n" in text:  # every NA spelling has an n, and no number does
        for spelling in _NA_SPELLINGS:
            text = text.replace(spelling, NA)
    return text.split("\n")


def _record_columns(records):
    """The columns of records, in schema order: one tuple per column."""
    return list(zip(*map(_record_values, records))) or [()] * len(COLUMNS)


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

    Each column is read from the records once and formatted as a whole
    (_cells); the rows are its cells zipped, and the aggregates are taken
    from the same columns' finite values.
    """
    columns = _record_columns(records)
    lines = [",".join(COLUMNS)]
    lines.extend(map(",".join, zip(*map(_cells, columns))))

    finite = {}
    for name, column in zip(_NUMERIC_COLUMNS, columns[2:]):
        values = np.array(column, dtype=float)  # None is NaN
        finite[name] = values[np.isfinite(values)]
    for stat, fn in _AGG_STATS:
        row = [fn(values) if values.size else None for values in finite.values()]
        lines.append(",".join(["#agg", stat, *_cells(row)]))

    per_axis = [finite[n] for n in ("aniso_z_deg", "aniso_y_deg", "aniso_x_deg")]
    per_axis_rmse = pooled = None
    if all(v.size for v in per_axis):
        per_axis_rmse = float(np.mean([_rmse(v) for v in per_axis]))
        pooled = _rmse(np.concatenate(per_axis))
    per_axis_cell, pooled_cell = _cells([per_axis_rmse, pooled])
    lines.append(f"#agg,aniso_rmse_per_axis,{per_axis_cell}")
    lines.append(f"#agg,aniso_rmse_pooled,{pooled_cell}")
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

        # Only finite differences count; an overflowed one is dropped silently.
        with np.errstate(over="ignore", invalid="ignore"):
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
        # One column per config and per difference, each formatted whole; a
        # difference that overflows is an NA cell.
        columns = [list(map(str, self.seeds))]
        for metric in self.COMPARED:
            arr = self.metrics[metric]
            with np.errstate(over="ignore", invalid="ignore"):
                diffs = arr[1:] - arr[0]
            columns.extend(_cells(row.tolist()) for row in (*arr, *diffs))
        lines = [",".join(header), *map(",".join, zip(*columns))]
        for metric in self.COMPARED:
            for j in range(1, len(self.labels)):
                wins, ties, losses, p_value = self.sign_test(metric, j)
                (p_cell,) = _cells([p_value])
                lines.append(f"#cmp,{metric},{self.labels[j]},{wins},{ties},{losses},{p_cell}")
        return "\n".join(lines) + "\n"


def compare_methods(configs):
    """Run several configs on identical problems and align the results.

    Parameters
    ----------
    configs : sequence of ExperimentConfig
        Must share the problem spec and trial count (everything except
        method/refinements/icp knobs/output bookkeeping).

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
    for other in configs[1:]:
        if other.problem != first.problem or other.trials != first.trials:
            raise MismatchedSpecs("configs must share the problem spec and trial count")

    # The k-th config of a method (k > 1) is labelled <method>_k.
    methods = [config.method for config in configs]
    counts = [methods[: j + 1].count(method) for j, method in enumerate(methods)]
    labels = [method if k == 1 else f"{method}_{k}" for method, k in zip(methods, counts)]

    columns = [dict(zip(COLUMNS, _record_columns(run_experiment(c)))) for c in configs]
    # None (an NA cell) is NaN.
    metrics = {
        metric: np.array([config_columns[metric] for config_columns in columns], dtype=float)
        for metric in ComparisonTable.COMPARED
    }
    return ComparisonTable(tuple(labels), columns[0]["seed"], metrics)


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


def _converter(kind):
    """The (value, key) converter of a field of type `kind`."""
    if kind is bool:
        return _parse_bool
    if kind is tuple:
        return _parse_ranges
    return lambda value, key: kind(value)


# Config key -> (dataclass, field, converter), derived from the dataclasses:
# `problem.<field>` for each ProblemSpec field, every other ExperimentConfig
# field by its name with `icp_` written `icp.`.
_KEYS = {
    **{f"problem.{f.name}": (ProblemSpec, f.name, _converter(f.type)) for f in fields(ProblemSpec)},
    **{
        f.name.replace("icp_", "icp.", 1): (ExperimentConfig, f.name, _converter(f.type))
        for f in fields(ExperimentConfig)
        if f.name != "problem"
    },
}


def config_from_entries(entries):
    """Build an ExperimentConfig from parsed key/value strings (strict keys)."""
    entries = dict(entries)
    if "problem.n_points" not in entries:
        raise ConfigError("problem.n_points is required")
    if "method" not in entries:
        raise ConfigError("method is required")

    kwargs = {ProblemSpec: {}, ExperimentConfig: {}}
    for key, value in entries.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        owner, field, convert = _KEYS[key]
        try:
            kwargs[owner][field] = convert(value, key)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    try:
        problem = ProblemSpec(**kwargs[ProblemSpec])
        return ExperimentConfig(problem=problem, **kwargs[ExperimentConfig])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return config_from_entries(parse_config_text(text))


# ---------------------------------------------------------------------------
# Entry points


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _cmd_run(args):
    config = load_config(args.config)
    if args.trials is not None:
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
    source, target, *_ = _problems(spec, [args.seed])
    correspondences = CorrespondenceSet.from_arrays(source[0], target[0])
    cc = center(correspondences)
    r_prev = estimate_pose_kabsch(correspondences).rotation

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
    except MemoryError as exc:
        # A config can ask for more points than fit in memory (huge n_points).
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
