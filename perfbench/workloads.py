"""The benchmark's workloads, the seeds their batches use, and the checks on
their output rows.

This module imports nothing from rigid_refine, so the parent process of the
benchmark stays light; the worker hands it records and column names.
"""

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

# The problem seed a run uses when no --seed is given; the pinned reference
# rows under reference/ are the first trials of the first batch at this seed.
DEFAULT_SEED = 0

# Problem seeds reserved per benchmark seed. A run uses seeds
# seed * SEED_STRIDE + 0, 1, 2, ..., far fewer than this, so the trials of two
# benchmark seeds never overlap.
SEED_STRIDE = 100_000

# Pinned-row tolerance: |a - b| <= max(RTOL * max(|a|, |b|), ATOL). The floor
# lets rounding-level columns such as `divergence` (~1e-15) pass under a
# reordered but equivalent computation.
RTOL = 1e-9
ATOL = 1e-12

# Columns compared exactly, never by tolerance.
EXACT_COLUMNS = ("seed", "method")

# Plausibility bounds for refined trials on seeds that have no pinned rows.
# Over 20000 N=32 trials at sigma=0.01 the largest rotation error was 0.78 deg
# and the largest divergence 5.1e-14; the bounds leave wide headroom and catch
# only a refiner or estimator that has gone wrong.
MAX_REFINED_ISO_DEG = 5.0
MAX_REFINED_DIVERGENCE = 1e-9

DIAGNOSTIC_COLUMNS = (
    "divergence",
    "max_col_distance",
    "max_col_angle_deg",
    "det_g_normalized",
    "fallback_count",
)

# The numeric columns this benchmark knows about. A column added to the CSV
# later is carried in the rows and compared against pinned rows that have it,
# but not range-checked here.
NUMERIC_COLUMNS = (
    "iso_rot_deg",
    "aniso_z_deg",
    "aniso_y_deg",
    "aniso_x_deg",
    "trans_l1",
    "trans_l2",
    "chamfer",
    "mean_point_dist",
    "augmented_loss",
) + DIAGNOSTIC_COLUMNS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a config family and how its rows are checked.

    `settings` are `rigid-refine run` config lines other than `method`,
    `problem.seed` and `trials`; each batch sets the seed and trial count.
    `na_columns` must be NA in every row and every other column must hold a
    finite value.
    """

    name: str
    method: str
    settings: str
    batch_trials: int
    na_columns: tuple = ()

    def config_file_text(self, seed):
        """Full config for the first batch at a benchmark seed."""
        return (
            f"method = {self.method}\n{self.settings}"
            f"problem.seed = {seed * SEED_STRIDE}\ntrials = {self.batch_trials}\n"
        )

    def batch_seed(self, seed, batch):
        """Problem seed of the first trial of batch `batch` at benchmark seed `seed`."""
        return seed * SEED_STRIDE + batch * self.batch_trials

    @property
    def reference_path(self):
        return REFERENCE_DIR / f"{self.name}.csv"

    def row_errors(self, row, expected_seed):
        """Reasons one output row is wrong, as a list (empty when it is fine)."""
        errors = []
        if row["seed"] != str(expected_seed):
            errors.append(f"seed {row['seed']} != expected {expected_seed}")
        if row["method"] != self.method:
            errors.append(f"method {row['method']} != {self.method}")
        values = {}
        for column, cell in row.items():
            if column in EXACT_COLUMNS or column not in NUMERIC_COLUMNS:
                continue
            if column in self.na_columns:
                if cell != "NA":
                    errors.append(f"{column} = {cell}, expected NA")
                continue
            value = _as_float(cell)
            if value is None or not math.isfinite(value):
                errors.append(f"{column} = {cell}, expected a finite number")
            else:
                values[column] = value
        if self.method == "refined" and not errors:
            if values["fallback_count"] != 0:
                errors.append(f"fallback_count = {row['fallback_count']}")
            if values["iso_rot_deg"] > MAX_REFINED_ISO_DEG:
                errors.append(f"iso_rot_deg = {row['iso_rot_deg']} > {MAX_REFINED_ISO_DEG}")
            if values["divergence"] > MAX_REFINED_DIVERGENCE:
                errors.append(f"divergence = {row['divergence']} > {MAX_REFINED_DIVERGENCE}")
        return errors


_REFINED = "problem.noise_sigma = 0.01\nrefinements = 5\nreport_diagnostics = true\n"

# Batch sizes. Each batch is one `run_experiment` call, which starts a thread
# pool and returns when its slowest trial ends, so a batch must hold enough
# trials per thread for that barrier to be a small share of it. The N=32
# sweep uses the 1000 trials of tools/calibrate_divergence.py, which also puts
# records_to_csv at that scale. ICP trials vary most (29 to 50 iterations), so
# its batch holds 4 trials per thread on 2 cores.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="refined_ball_n1024",
            method="refined",
            settings=_REFINED + "problem.cloud = ball\nproblem.n_points = 1024\n",
            batch_trials=8,
        ),
        Workload(
            name="refined_ball_n32_sweep",
            method="refined",
            settings=_REFINED + "problem.cloud = ball\nproblem.n_points = 32\n",
            batch_trials=1000,
        ),
        Workload(
            name="icp_halfspace_n717",
            method="icp",
            settings=(
                "problem.noise_sigma = 0.01\nproblem.n_points = 717\n"
                "problem.crop_keep_fraction = 0.7\nproblem.independent_resample = true\n"
            ),
            batch_trials=8,
            na_columns=DIAGNOSTIC_COLUMNS,
        ),
    )
}


def _as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cell(value):
    """One value as text with every digit kept; None is NA."""
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def record_rows(records, columns):
    """Records as row dicts keyed by column name, in full precision."""
    return [{name: _cell(getattr(r, name)) for name in columns} for r in records]


def write_rows(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]) if rows else ["seed"])
        writer.writeheader()
        writer.writerows(rows)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _cells_agree(want, have):
    if want == have:
        return True
    a, b = _as_float(want), _as_float(have)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), ATOL)


def compare_rows(reference, rows, require_all=True):
    """Differences between pinned rows and new rows, matched by seed and column name.

    `seed` and `method` and the NA pattern must match exactly; numeric cells
    within RTOL with an ATOL floor. Columns present only in `rows` are
    ignored, so a column added later does not break the comparison. With
    `require_all`, every reference seed must be present; otherwise only the
    seeds both sides have are compared, and there must be at least one.

    Returns a list of (seed, message); the seed is None when no seed matched.
    """
    by_seed = {row["seed"]: row for row in rows}
    errors = []
    compared = 0
    for want in reference:
        seed = want["seed"]
        have = by_seed.get(seed)
        if have is None:
            if require_all:
                errors.append((seed, "row missing"))
            continue
        compared += 1
        for column, cell in want.items():
            if column not in have:
                errors.append((seed, f"column {column} missing"))
            elif column in EXACT_COLUMNS or "NA" in (cell, have[column]):
                if cell != have[column]:
                    errors.append((seed, f"{column} {have[column]} != {cell}"))
            elif not _cells_agree(cell, have[column]):
                errors.append((seed, f"{column} {have[column]} != {cell}"))
    if not compared:
        errors.append((None, "no seed in common"))
    return errors
